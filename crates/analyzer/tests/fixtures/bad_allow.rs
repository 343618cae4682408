//! Triggering fixture for `bad-allow`: unknown rule name in one
//! directive, missing justification in the other.

pub fn noop() {
    // mdbs-lint: allow(no-panics-in-scheduler) — typo in the rule name.
    let _x = 1;
    // mdbs-lint: allow(no-silent-send-drop)
    let _y = 2;
}

pub fn scoped_noop() {
    // mdbs-lint: allow(no-panic-in-scheduler, scope=file) — unknown scope argument.
    let _z = 3;
}

// mdbs-lint: allow(no-panic-in-scheduler, scope=item) — nothing follows this directive.
