//! Triggering fixture for `bad-allow`: unknown rule name in one
//! directive, missing justification in another, an argument after the
//! rule id in the last two.

pub fn noop() {
    // mdbs-lint: allow(no-silent-sends-drop) — typo in the rule name.
    let _x = 1;
    // mdbs-lint: allow(no-silent-send-drop)
    let _y = 2;
}

pub fn scoped_noop() {
    // mdbs-lint: allow(no-silent-send-drop, scope=file) — unknown scope argument.
    let _z = 3;
    // mdbs-lint: allow(no-silent-send-drop, scope=item) — item scope is not an argument either.
    let _w = 4;
}
