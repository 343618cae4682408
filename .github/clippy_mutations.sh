#!/usr/bin/env bash
# The clippy lints the workspace relies on must each catch a seeded
# one-line regression of code that exists: the panic and wildcard-arm
# lints that mdbs-core and mdbs-localdb deny (see their lib.rs), and the
# root clippy.toml's disallowed-methods ban on blocking calls and on an
# uncounted channel send.
#
# Usage: .github/clippy_mutations.sh TREE
#
# TREE is a disposable copy of the repository (a `git worktree` or a
# `git clone`): each edit is applied there, checked, then reverted with
# `git checkout`. The clean copy must pass
# `cargo clippy -p <crate> --lib -- -D warnings` for mdbs-common,
# mdbs-core, mdbs-localdb and mdbs-sim; each edit must make its crate
# fail and name the expected lint. An edit whose anchor text has drifted
# fails the script rather than passing vacuously.
set -euo pipefail

tree="${1:?usage: $0 TREE (a disposable copy of the repository)}"
tree="$(cd "$tree" && pwd)"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

clippy() { # CRATE
    cargo clippy --manifest-path "$tree/Cargo.toml" --quiet --message-format=json \
        -p "$1" --lib -- -D warnings >"$log" 2>&1
}

# In FILE, the first FIND after the first AFTER becomes REPLACE.
seed() { # FILE AFTER FIND REPLACE
    python3 - "$tree/$1" "$2" "$3" "$4" <<'EOF'
import sys
path, after, find, replace = sys.argv[1:]
src = open(path).read()
scope = src.find(after)
at = src.find(find, scope) if scope >= 0 else -1
if at < 0:
    sys.exit(f"{path}: anchor drifted: {after!r} then {find!r} not found")
open(path, "w").write(src[:at] + replace + src[at + len(find):])
EOF
}

mutate() { # CRATE LINT FILE AFTER FIND REPLACE
    local crate="$1" lint="$2" file="$3"
    seed "$file" "$4" "$5" "$6"
    if clippy "$crate"; then
        echo "FAIL: $file with ${6@Q}: clippy passed; expected clippy::$lint" >&2
        exit 1
    fi
    if ! grep -q "\"code\":\"clippy::$lint\"" "$log"; then
        grep '"rendered"' "$log" | head -20 >&2 || true
        echo "FAIL: $file with ${6@Q}: clippy failed without naming clippy::$lint" >&2
        exit 1
    fi
    echo "ok: $file with ${6@Q} -> clippy::$lint"
    git -C "$tree" checkout --quiet -- "$file"
}

for crate in mdbs-common mdbs-core mdbs-localdb mdbs-sim; do
    if ! clippy "$crate"; then
        grep '"rendered"' "$log" | head -20 >&2 || true
        echo "FAIL: clean $crate does not pass clippy -D warnings" >&2
        exit 1
    fi
    echo "ok: clean $crate passes"
done

# An unwrap in the GTM2 pump.
mutate mdbs-core unwrap_used crates/core/src/gtm2.rs \
    $'    pub fn pump(&mut self) -> Vec<SchemeEffect> {\n' \
    $'        out.effects\n' \
    $'        Some(out.effects).unwrap()\n'

# A wildcard arm in Scheme 2's `cond`.
mutate mdbs-core wildcard_enum_match_arm crates/core/src/kernel_dense.rs \
    'impl Gtm2Scheme for Scheme2Dense {' \
    $'            QueueOp::Init { .. } | QueueOp::Ack { .. } => true,\n' \
    $'            _ => true,\n'

# A slice index in GTM1, which carries no #[expect].
mutate mdbs-core indexing_slicing crates/core/src/gtm1.rs \
    'fn issue_next(&mut self, txn: GlobalTxnId, effects: &mut Vec<Gtm1Effect>) {' \
    'ctl.plan.get(ctl.cursor).cloned()' \
    'Some(ctl.plan[ctl.cursor].clone())'

# An unwrap in a local protocol method (TO's on_end).
mutate mdbs-localdb unwrap_used crates/localdb/src/to.rs \
    'fn on_end(&mut self, txn: TxnId, _committed: bool) -> Vec<TxnId> {' \
    'self.writes.remove(&txn).unwrap_or_default()' \
    'self.writes.remove(&txn).unwrap()'

# A sleep as the GTM2 pump's first statement.
mutate mdbs-core disallowed_methods crates/core/src/gtm2.rs \
    'impl Gtm2 {' \
    $'    pub fn pump(&mut self) -> Vec<SchemeEffect> {\n' \
    $'    pub fn pump(&mut self) -> Vec<SchemeEffect> {\n        std::thread::sleep(std::time::Duration::from_millis(1));\n'

# A blocking receive in the site task's poll (the vendored crossbeam path
# resolves in mdbs-sim).
mutate mdbs-sim disallowed_methods crates/sim/src/threaded.rs \
    $'    fn run(&mut self) -> Poll {\n' \
    'match self.rx.try_recv() {' \
    'match self.rx.recv().map_err(|_| TryRecvError::Disconnected) {'

# The shutdown send, past CountedSender: its failure would go uncounted.
mutate mdbs-sim disallowed_methods crates/sim/src/threaded.rs \
    $'        // Shut down sites and collect histories.\n' \
    $'            tx.send(ToSite::Shutdown);\n' \
    $'            tx.inner.send(ToSite::Shutdown).ok();\n'

echo "clippy mutation check: 7 of 7 seeded edits caught"
