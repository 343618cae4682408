//! Replay on the task pool.
//!
//! GTM2 is one sequential process (the paper's Figures 2–3), so there is
//! one replay engine: [`replay_parallel`] runs [`replay`] for any scheme
//! as a single task on a [`Pool`] of `workers` threads. Its outcome is
//! [`replay`]'s, field for field.

use crate::replay::{replay, ReplayOutcome, Script};
use crate::scheme::SchemeKind;
use mdbs_common::pool::{Poll, Pool};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the pool may take to drain before the replay is declared
/// wedged (a liveness bug, mirroring the threaded runtime's deadline).
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// Replay `script` under `kind` as one task on a pool of `workers`.
#[expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    reason = "an offline replay, not the pump: the task writes its slot once before the pool drains; a poisoned or empty slot means the replay already panicked and the harness must surface it"
)]
pub fn replay_parallel(kind: SchemeKind, workers: usize, script: &Script) -> ReplayOutcome {
    let pool = Pool::new(workers);
    let slot: Arc<Mutex<Option<ReplayOutcome>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let script = script.clone();
    let h = pool.spawn(move || {
        *out.lock().expect("replay slot") = Some(replay(kind, &script));
        Poll::Done
    });
    h.wake();
    assert!(pool.wait_idle(DRAIN_DEADLINE), "parallel replay wedged");
    let mut guard = slot.lock().expect("replay slot");
    guard.take().expect("replay task completed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_replay_matches_single_engine() {
        let script = Script::random(10, 4, 2.2, 7);
        for kind in SchemeKind::CONSERVATIVE {
            let single = replay(kind, &script);
            let par = replay_parallel(kind, 2, &script);
            assert_eq!(par.steps, single.steps, "{kind}");
            assert_eq!(par.stats, single.stats, "{kind}");
            assert_eq!(par.ser_events, single.ser_events, "{kind}");
        }
    }
}
