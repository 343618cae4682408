//! Property tests for the GTM2 schemes.
//!
//! 1. **Safety**: on arbitrary valid insertion orders, every conservative
//!    scheme completes all transactions with a serializable `ser(S)` and
//!    no aborts.
//! 2. **Section 7**: on serializable orders Scheme 3 never ser-waits.
//!    Dominance over the other schemes is decided exactly, script by
//!    script, by the root `tests/theorems.rs` census.
//! 3. **Wake-hint completeness**: each scheme's `wake_candidates` hints
//!    must be *complete* — running the same scheme with the hints replaced
//!    by "re-examine everything" must produce exactly the same effect
//!    sequence. (A missed hint silently deadlocks or delays; this catches
//!    it.)
//! 4. **Theorem 8 invariant**: Scheme 3 never serializes a transaction
//!    before itself; Scheme 2's TSGD stays acyclic (checked by the schemes'
//!    own `debug_validate`, enabled here).

use mdbs_core::gtm2::Gtm2;
use mdbs_core::replay::{replay, replay_with, Script, ScriptEvent};
use mdbs_core::scheme::{FullRescan, SchemeKind};
use proptest::prelude::*;

/// Strategy: a valid random script described by (n, m, dav-seed).
fn arb_script() -> impl Strategy<Value = Script> {
    (2usize..10, 2usize..5, 10u64..35, any::<u64>())
        .prop_map(|(n, m, dav10, seed)| Script::random(n, m, dav10 as f64 / 10.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservative_schemes_safe_on_any_order(script in arb_script()) {
        let n = script.txn_count();
        for kind in SchemeKind::CONSERVATIVE {
            let out = replay(kind, &script);
            prop_assert!(out.ser_serializable, "{kind}");
            prop_assert!(out.aborted.is_empty(), "{kind}");
            prop_assert_eq!(out.completed, n, "{}", kind);
        }
    }

    #[test]
    fn scheme3_waitless_on_serializable_orders(
        n in 2usize..12,
        m in 2usize..5,
        dav10 in 10u64..35,
        seed in any::<u64>(),
    ) {
        let script = Script::serializable_order(n, m, dav10 as f64 / 10.0, seed);
        let out = replay(SchemeKind::Scheme3, &script);
        prop_assert_eq!(out.stats.waited_kind[1], 0);
    }

    /// Hints == full rescans, for every scheme, on every order.
    #[test]
    fn wake_hints_are_complete(script in arb_script()) {
        for kind in SchemeKind::CONSERVATIVE {
            let mut hinted_engine = Gtm2::new(kind.build());
            hinted_engine.set_validate(true);
            let hinted = replay_with(&mut hinted_engine, &script);

            let mut full_engine = Gtm2::new(Box::new(FullRescan(kind.build())));
            full_engine.set_validate(true);
            let full = replay_with(&mut full_engine, &script);

            prop_assert_eq!(
                hinted.stats.processed, full.stats.processed,
                "{}: hinted vs full processed", kind
            );
            prop_assert_eq!(
                hinted.stats.waited, full.stats.waited,
                "{}: hinted vs full waits", kind
            );
            prop_assert_eq!(hinted.completed, full.completed, "{}", kind);
            prop_assert!(hinted.ser_serializable && full.ser_serializable);
        }
    }

    /// Baselines: every transaction either completes or is aborted, and
    /// the committed projection of ser(S) is serializable.
    #[test]
    fn baselines_account_for_everyone(script in arb_script()) {
        let n = script.txn_count();
        for kind in [SchemeKind::AbortingTo, SchemeKind::OptimisticTicket] {
            let out = replay(kind, &script);
            prop_assert_eq!(out.completed + out.aborted.len(), n, "{}", kind);
            prop_assert!(out.ser_serializable, "{kind}");
        }
    }

    /// The per-site act order recorded in ser(S) covers exactly the
    /// scripted ser events for conservative schemes.
    #[test]
    fn ser_log_covers_script(script in arb_script()) {
        for kind in SchemeKind::CONSERVATIVE {
            let mut engine = Gtm2::new(kind.build());
            engine.set_validate(true);
            let out = replay_with(&mut engine, &script);
            let expected: usize = script
                .events
                .iter()
                .filter(|e| matches!(e, ScriptEvent::Ser(..)))
                .count();
            prop_assert_eq!(out.stats.processed as usize >= expected, true, "{}", kind);
        }
    }
}
