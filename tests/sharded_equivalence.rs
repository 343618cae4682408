//! Sharded-pump equivalence suite.
//!
//! [`ShardedGtm2`] partitions the WAIT set by site and moves wake-ups
//! across shards through an explicit handoff queue. That restructuring
//! must be *observationally invisible*: on any workload, sharded replay
//! must admit the same outcomes as the single-engine [`Gtm2`] pump —
//! every transaction completes, no protocol violations, nothing aborted,
//! and the per-site `ser(S)` projection (the only order Theorem 2 cares
//! about — events at distinct sites do not conflict) is identical.
//!
//! The vendored proptest runs deterministic cases without shrinking, so
//! any failure seed found here should be transcribed as an explicit
//! regression test in the "regressions" module below (repo convention
//! from PR 1).

use std::collections::BTreeMap;

use mdbs::common::ids::{GlobalTxnId, SiteId};
use mdbs::core::replay::{
    replay, replay_kernel, replay_sharded, replay_sharded_kernel, ReplayOutcome, Script,
    ScriptEvent,
};
use mdbs::core::{KernelKind, SchemeKind};
use proptest::prelude::*;

/// Group a `ser(S)` event log by site, preserving per-site order.
fn per_site_order(events: &[(GlobalTxnId, SiteId)]) -> BTreeMap<SiteId, Vec<GlobalTxnId>> {
    let mut by_site: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
    for &(txn, site) in events {
        by_site.entry(site).or_default().push(txn);
    }
    by_site
}

/// The equivalence contract between the single engine and a sharded run.
fn assert_equivalent(kind: SchemeKind, nshards: usize, script: &Script, seed_label: u64) {
    let single = replay(kind, script);
    let sharded = replay_sharded(kind, nshards, script);
    let label = format!("{kind} shards={nshards} seed={seed_label}");
    assert_equivalent_outcomes(&single, &sharded, &label);
}

fn assert_equivalent_outcomes(single: &ReplayOutcome, sharded: &ReplayOutcome, label: &str) {
    assert_eq!(
        single.completed, sharded.completed,
        "{label}: completion count diverged"
    );
    assert_eq!(sharded.protocol_violations, 0, "{label}: violations");
    assert_eq!(
        single.protocol_violations, 0,
        "{label}: violations (single)"
    );
    assert!(sharded.aborted.is_empty(), "{label}: conservative aborts");
    assert!(single.aborted.is_empty(), "{label}: conservative aborts");
    assert!(sharded.ser_serializable, "{label}: sharded ser(S) audit");
    assert_eq!(
        per_site_order(&single.ser_events),
        per_site_order(&sharded.ser_events),
        "{label}: per-site ser(S) order diverged"
    );
}

/// At one shard the engines are op-for-op identical — same effect stream,
/// same stats, same *total* order of `ser(S)`, same step counts.
fn assert_identical(single: &ReplayOutcome, sharded: &ReplayOutcome, label: &str) {
    assert_eq!(single.ser_events, sharded.ser_events, "{label}: ser(S)");
    assert_eq!(single.stats, sharded.stats, "{label}: stats");
    assert_eq!(single.steps, sharded.steps, "{label}: steps");
    assert_eq!(single.completed, sharded.completed, "{label}: completed");
    assert_eq!(
        (single.wake_scan_count, single.wake_scan_sum),
        (sharded.wake_scan_count, sharded.wake_scan_sum),
        "{label}: wake-scan work"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workloads, all four conservative schemes, shard counts from
    /// degenerate (1) past the site count.
    #[test]
    fn sharded_replay_matches_single_engine(
        n in 3usize..16,
        m in 1usize..6,
        seed in any::<u64>(),
        nshards in 1usize..6,
    ) {
        let script = Script::random(n, m, (m as f64).min(2.5), seed);
        for kind in SchemeKind::CONSERVATIVE {
            assert_equivalent(kind, nshards, &script, seed);
        }
    }

    /// Serializable insertion orders: every scheme completes them, and for
    /// Scheme 3 (which admits *all* serializable schedules) nothing ever
    /// ser-waits — so sharding must not introduce waits either.
    #[test]
    fn sharded_replay_serializable_orders_never_wait(
        n in 3usize..12,
        m in 2usize..6,
        seed in any::<u64>(),
        nshards in 1usize..6,
    ) {
        let script = Script::serializable_order(n, m, 2.0, seed);
        for kind in SchemeKind::CONSERVATIVE {
            let out = replay_sharded(kind, nshards, &script);
            prop_assert_eq!(out.completed, n, "{} shards={}", kind, nshards);
            assert_equivalent(kind, nshards, &script, seed);
        }
        let out3 = replay_sharded(SchemeKind::Scheme3, nshards, &script);
        prop_assert_eq!(out3.stats.waited_kind[1], 0, "scheme 3 ser-waits, shards={}", nshards);
    }
}

/// With a single shard every operation funnels through shard 0, so the
/// sharded engine must reproduce the single engine *exactly* — not just
/// up to per-site projection.
#[test]
fn single_shard_is_op_for_op_identical() {
    for seed in 0..10u64 {
        let script = Script::random(12, 4, 2.5, 77_000 + seed);
        for kind in SchemeKind::CONSERVATIVE {
            let single = replay(kind, &script);
            let sharded = replay_sharded(kind, 1, &script);
            assert_identical(&single, &sharded, &format!("{kind} seed={seed}"));
        }
    }
}

/// Schemes 2 and 3 keep global scheme state and route everything through
/// shard 0 regardless of the requested shard count; the run must still be
/// exactly the single-engine run.
#[test]
fn unpartitioned_schemes_identical_at_any_shard_count() {
    for seed in 0..6u64 {
        let script = Script::random(10, 4, 2.5, 88_000 + seed);
        for kind in [SchemeKind::Scheme2, SchemeKind::Scheme3] {
            for nshards in [2usize, 4] {
                let single = replay(kind, &script);
                let sharded = replay_sharded(kind, nshards, &script);
                assert_identical(
                    &single,
                    &sharded,
                    &format!("{kind} shards={nshards} seed={seed}"),
                );
            }
        }
    }
}

/// Every valid script over `ntxns` transactions and two sites with at most
/// `max_sers` `ser`s in total: each transaction takes any non-empty site
/// set, and the events interleave in every order that puts a transaction's
/// `init` before its `ser`s. With `ordered_inits` the `init`s appear in
/// transaction-id order, which enumerates the scripts up to renaming of
/// transactions. Returns the number of scripts visited.
fn for_every_script(
    ntxns: usize,
    max_sers: usize,
    ordered_inits: bool,
    visit: &mut impl FnMut(&Script),
) -> usize {
    const SITE_SETS: [&[u32]; 3] = [&[0], &[1], &[0, 1]];
    /// `state[t]` is `None` until transaction `t`'s `init` is emitted, then
    /// the sites still owed a `ser`.
    fn extend(
        sets: &[&[u32]],
        ordered_inits: bool,
        state: &mut Vec<Option<Vec<u32>>>,
        events: &mut Vec<ScriptEvent>,
        visit: &mut impl FnMut(&Script),
    ) -> usize {
        let mut visited = 0;
        let mut complete = true;
        for t in 0..state.len() {
            let txn = GlobalTxnId(t as u64 + 1);
            match state[t].clone() {
                None => {
                    complete = false;
                    if ordered_inits && state[..t].iter().any(Option::is_none) {
                        continue;
                    }
                    state[t] = Some(sets[t].to_vec());
                    let sites = sets[t].iter().map(|&k| SiteId(k)).collect();
                    events.push(ScriptEvent::Init(txn, sites));
                    visited += extend(sets, ordered_inits, state, events, visit);
                    events.pop();
                    state[t] = None;
                }
                Some(owed) => {
                    for (i, &site) in owed.iter().enumerate() {
                        complete = false;
                        let mut rest = owed.clone();
                        rest.remove(i);
                        state[t] = Some(rest);
                        events.push(ScriptEvent::Ser(txn, SiteId(site)));
                        visited += extend(sets, ordered_inits, state, events, visit);
                        events.pop();
                    }
                    state[t] = Some(owed);
                }
            }
        }
        if complete {
            visit(&Script {
                events: events.clone(),
            });
            visited += 1;
        }
        visited
    }
    let mut visited = 0;
    // Every assignment of a site set to each transaction (base-3 counter).
    for code in 0..SITE_SETS.len().pow(ntxns as u32) {
        let sets: Vec<&[u32]> = (0..ntxns)
            .map(|t| SITE_SETS[code / SITE_SETS.len().pow(t as u32) % SITE_SETS.len()])
            .collect();
        if sets.iter().map(|set| set.len()).sum::<usize>() <= max_sers {
            let mut state = vec![None; ntxns];
            visited += extend(&sets, ordered_inits, &mut state, &mut Vec::new(), visit);
        }
    }
    visited
}

/// Engine and kernel equivalence *proved* at small scope rather than
/// sampled, for one scheme: every valid script over 2 transactions ×
/// 2 sites, and over 3 transactions × 2 sites up to transaction renaming,
/// through {`Gtm2`, sharded@1, sharded@2} × {BTree, Dense}. The scope
/// leaves out one site-set assignment — all three transactions spanning
/// both sites, 2240 of the 5440 three-transaction scripts — which alone
/// would double the run time.
///
/// Across kernels the single engine must be identical. Within a kernel,
/// sharded@1 — and sharded@2 for the schemes that do not partition — must
/// be the single engine op for op; a genuinely partitioned run (Schemes
/// 0/1 at two shards) must keep per-site `ser(S)` and every counter that
/// does not depend on how WAIT is split.
fn check_every_small_script(kind: SchemeKind) {
    let mut check = |script: &Script| {
        assert_eq!(script.validate(), Ok(()), "{script:?}");
        let shown = format!("{script:?}");
        let btree = replay_kernel(kind, KernelKind::BTree, script);
        let dense = replay_kernel(kind, KernelKind::Dense, script);
        assert_identical(&btree, &dense, &format!("{kind} btree vs dense {shown}"));
        for (kernel, single) in [(KernelKind::BTree, &btree), (KernelKind::Dense, &dense)] {
            let label = format!("{kind} {kernel} {shown}");
            assert_eq!(single.protocol_violations, 0, "{label}");
            assert!(single.ser_serializable, "{label}");
            let one = replay_sharded_kernel(kind, kernel, 1, script);
            assert_identical(single, &one, &label);
            assert_equivalent_outcomes(single, &one, &label);
            let two = replay_sharded_kernel(kind, kernel, 2, script);
            assert_equivalent_outcomes(single, &two, &label);
            if matches!(kind, SchemeKind::Scheme2 | SchemeKind::Scheme3) {
                assert_identical(single, &two, &label);
            } else {
                assert_eq!(single.stats, two.stats, "{label} shards=2: stats");
                // `wait_scan` is charged per wake scan, and a handoff is
                // one more scan; `cond`/`act` may not move.
                assert_eq!(
                    (single.steps.cond, single.steps.act),
                    (two.steps.cond, two.steps.act),
                    "{label} shards=2: cond/act steps"
                );
            }
        }
    };
    // A changed count means the enumerator, not an engine, changed.
    assert_eq!(for_every_script(2, 4, false, &mut check), 184);
    assert_eq!(for_every_script(3, 5, true, &mut check), 3200);
}

#[test]
fn every_small_script_scheme0() {
    check_every_small_script(SchemeKind::Scheme0);
}

#[test]
fn every_small_script_scheme1() {
    check_every_small_script(SchemeKind::Scheme1);
}

#[test]
fn every_small_script_scheme2() {
    check_every_small_script(SchemeKind::Scheme2);
}

#[test]
fn every_small_script_scheme3() {
    check_every_small_script(SchemeKind::Scheme3);
}

/// Deterministic regressions. The vendored proptest has no shrinking, so
/// interesting seeds get pinned here verbatim as they are found.
mod regressions {
    use super::*;

    /// Dense conflict pattern: more transactions than sites, every shard
    /// count from degenerate to beyond the site count.
    #[test]
    fn dense_cross_site_traffic() {
        let script = Script::random(15, 3, 2.5, 424_242);
        for kind in SchemeKind::CONSERVATIVE {
            for nshards in [1usize, 2, 3, 5] {
                assert_equivalent(kind, nshards, &script, 424_242);
            }
        }
    }

    /// Single-site workload: all ser traffic maps to one shard, the rest
    /// sit idle; handoffs to empty shards must be skipped, not wedge.
    #[test]
    fn single_site_all_shards_but_one_idle() {
        let script = Script::random(8, 1, 1.0, 7);
        for kind in SchemeKind::CONSERVATIVE {
            assert_equivalent(kind, 4, &script, 7);
        }
    }

    /// Wide transactions touching many sites stress the Init fan-out
    /// (pre-init release handoffs to every participating shard).
    #[test]
    fn wide_transactions_fan_out_inits() {
        let script = Script::random(10, 5, 4.5, 31_337);
        for kind in SchemeKind::CONSERVATIVE {
            for nshards in [2usize, 5] {
                assert_equivalent(kind, nshards, &script, 31_337);
            }
        }
    }
}
