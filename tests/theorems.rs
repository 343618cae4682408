//! Theorem-by-theorem checks on small replays, beside the verdict rows of
//! `crates/bench/tests/committed_results.rs` (the paper has no measured
//! evaluation, so its theorems are our "figures" — see EXPERIMENTS.md).

use mdbs::core::replay::{replay, Script};
use mdbs::core::scheme::SchemeKind;

/// Theorems 3, 5, 8: every conservative scheme keeps ser(S) serializable
/// on arbitrary insertion orders.
#[test]
fn thm_3_5_8_ser_s_serializable() {
    for seed in 0..30 {
        let script = Script::random(14, 5, 2.4, seed);
        for kind in SchemeKind::CONSERVATIVE {
            let out = replay(kind, &script);
            assert!(out.ser_serializable, "{kind} seed {seed}");
            assert!(out.aborted.is_empty(), "{kind} is conservative");
            assert_eq!(out.completed, 14, "{kind} completes everyone");
        }
    }
}

/// Section 4/7 degree-of-concurrency ordering. The paper's dominance is
/// stated for a fixed QUEUE insertion order; under closed-loop feedback
/// (acks/fins follow each scheme's own decisions) the executions diverge,
/// so per-order inversions can occur rarely. We assert: strict aggregate
/// dominance of Scheme 3, rarity of per-order inversions, and that the
/// BT-schemes do not wait more than Scheme 0 in aggregate.
#[test]
fn concurrency_dominance_on_same_orders() {
    let mut totals = [0u64; 4];
    let mut inversions = 0u32;
    const RUNS: u64 = 40;
    for seed in 0..RUNS {
        let script = Script::random(12, 4, 2.5, seed);
        let w: Vec<u64> = SchemeKind::CONSERVATIVE
            .iter()
            .map(|&k| replay(k, &script).stats.waited_kind[1])
            .collect();
        if w[3] > w[0] || w[3] > w[1] || w[3] > w[2] {
            inversions += 1;
        }
        for i in 0..4 {
            totals[i] += w[i];
        }
    }
    let [s0_total, s1_total, s2_total, s3_total] = totals;
    assert!(s3_total < s1_total && s3_total < s2_total && s3_total < s0_total);
    assert!(
        inversions <= 2,
        "feedback inversions must be rare: {inversions}/{RUNS}"
    );
    assert!(
        s1_total <= s0_total,
        "Scheme 1 provides more concurrency than 0"
    );
    assert!(
        s2_total <= s0_total,
        "Scheme 2 provides more concurrency than 0"
    );
}

/// Scheme 1 and Scheme 2 are incomparable (Section 6): there exist
/// insertion orders where each waits less than the other.
#[test]
fn scheme1_scheme2_incomparable() {
    let mut one_beats_two = false;
    let mut two_beats_one = false;
    for seed in 0..200 {
        let script = Script::random(10, 4, 2.5, seed);
        let w1 = replay(SchemeKind::Scheme1, &script).stats.waited_kind[1];
        let w2 = replay(SchemeKind::Scheme2, &script).stats.waited_kind[1];
        if w1 < w2 {
            one_beats_two = true;
        }
        if w2 < w1 {
            two_beats_one = true;
        }
        if one_beats_two && two_beats_one {
            return;
        }
    }
    panic!(
        "incomparability witnesses not found: 1<2 seen {one_beats_two}, 2<1 seen {two_beats_one}"
    );
}
