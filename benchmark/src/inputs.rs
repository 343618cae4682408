//! The four workloads and their seeded inputs.
//!
//! The benchmark takes the seed; the program under test receives only the
//! generated programs and scripts. Round `r` of a workload derives its
//! input seed from `(seed, workload, r)`, so the same `--seed` reproduces
//! every input exactly.

use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::rng::splitmix64;
use mdbs_core::replay::{Script, ScriptEvent};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::WorkloadSpec;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// The live threaded runtime on a conflict-free spread of items.
    LiveSpread,
    /// The deterministic simulator on hot, heterogeneous sites.
    DesContended,
    /// GTM2 replay with nearly every transaction active at once.
    SchedBurst,
    /// GTM2 replay of a long history through a small sliding window.
    SchedStream,
}

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::LiveSpread,
        WorkloadId::DesContended,
        WorkloadId::SchedBurst,
        WorkloadId::SchedStream,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::LiveSpread => "live_spread",
            WorkloadId::DesContended => "des_contended",
            WorkloadId::SchedBurst => "sched_burst",
            WorkloadId::SchedStream => "sched_stream",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds measured by a `--seconds 20` untraced run. Fixed counts, not
    /// a time box, so every count repeats exactly for a given seed; sized
    /// so one run measures for about 20 s on the 2-vCPU reference
    /// container (see README, "Sizing").
    fn base_rounds(self) -> usize {
        match self {
            WorkloadId::LiveSpread => 40,
            WorkloadId::DesContended => 12,
            WorkloadId::SchedBurst => 18,
            WorkloadId::SchedStream => 10,
        }
    }

    /// Global transactions per sample at full size.
    fn base_txns(self) -> usize {
        match self {
            WorkloadId::SchedStream => 10_000,
            _ => 1_000,
        }
    }

    /// Closed-loop client count (multiprogramming level) of the two
    /// program-driven workloads.
    pub fn mpl(self) -> usize {
        match self {
            WorkloadId::LiveSpread => 32,
            _ => 16,
        }
    }

    /// Site protocols of the two program-driven workloads.
    pub fn protocols(self) -> Vec<LocalProtocolKind> {
        match self {
            WorkloadId::LiveSpread => vec![LocalProtocolKind::TwoPhaseLocking; 4],
            _ => vec![
                LocalProtocolKind::TwoPhaseLocking,
                LocalProtocolKind::TimestampOrdering,
                LocalProtocolKind::SerializationGraphTesting,
                LocalProtocolKind::Optimistic,
            ],
        }
    }

    /// True for the workloads driven by transaction programs (the other
    /// two replay QUEUE insertion scripts straight into GTM2).
    pub fn uses_programs(self) -> bool {
        matches!(self, WorkloadId::LiveSpread | WorkloadId::DesContended)
    }
}

/// How much of a workload one run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Rounds; each takes one sample per scheme on the same inputs.
    pub rounds: usize,
    /// Global transactions per sample.
    pub txns: usize,
}

impl Plan {
    /// The plan for a run asked to measure for `seconds`: the 20-second
    /// round count scaled linearly, never fewer than 3 rounds.
    pub fn for_seconds(id: WorkloadId, seconds: u64) -> Plan {
        let rounds = (id.base_rounds() as u64 * seconds).div_ceil(20) as usize;
        Plan {
            rounds: rounds.max(3),
            txns: id.base_txns(),
        }
    }

    /// `--quick`: 2 rounds at a tenth of the size, for smoke checks.
    pub fn quick(id: WorkloadId) -> Plan {
        Plan {
            rounds: 2,
            txns: id.base_txns() / 10,
        }
    }
}

/// Item range of `live_spread`. Storage is sparse, so the range costs
/// nothing; it is this wide so that two concurrent transactions never meet
/// on an item. At 100 000 items about 3 in 200 000 transactions met,
/// deadlocked across GTM2 and a site lock, and were aborted by the
/// runtime's 200 ms block timeout: failed operations, and a batch time
/// quantised to multiples of 200 ms.
const LIVE_ITEMS_PER_SITE: u64 = 1 << 40;

/// The input seed of round `r` of `id` under benchmark seed `seed`.
pub fn round_seed(seed: u64, id: WorkloadId, r: usize) -> u64 {
    splitmix64(splitmix64(seed ^ ((id as u64) << 56)).wrapping_add(r as u64))
}

/// Transaction programs for one round of a program-driven workload.
pub fn programs(id: WorkloadId, txns: usize, seed: u64) -> Workload {
    let spec = match id {
        WorkloadId::LiveSpread => WorkloadSpec {
            sites: 4,
            global_txns: txns,
            avg_sites_per_txn: 2.0,
            ops_per_subtxn: 2,
            read_ratio: 0.5,
            items_per_site: LIVE_ITEMS_PER_SITE,
            distribution: AccessDistribution::Uniform,
            local_txns_per_site: 0,
            ops_per_local_txn: 0,
            seed,
        },
        _ => WorkloadSpec {
            sites: 4,
            global_txns: txns,
            avg_sites_per_txn: 2.0,
            ops_per_subtxn: 2,
            read_ratio: 0.5,
            items_per_site: 1024,
            distribution: AccessDistribution::Hotspot {
                hot_frac: 0.05,
                hot_prob: 0.8,
            },
            local_txns_per_site: txns / 8,
            ops_per_local_txn: 3,
            seed,
        },
    };
    Workload::generate(&spec)
}

/// QUEUE insertion script for one round of a replay workload.
pub fn script(id: WorkloadId, txns: usize, seed: u64) -> Script {
    match id {
        WorkloadId::SchedStream => windowed_script(txns, 10, 2.5, STREAM_WINDOW, seed),
        _ => Script::random(txns, 10, 2.5, seed),
    }
}

/// Transactions `sched_stream` keeps open on the script side.
pub const STREAM_WINDOW: usize = 64;

/// A tiny deterministic generator (splitmix64 stream) for the windowed
/// script, so the package needs no random-number dependency of its own.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// sizes used here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A valid script of `n` transactions over `m` sites, mean degree `dav`,
/// emitted through a sliding window: at most `window` transactions have
/// been announced (`init`) without all their `ser` events emitted. The
/// live graph stays small while the history grows long — the opposite
/// shape to [`Script::random`], where nearly all `n` are open at once.
pub fn windowed_script(n: usize, m: usize, dav: f64, window: usize, seed: u64) -> Script {
    let mut rng = SplitMix(seed);
    let mut open: Vec<(GlobalTxnId, Vec<SiteId>)> = Vec::with_capacity(window);
    let mut events = Vec::new();
    let mut admitted = 0usize;
    loop {
        while open.len() < window && admitted < n {
            admitted += 1;
            let txn = GlobalTxnId(admitted as u64);
            let frac = dav - dav.floor();
            let extra = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            let degree = (dav.floor() as usize + usize::from(extra < frac)).clamp(1, m);
            // Partial Fisher–Yates: the first `degree` entries are a
            // uniform sample of the sites.
            let mut sites: Vec<SiteId> = (0..m as u32).map(SiteId).collect();
            for i in 0..degree {
                let j = i + rng.below(m - i);
                sites.swap(i, j);
            }
            sites.truncate(degree);
            sites.sort_unstable();
            events.push(ScriptEvent::Init(txn, sites.clone()));
            open.push((txn, sites));
        }
        if open.is_empty() {
            break;
        }
        let idx = rng.below(open.len());
        let (txn, sites) = &mut open[idx];
        let site = sites.swap_remove(rng.below(sites.len()));
        events.push(ScriptEvent::Ser(*txn, site));
        if sites.is_empty() {
            open.swap_remove(idx);
        }
    }
    Script { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn windowed_script_validates_and_respects_window() {
        for seed in 0..8u64 {
            let script = windowed_script(500, 10, 2.5, STREAM_WINDOW, seed);
            assert_eq!(script.validate(), Ok(()));
            assert_eq!(script.txn_count(), 500);
            let mut left: BTreeMap<GlobalTxnId, usize> = BTreeMap::new();
            let mut peak = 0usize;
            for ev in &script.events {
                match ev {
                    ScriptEvent::Init(txn, sites) => {
                        left.insert(*txn, sites.len());
                    }
                    ScriptEvent::Ser(txn, _) => {
                        let n = left.get_mut(txn).expect("validated: init precedes ser");
                        *n -= 1;
                        if *n == 0 {
                            left.remove(txn);
                        }
                    }
                }
                peak = peak.max(left.len());
                assert!(
                    left.len() <= STREAM_WINDOW,
                    "seed {seed}: {} open",
                    left.len()
                );
            }
            assert_eq!(peak, STREAM_WINDOW, "the window fills");
            let dav = script.ser_count() as f64 / 500.0;
            assert!((2.3..2.7).contains(&dav), "seed {seed}: measured dav {dav}");
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_rounds() {
        let a = round_seed(7, WorkloadId::SchedBurst, 3);
        assert_eq!(a, round_seed(7, WorkloadId::SchedBurst, 3));
        assert_ne!(a, round_seed(7, WorkloadId::SchedBurst, 4));
        assert_ne!(a, round_seed(7, WorkloadId::SchedStream, 3));
        assert_ne!(a, round_seed(8, WorkloadId::SchedBurst, 3));
        let s = script(WorkloadId::SchedStream, 200, a);
        assert_eq!(s, script(WorkloadId::SchedStream, 200, a));
        let p = programs(WorkloadId::DesContended, 80, a);
        assert_eq!(p.globals, programs(WorkloadId::DesContended, 80, a).globals);
        assert_eq!(p.locals.len(), 4 * 10);
    }

    #[test]
    fn plans_scale_with_seconds_and_quick_is_small() {
        let full = Plan::for_seconds(WorkloadId::LiveSpread, 20);
        assert_eq!((full.rounds, full.txns), (40, 1000));
        assert_eq!(Plan::for_seconds(WorkloadId::LiveSpread, 10).rounds, 20);
        assert_eq!(Plan::for_seconds(WorkloadId::DesContended, 1).rounds, 3);
        assert_eq!(Plan::for_seconds(WorkloadId::SchedBurst, 20).rounds, 18);
        let quick = Plan::quick(WorkloadId::SchedStream);
        assert_eq!((quick.rounds, quick.txns), (2, 1000));
    }
}
