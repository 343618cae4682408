//! The untraced measurement: rounds, samples, output checks.
//!
//! A workload is a fixed number of rounds. Each round generates its inputs
//! (timed into `setup_s`), takes one calibration spin, then takes one
//! sample per scheme on the *same* inputs, rotating the scheme order so
//! no scheme always runs on a warm or a cold machine. Every sample's
//! outputs are checked; any failed audit, completion count or protocol
//! check fails the run.

use crate::inputs::{self, Plan, WorkloadId};
use crate::report::WorkloadResult;
use crate::stats::{self, Calib};
use mdbs_core::replay::{replay_kernel, Script};
use mdbs_core::scheme::{KernelKind, SchemeKind};
use mdbs_sim::system::{MdbsSystem, RunReport, SystemConfig};
use mdbs_sim::threaded::{ThreadedMdbs, ThreadedRunReport};
use mdbs_workload::generator::Workload;
use std::collections::BTreeMap;
use std::time::Duration;

/// The four conservative schemes; every sample set covers all of them.
pub const SCHEMES: [SchemeKind; 4] = SchemeKind::CONSERVATIVE;

/// Input generation shorter than this repeats, like a sample does.
const MIN_SETUP: Duration = Duration::from_millis(20);

/// Retry budget of the simulator workload. Large enough that no logical
/// transaction is abandoned under the hotspot contention (so no operation
/// fails), small enough that a livelock would still surface as failures.
const DES_MAX_RETRIES: u32 = 40;

/// One round's inputs.
#[derive(Clone)]
pub enum Inputs {
    /// Global programs plus background local transactions.
    Programs(Workload),
    /// A QUEUE insertion order.
    Script(Script),
}

impl Inputs {
    /// Generate the inputs of one round.
    pub fn generate(id: WorkloadId, txns: usize, seed: u64) -> Inputs {
        if id.uses_programs() {
            Inputs::Programs(inputs::programs(id, txns, seed))
        } else {
            Inputs::Script(inputs::script(id, txns, seed))
        }
    }

    /// Global transactions in these inputs.
    pub fn txns(&self) -> usize {
        match self {
            Inputs::Programs(w) => w.globals.len(),
            Inputs::Script(s) => s.txn_count(),
        }
    }
}

/// What one run of the program reported, reduced to what the benchmark
/// needs. Counts are whole numbers kept as `f64` only in `report`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Observation {
    /// Logical global transactions submitted.
    pub attempted: u64,
    /// Of those, committed when the run returned.
    pub committed: u64,
    /// Transaction attempts including retries.
    pub attempts: u64,
    /// Attempts that aborted.
    pub aborted_attempts: u64,
    /// Why the run's outputs are wrong, if they are.
    pub failure: Option<String>,
    /// Counters read from the run's own report, by benchmark-local name.
    pub report: Vec<(&'static str, f64)>,
}

impl Observation {
    /// Transactions not committed when the run returned.
    pub fn failed(&self) -> u64 {
        self.attempted - self.committed
    }

    /// A named report value (0 when the run does not report it).
    pub fn value(&self, name: &str) -> f64 {
        self.report
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Facts about a finished run that decide whether its outputs are correct.
/// Split out so a test can feed it a failing report.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Transactions submitted.
    pub expected: u64,
    /// Transactions accounted for (committed + aborted/failed).
    pub finished: u64,
    /// Global serializability audit over the site histories passed.
    pub serializable: bool,
    /// `ser(S)` as recorded by GTM2 was serializable.
    pub ser_s_ok: bool,
    /// Protocol violations counted by GTM1 and GTM2.
    pub protocol_violations: u64,
    /// Messages dropped by the threaded runtime.
    pub send_dropped: u64,
}

impl Verdict {
    /// `None` when every check passes, else the first failure in words.
    pub fn failure(&self) -> Option<String> {
        if self.finished != self.expected {
            return Some(format!(
                "{} of {} transactions finished",
                self.finished, self.expected
            ));
        }
        if !self.serializable {
            return Some("global serializability audit failed".into());
        }
        if !self.ser_s_ok {
            return Some("ser(S) is not serializable".into());
        }
        if self.protocol_violations > 0 {
            return Some(format!("{} protocol violations", self.protocol_violations));
        }
        if self.send_dropped > 0 {
            return Some(format!("{} messages dropped", self.send_dropped));
        }
        None
    }
}

/// Run `inputs` once through `scheme` on the workload's driver.
pub fn run_once(id: WorkloadId, scheme: SchemeKind, inputs: Inputs, seed: u64) -> Observation {
    match (id, inputs) {
        (WorkloadId::LiveSpread, Inputs::Programs(w)) => {
            let n = w.globals.len() as u64;
            let runtime = ThreadedMdbs::new(id.protocols(), scheme, id.mpl());
            observe_live(n, &runtime.run(w.globals))
        }
        (WorkloadId::DesContended, Inputs::Programs(w)) => {
            let n = w.globals.len() as u64;
            let mut builder = SystemConfig::builder()
                .scheme(scheme)
                .seed(seed)
                .mpl(id.mpl())
                .max_retries(DES_MAX_RETRIES);
            for p in id.protocols() {
                builder = builder.site(p);
            }
            observe_des(n, &MdbsSystem::new(builder.build()).run(w))
        }
        (_, Inputs::Script(script)) => {
            let n = script.txn_count() as u64;
            let out = replay_kernel(scheme, KernelKind::Dense, &script);
            let verdict = Verdict {
                expected: n,
                finished: out.completed as u64 + out.aborted.len() as u64,
                serializable: true,
                ser_s_ok: out.ser_serializable,
                protocol_violations: out.protocol_violations,
                send_dropped: 0,
            };
            Observation {
                attempted: n,
                committed: out.completed as u64,
                attempts: n,
                aborted_attempts: out.aborted.len() as u64,
                failure: verdict.failure(),
                report: Vec::new(),
            }
        }
        (_, Inputs::Programs(_)) => Observation {
            failure: Some(format!("{} does not run programs", id.name())),
            ..Observation::default()
        },
    }
}

fn observe_live(n: u64, report: &ThreadedRunReport) -> Observation {
    let reg = &report.registry;
    let verdict = Verdict {
        expected: n,
        finished: report.commits + report.aborts,
        serializable: report.is_serializable(),
        ser_s_ok: report.ser_s_ok,
        protocol_violations: reg.counter("gtm1.protocol_violations")
            + reg.counter("gtm2.protocol_violations"),
        send_dropped: reg.counter("threaded.send_dropped"),
    };
    Observation {
        attempted: n,
        committed: report.commits,
        attempts: n,
        aborted_attempts: report.aborts,
        failure: verdict.failure(),
        report: vec![
            ("handoffs", reg.counter("gtm2.cross_shard_handoff") as f64),
            (
                "lock_contended",
                reg.counter("gtm2.shard_lock_contended") as f64,
            ),
            ("lock_parks", reg.counter("gtm2.shard_lock_parks") as f64),
            ("pool_parks", reg.counter("pool.park") as f64),
            ("pool_steals", reg.counter("pool.steal") as f64),
            ("pool_wakes", reg.counter("pool.wake") as f64),
            ("send_dropped", verdict.send_dropped as f64),
        ],
    }
}

fn observe_des(n: u64, report: &RunReport) -> Observation {
    let m = &report.metrics;
    let verdict = Verdict {
        expected: n,
        finished: m.global_commits + m.global_failures,
        serializable: report.is_serializable(),
        ser_s_ok: report.ser_s_ok,
        protocol_violations: report.gtm1.protocol_violations + report.gtm2.protocol_violations,
        send_dropped: 0,
    };
    Observation {
        attempted: n,
        committed: m.global_commits,
        attempts: m.global_commits + m.global_aborts,
        aborted_attempts: m.global_aborts,
        failure: verdict.failure(),
        report: vec![
            ("sim_p99_us", m.global_response.percentile(99.0) as f64),
            ("sim_txn_per_s", m.throughput_per_sec()),
            ("events", m.events as f64),
            ("timeouts", m.timeouts as f64),
            ("local_aborts", m.local_aborts as f64),
            ("local_commits", m.local_commits as f64),
            ("gtm2_waits", report.gtm2.waited as f64),
        ],
    }
}

/// One scheme's sample in one round.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Normalised seconds per repetition.
    pub norm_s: f64,
    /// The last repetition's observation.
    pub obs: Observation,
}

/// One round: shared inputs, one sample per scheme.
#[derive(Clone, Debug)]
pub struct Round {
    /// Normalised seconds to generate this round's inputs once.
    pub setup_s: f64,
    /// Global transactions in the inputs.
    pub txns: usize,
    /// Samples indexed like [`SCHEMES`].
    pub samples: Vec<Sample>,
}

/// Everything an untraced run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Transactions submitted over every repetition of every sample.
    pub attempted: u64,
    /// Of those, not committed when their run returned.
    pub failed: u64,
    /// Output-check failures, each naming its round and scheme.
    pub failures: Vec<String>,
}

/// Measure `plan.rounds` rounds of `id` with tracing off.
pub fn measure(id: WorkloadId, seed: u64, plan: Plan, calib: &mut Calib) -> Measured {
    let mut out = Measured::default();
    for r in 0..plan.rounds {
        let round_seed = inputs::round_seed(seed, id, r);
        let (setup_s, inputs) = calib.timed(
            MIN_SETUP,
            || (),
            |()| Inputs::generate(id, plan.txns, round_seed),
        );
        let mut samples: Vec<Option<Sample>> = vec![None; SCHEMES.len()];
        for i in 0..SCHEMES.len() {
            let k = (r + i) % SCHEMES.len();
            let (norm_s, obs) = calib.timed(
                stats::MIN_SAMPLE,
                || inputs.clone(),
                |input| {
                    let obs = run_once(id, SCHEMES[k], input, round_seed);
                    out.attempted += obs.attempted;
                    out.failed += obs.failed();
                    if let Some(why) = &obs.failure {
                        out.failures.push(format!("round {r} scheme {k}: {why}"));
                    }
                    obs
                },
            );
            samples[k] = Some(Sample { norm_s, obs });
        }
        if r == 0 && id == WorkloadId::DesContended {
            // The simulator is seeded: the same inputs must give the same
            // simulated numbers, or every "deterministic" metric is not.
            for (k, first) in samples.iter().enumerate() {
                let again = run_once(id, SCHEMES[k], inputs.clone(), round_seed);
                if first.as_ref().map(|s| &s.obs) != Some(&again) {
                    out.failures
                        .push(format!("round 0 scheme {k}: simulation did not repeat"));
                }
            }
        }
        out.rounds.push(Round {
            setup_s,
            txns: inputs.txns(),
            samples: samples.into_iter().flatten().collect(),
        });
    }
    out
}

impl Measured {
    /// Per-round committed transactions per normalised second of scheme
    /// index `k`.
    pub fn txn_per_s(&self, k: usize) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.samples[k].obs.committed as f64 / r.samples[k].norm_s)
            .collect()
    }

    /// Per-round normalised set-up seconds.
    pub fn setup_s(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.setup_s).collect()
    }

    /// Per-round value of a report counter for scheme index `k`.
    pub fn report_values(&self, k: usize, name: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.samples[k].obs.value(name))
            .collect()
    }

    /// Sum of a report counter over every round and scheme.
    pub fn report_total(&self, name: &str) -> f64 {
        (0..SCHEMES.len())
            .flat_map(|k| self.report_values(k, name))
            .sum()
    }

    /// Transactions over every round and scheme (one repetition each).
    pub fn sampled_txns(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| (r.txns * r.samples.len()) as f64)
            .sum()
    }

    /// Aborted attempts ÷ attempts, pooled over rounds and schemes.
    pub fn abort_share(&self) -> f64 {
        let (mut aborted, mut attempts) = (0u64, 0u64);
        for s in self.rounds.iter().flat_map(|r| &r.samples) {
            aborted += s.obs.aborted_attempts;
            attempts += s.obs.attempts;
        }
        if attempts == 0 {
            return 0.0;
        }
        aborted as f64 / attempts as f64
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn end_to_end(id: WorkloadId, seed: u64, plan: Plan) -> WorkloadResult {
    let m = measure(id, seed, plan, &mut Calib::start());
    let mut result = WorkloadResult {
        workload: id.name(),
        attempted: m.attempted,
        failed: m.failed,
        failures: m.failures.clone(),
        metrics: BTreeMap::new(),
    };
    for k in 0..SCHEMES.len() {
        let per_round = m.txn_per_s(k);
        result.put(
            &format!("s{k}_txn_per_s"),
            stats::median(&per_round),
            stats::median_spread(&per_round),
        );
    }
    let setup = m.setup_s();
    result.put(
        "setup_s",
        stats::median(&setup),
        stats::median_spread(&setup),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing() -> Verdict {
        Verdict {
            expected: 10,
            finished: 10,
            serializable: true,
            ser_s_ok: true,
            protocol_violations: 0,
            send_dropped: 0,
        }
    }

    #[test]
    fn checker_rejects_each_kind_of_failing_report() {
        assert_eq!(passing().failure(), None);
        let broken = [
            Verdict {
                finished: 9,
                ..passing()
            },
            Verdict {
                serializable: false,
                ..passing()
            },
            Verdict {
                ser_s_ok: false,
                ..passing()
            },
            Verdict {
                protocol_violations: 1,
                ..passing()
            },
            Verdict {
                send_dropped: 2,
                ..passing()
            },
        ];
        for v in broken {
            assert!(v.failure().is_some(), "{v:?} must fail");
        }
    }

    #[test]
    fn quick_replay_workload_is_correct_and_counts_repeat() {
        let plan = Plan {
            rounds: 2,
            txns: 60,
        };
        let a = measure(WorkloadId::SchedStream, 5, plan, &mut Calib::start());
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.failed, 0);
        assert_eq!(a.rounds.len(), 2);
        assert!(a.attempted >= 2 * 4 * 60);
        assert_eq!(a.abort_share(), 0.0);
        for k in 0..SCHEMES.len() {
            assert!(a.txn_per_s(k).iter().all(|v| *v > 0.0));
        }
        // Rotation covers every scheme in every round.
        assert!(a.rounds.iter().all(|r| r.samples.len() == SCHEMES.len()));
    }

    #[test]
    fn simulator_workload_repeats_and_commits_everything() {
        let plan = Plan {
            rounds: 1,
            txns: 80,
        };
        let a = measure(WorkloadId::DesContended, 11, plan, &mut Calib::start());
        let b = measure(WorkloadId::DesContended, 11, plan, &mut Calib::start());
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.failed, 0);
        for k in 0..SCHEMES.len() {
            assert_eq!(a.rounds[0].samples[k].obs, b.rounds[0].samples[k].obs);
            assert!(a.report_values(k, "sim_p99_us")[0] > 0.0);
        }
    }
}
