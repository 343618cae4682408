//! The traced run of the replay workloads: the benchmark's own copy of the
//! replay drain loop (`mdbs_core::replay::run_script`), with one span per
//! `Gtm2::pump` tagged with the kind of operation that caused it.

use crate::inline::pump_span;
use crate::span::{Span, Tracer};
use mdbs_common::ids::GlobalTxnId;
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::replay::{Script, ScriptEvent};
use mdbs_core::scheme::{KernelKind, SchemeEffect, SchemeKind};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Outcome of one traced (or span-less) replay.
#[derive(Clone, Debug)]
pub struct ReplayTrace {
    /// Transactions whose `fin` was processed.
    pub completed: u64,
    /// Protocol violations plus scheme aborts (conservative schemes must
    /// produce neither).
    pub protocol_violations: u64,
    /// Operations left in QUEUE or WAIT at the end (must be 0).
    pub leftover: u64,
    /// `ser(S)` was serializable.
    pub ser_s_ok: bool,
    /// Wall seconds including the ser-log check.
    pub wall_s: f64,
    /// GTM2 counters.
    pub gtm2: Gtm2Stats,
    /// GTM2 abstract step counts.
    pub steps: StepCounter,
    /// Wake candidates examined.
    pub wake_scanned: u64,
    /// Recorded spans (empty with recording off).
    pub spans: Vec<Span>,
}

/// Replay `script` through `scheme` on the dense kernel with zero-latency
/// acks and automatic fins, exactly as `replay_kernel` does.
pub fn replay_traced(scheme: SchemeKind, script: &Script, record_spans: bool) -> ReplayTrace {
    let mut engine = Gtm2::new(scheme.build_kernel(KernelKind::Dense));
    let mut tr = Tracer::new(record_spans);
    let mut acks_needed: BTreeMap<GlobalTxnId, usize> = BTreeMap::new();
    let mut fin_sent: BTreeSet<GlobalTxnId> = BTreeSet::new();
    let mut violations = 0u64;
    let started = Instant::now();
    let root = tr.enter("run", 0);
    for ev in &script.events {
        // The operation that makes the next pump necessary.
        let mut cause = match ev {
            ScriptEvent::Init(txn, sites) => {
                acks_needed.insert(*txn, sites.len());
                engine.enqueue(QueueOp::Init {
                    txn: *txn,
                    sites: sites.clone(),
                });
                (QueueOpKind::Init, *txn)
            }
            ScriptEvent::Ser(txn, site) => {
                engine.enqueue(QueueOp::Ser {
                    txn: *txn,
                    site: *site,
                });
                (QueueOpKind::Ser, *txn)
            }
        };
        loop {
            let s = tr.enter(pump_span(cause.0), cause.1 .0);
            let effects = engine.pump();
            tr.exit(s);
            if effects.is_empty() {
                break;
            }
            let mut next_cause = None;
            for fx in effects {
                let op = match fx {
                    SchemeEffect::SubmitSer { txn, site } => QueueOp::Ack { txn, site },
                    SchemeEffect::ForwardAck { txn, .. } => {
                        let Some(left) = acks_needed.get_mut(&txn) else {
                            continue;
                        };
                        *left = left.saturating_sub(1);
                        if *left > 0 || !fin_sent.insert(txn) {
                            continue;
                        }
                        QueueOp::Fin { txn }
                    }
                    SchemeEffect::AbortGlobal { .. } | SchemeEffect::ProtocolViolation { .. } => {
                        violations += 1;
                        continue;
                    }
                };
                next_cause.get_or_insert((op.kind(), op.txn()));
                engine.enqueue(op);
            }
            // Effects that enqueue nothing still need one more pump to
            // observe quiescence, as the original loop does.
            cause = next_cause.unwrap_or(cause);
        }
    }
    let s = tr.enter("schedule.ser_log_check", 0);
    let ser_s_ok = engine.ser_log().check().is_ok();
    tr.exit(s);
    tr.exit(root);
    let wall_s = started.elapsed().as_secs_f64();
    let gtm2 = engine.stats();
    ReplayTrace {
        completed: gtm2.fins,
        protocol_violations: violations + gtm2.protocol_violations,
        leftover: (engine.wait_len() + engine.queue_len()) as u64,
        ser_s_ok,
        wall_s,
        gtm2,
        steps: engine.steps(),
        wake_scanned: engine.wake_scan_histogram().sum(),
        spans: tr.into_spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{script, WorkloadId};
    use crate::measure::SCHEMES;
    use mdbs_core::replay::replay_kernel;

    /// The copy must stay the original: same counters, same steps.
    #[test]
    fn traced_replay_matches_the_library_loop() {
        for id in [WorkloadId::SchedBurst, WorkloadId::SchedStream] {
            let sc = script(id, 120, 3);
            for scheme in SCHEMES {
                let ours = replay_traced(scheme, &sc, true);
                let theirs = replay_kernel(scheme, KernelKind::Dense, &sc);
                assert_eq!(ours.completed, theirs.completed as u64);
                assert_eq!(ours.gtm2, theirs.stats, "{} {scheme}", id.name());
                assert_eq!(ours.steps, theirs.steps, "{} {scheme}", id.name());
                assert_eq!(ours.wake_scanned, theirs.wake_scan_sum);
                assert_eq!((ours.leftover, ours.protocol_violations), (0, 0));
                assert!(ours.ser_s_ok);
                assert!(ours.spans.iter().any(|s| s.name == "gtm2.ack"));
                assert!(ours
                    .spans
                    .iter()
                    .all(|s| s.layer() != "gtm1" && s.layer() != "localdb"));
            }
        }
    }
}
