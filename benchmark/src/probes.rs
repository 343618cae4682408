//! Probes: direct timing loops on one layer's public API.

use crate::stats::{self, Calib};
use mdbs_common::ids::{DataItemId, LocalTxnId, SiteId, TxnId};
use mdbs_common::pool::{Mailbox, Poll, Pool};
use mdbs_core::parallel::replay_parallel;
use mdbs_core::replay::{replay_kernel, replay_sharded_kernel, Script};
use mdbs_core::scheme::{KernelKind, SchemeKind};
use mdbs_localdb::engine::LocalDbms;
use mdbs_localdb::protocol::LocalProtocolKind;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Local transactions per probe repetition.
const PROBE_TXNS: u64 = 2_000;

/// Normalised microseconds per data operation for non-conflicting 4-op
/// local transactions (read, write, read, write on private items, with
/// begin and commit folded in) against one fresh `LocalDbms`. `Err` if
/// the engine blocks or refuses an operation that cannot conflict.
pub fn localdb_us_per_op(kind: LocalProtocolKind, calib: &mut Calib) -> Result<f64, String> {
    let site = SiteId(0);
    let (norm_s, outcome) = calib.timed(
        stats::MIN_SAMPLE,
        || LocalDbms::new(site, kind),
        |mut db| -> Result<(), String> {
            for seq in 1..=PROBE_TXNS {
                let txn: TxnId = LocalTxnId { site, seq }.into();
                let item = |j: u64| DataItemId(seq * 4 + j);
                db.begin(txn).map_err(|e| e.to_string())?;
                for j in 0..4 {
                    let r = if j % 2 == 0 {
                        db.submit_read(txn, item(j))
                    } else {
                        db.submit_write(txn, item(j), seq as i64)
                    };
                    r.map_err(|e| e.to_string())?;
                }
                db.submit_commit(txn).map_err(|e| e.to_string())?;
            }
            if db.stats().commits != PROBE_TXNS || db.stats().blocked != 0 {
                return Err(format!("{}: conflict-free probe conflicted", kind.name()));
            }
            Ok(())
        },
    );
    outcome?;
    Ok(norm_s * 1e6 / (PROBE_TXNS * 4) as f64)
}

/// Round-trip latencies of two pool tasks ping-ponging through their
/// mailboxes: `(p50, p99)` in normalised microseconds over `trips` round
/// trips. Each trip is two `Mailbox::send` wakes and two task polls.
pub fn pool_wake_roundtrip(trips: usize) -> Result<(f64, f64), String> {
    let spin_ms = stats::calibration_spin_ms();
    let pool = Pool::new(2);
    // `None` tells the echo task to retire.
    let to_ping: Arc<Mailbox<Instant>> = Arc::new(Mailbox::new());
    let to_echo: Arc<Mailbox<Option<Instant>>> = Arc::new(Mailbox::new());
    let result: Arc<Mutex<Option<Vec<f64>>>> = Arc::new(Mutex::new(None));

    let echo = {
        let (inbox, reply) = (Arc::clone(&to_echo), Arc::clone(&to_ping));
        pool.spawn(move || {
            while let Some(msg) = inbox.pop() {
                match msg {
                    Some(sent) => reply.send(sent),
                    None => return Poll::Done,
                }
            }
            Poll::Pending
        })
    };
    let ping = {
        let (inbox, out, slot) = (
            Arc::clone(&to_ping),
            Arc::clone(&to_echo),
            Arc::clone(&result),
        );
        let mut samples: Vec<f64> = Vec::with_capacity(trips);
        let mut started = false;
        pool.spawn(move || {
            if !started {
                started = true;
                out.send(Some(Instant::now()));
            }
            while let Some(sent) = inbox.pop() {
                samples.push(sent.elapsed().as_secs_f64());
                if samples.len() < trips {
                    out.send(Some(Instant::now()));
                } else {
                    out.send(None);
                    if let Ok(mut guard) = slot.lock() {
                        *guard = Some(std::mem::take(&mut samples));
                    }
                    return Poll::Done;
                }
            }
            Poll::Pending
        })
    };
    to_echo.bind(echo);
    to_ping.bind(ping.clone());
    ping.wake();
    if !pool.wait_idle(Duration::from_secs(30)) {
        return Err("pool ping-pong did not finish".into());
    }
    let samples = result
        .lock()
        .map_err(|_| "pool probe result poisoned".to_string())?
        .take()
        .ok_or("pool probe produced no samples")?;
    let sorted = stats::sorted(&samples);
    let us = |p: f64| stats::normalise(stats::percentile_sorted(&sorted, p), spin_ms) * 1e6;
    Ok((us(50.0), us(99.0)))
}

/// Seconds per replay of `script`, by the sample-repetition rule.
fn replay_seconds(
    mut replay: impl FnMut(&Script) -> usize,
    script: &Script,
) -> Result<f64, String> {
    let (wall, _, completed) = stats::sample(stats::MIN_SAMPLE, || (), |()| replay(script));
    if completed != script.txn_count() {
        return Err(format!(
            "replay completed {completed} of {}",
            script.txn_count()
        ));
    }
    Ok(wall)
}

/// `(sharded ÷ single, single ÷ parallel)` wall-time ratios of `scheme` on
/// `script`: the sharded engine at one shard per site, the parallel engine
/// at `available_parallelism` workers, both against the single engine.
pub fn engine_ratios(
    scheme: SchemeKind,
    script: &Script,
    sites: usize,
) -> Result<(f64, f64), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let single = replay_seconds(
        |s| replay_kernel(scheme, KernelKind::Dense, s).completed,
        script,
    )?;
    let sharded = replay_seconds(
        |s| replay_sharded_kernel(scheme, KernelKind::Dense, sites, s).completed,
        script,
    )?;
    let parallel = replay_seconds(|s| replay_parallel(scheme, workers, s).completed, script)?;
    Ok((sharded / single, single / parallel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_finite_numbers() {
        let mut calib = Calib::start();
        for kind in LocalProtocolKind::ALL {
            let us = localdb_us_per_op(kind, &mut calib).expect("conflict-free probe");
            assert!(us.is_finite() && us > 0.0, "{}: {us}", kind.name());
        }
        let (p50, p99) = pool_wake_roundtrip(200).expect("ping-pong finishes");
        assert!(p50 > 0.0 && p99 >= p50);
        let script = Script::random(60, 4, 2.0, 1);
        let (overhead, speedup) = engine_ratios(SchemeKind::Scheme0, &script, 4).expect("replays");
        assert!(overhead > 0.0 && speedup > 0.0);
    }
}
