//! A live, multi-threaded MDBS: the same GTM1/GTM2 state machines and
//! local DBMS engines as the simulator, with one **work-stealing pool
//! task** per site (not one OS thread) and the coordinator on the calling
//! thread, talking over crossbeam channels.
//!
//! Where the discrete-event simulator gives determinism (experiments), the
//! threaded runtime gives *real concurrency* — messages genuinely race,
//! blocked operations park inside site engines, and timeouts run on wall
//! clocks. Every run is still audited for global serializability at the
//! end, so the paper's guarantees are exercised under true parallelism.
//!
//! Site workers are non-blocking state machines on [`mdbs_common::pool`]:
//! each poll drains its command mailbox with `try_recv`, expires blocked
//! operations, sweeps its own GTM2 shard, and returns `Pending`. The
//! coordinator wakes a site's task after every send, and ticks all tasks
//! every 2 ms so expiry keeps running while traffic is quiet. OS threads
//! are capped at `min(sites, available_parallelism)` — many sites
//! multiplex onto few workers instead of oversubscribing the machine.
//!
//! GTM2 runs as a [`ShardedGtm2`]: each site worker feeds its `ack`s into
//! its own shard and pumps it in place (an ack never crosses the
//! coordinator channel). Cross-shard handoffs are **waker hints**: the
//! pumping worker never chases another shard's lock — it wakes the task
//! owning the target shard ([`ShardedGtm2::pump_shard`]), which
//! re-tests on its next poll. The shard count comes from
//! [`ThreadedMdbs::set_shards`], the `MDBS_SHARDS` environment variable,
//! or defaults to one shard per site.
//!
//! Scope: global transactions only (the simulator covers background local
//! load); aborted global transactions are not retried — their outcome is
//! reported as-is.

use crate::server::{Reply, Server};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, SharedSink, TracedEvent};
use mdbs_common::ops::QueueOp;
use mdbs_common::pool::{Poll, Pool, TaskHandle};
use mdbs_core::gtm1::{Gtm1, Gtm1Effect, Gtm1Event, ServerCommand};
use mdbs_core::scheme::{SchemeEffect, SchemeKind};
use mdbs_core::sharded::ShardedGtm2;
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::engine::{EngineStats, LocalDbms};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_localdb::storage::Value;
use mdbs_schedule::global::{check_global, GlobalSerializability};
use mdbs_schedule::History;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Message from coordinator to a site thread.
enum ToSite {
    Command {
        txn: GlobalTxnId,
        cmd: ServerCommand,
    },
    Shutdown,
}

/// Message from a site thread back to the coordinator. GTM2 `ack`s no
/// longer travel here — each worker feeds them straight into its own
/// shard of the sharded engine.
enum FromSite {
    Gtm1(Gtm1Event),
    /// Final state at shutdown.
    Final {
        site: SiteId,
        history: History,
        committed_values: Vec<(DataItemId, Value)>,
        stats: EngineStats,
        /// Messages this worker failed to deliver (coordinator gone).
        send_dropped: u64,
    },
}

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadedRunReport {
    /// Transactions that committed everywhere.
    pub commits: u64,
    /// Transactions that aborted (no retry in the threaded runtime).
    pub aborts: u64,
    /// Global-serializability verdict over the collected histories.
    pub audit: GlobalSerializability,
    /// Whether `ser(S)` as recorded by GTM2 was serializable.
    pub ser_s_ok: bool,
    /// Per-site sum of committed item values (ticket excluded) — lets
    /// callers check conservation invariants after a live run.
    pub storage_totals: Vec<i128>,
    /// Metrics snapshot: GTM1, GTM2 and per-site engine counters exported
    /// into one registry.
    pub registry: Registry,
    /// Structured scheduling events recorded by the GTM sinks while
    /// tracing was enabled (empty otherwise). Timestamps are 0 — the
    /// threaded runtime has no simulated clock; ordering is the record
    /// order at the coordinator.
    pub events: Vec<TracedEvent>,
}

impl ThreadedRunReport {
    /// Convenience accessor.
    pub fn is_serializable(&self) -> bool {
        self.audit.is_serializable()
    }
}

struct SiteWorker {
    site: SiteId,
    server: Server,
    /// The server's reply buffer, empty between deliveries.
    replies: Vec<Reply>,
    rx: Receiver<ToSite>,
    tx: Sender<FromSite>,
    /// The shared GTM2 engine; this worker pumps its own site's shard on
    /// the ack fast path and sweeps `owned_shards` on every poll.
    gtm2: Arc<ShardedGtm2>,
    /// Shards this task owns for sweeping and handoff wakes (shard `j`
    /// is owned by site task `j mod nsites`, so every shard has exactly
    /// one owner even when shard and site counts differ).
    owned_shards: Vec<usize>,
    /// One waker per GTM2 shard (the owning site task), populated after
    /// all tasks are spawned and before any is woken. Cross-shard handoff
    /// hints from this worker's pumps go through these instead of this
    /// worker following the handoff into a foreign shard's lock.
    shard_wakers: Arc<OnceLock<Vec<TaskHandle>>>,
    /// When each command currently blocked inside the engine blocked.
    blocked_since: BTreeMap<GlobalTxnId, Instant>,
    block_timeout: Duration,
    /// Sends that failed because the coordinator already hung up. The
    /// count travels back in [`FromSite::Final`] and surfaces as the
    /// `threaded.send_dropped` counter — a protocol message is never
    /// dropped without being accounted for.
    send_dropped: u64,
}

impl SiteWorker {
    /// Deliver a message to the coordinator, counting failures instead of
    /// ignoring them.
    fn send_counted(&mut self, msg: FromSite) {
        if self.tx.send(msg).is_err() {
            self.send_dropped += 1;
        }
    }

    /// One poll of the site task: drain the command mailbox, expire
    /// blocked operations, sweep this worker's GTM2 shard (clearing any
    /// handoff hints other shards parked in it), and suspend. Never
    /// blocks — the coordinator wakes this task after every send and on
    /// its 2 ms expiry tick.
    fn run(&mut self) -> Poll {
        loop {
            match self.rx.try_recv() {
                Ok(ToSite::Command { txn, cmd }) => {
                    self.server.execute(txn, cmd, &mut self.replies);
                    self.deliver();
                }
                Ok(ToSite::Shutdown) | Err(TryRecvError::Disconnected) => {
                    self.finish();
                    return Poll::Done;
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        self.expire_blocked();
        for j in self.owned_shards.clone() {
            self.pump(j);
        }
        Poll::Pending
    }

    /// Pump one GTM2 shard without following handoffs: forward the
    /// effects, then wake the tasks owning any shards the pump handed
    /// work to.
    fn pump(&mut self, shard: usize) {
        let (effects, hints) = self.gtm2.pump_shard(shard);
        self.forward_effects(effects);
        if let Some(wakers) = self.shard_wakers.get() {
            for j in hints {
                if let Some(w) = wakers.get(j) {
                    w.wake();
                }
            }
        }
    }

    /// Ship the final site state to the coordinator at shutdown.
    fn finish(&mut self) {
        let msg = FromSite::Final {
            site: self.site,
            history: self.server.db.history().clone(),
            committed_values: self.server.db.storage().iter().collect(),
            stats: self.server.db.stats(),
            send_dropped: self.send_dropped,
        };
        self.send_counted(msg);
    }

    fn expire_blocked(&mut self) {
        let now = Instant::now();
        let expired: Vec<GlobalTxnId> = self
            .blocked_since
            .iter()
            .filter(|(_, since)| now.duration_since(**since) > self.block_timeout)
            .map(|(&t, _)| t)
            .collect();
        for txn in expired {
            let _ = self.server.db.request_abort(txn.into());
        }
        self.server.drain(&mut self.replies);
        self.deliver();
    }

    /// Send the server's replies on their way: GTM1 events over the
    /// channel, acks into this worker's GTM2 shard, blocked steps onto the
    /// expiry clock.
    fn deliver(&mut self) {
        let mut replies = std::mem::take(&mut self.replies);
        for reply in replies.drain(..) {
            match reply {
                Reply::Gtm1(event) => self.send_counted(FromSite::Gtm1(event)),
                Reply::Ack(txn) => self.send_ack(txn),
                Reply::Blocked(txn) => {
                    self.blocked_since.insert(txn, Instant::now());
                }
                Reply::Unblocked(txn) => {
                    self.blocked_since.remove(&txn);
                }
                // This runtime runs no local transactions.
                Reply::LocalCompletion(..) => {}
            }
        }
        self.replies = replies;
    }

    /// Feed `ack(ser_site(txn))` straight into this worker's GTM2 shard
    /// and pump it in place; whatever the pump produces (submits for any
    /// site, forwarded acks) goes to the coordinator as GTM1 events.
    fn send_ack(&mut self, txn: GlobalTxnId) {
        let shard = self.gtm2.enqueue(QueueOp::Ack {
            txn,
            site: self.site,
        });
        self.pump(shard);
    }

    fn forward_effects(&mut self, effects: Vec<SchemeEffect>) {
        for fx in effects {
            self.send_counted(FromSite::Gtm1(gtm2_effect_event(fx)));
        }
    }
}

/// Convert a GTM2 effect into the GTM1 event that carries it onward.
fn gtm2_effect_event(fx: SchemeEffect) -> Gtm1Event {
    match fx {
        SchemeEffect::SubmitSer { txn, site } => Gtm1Event::Gtm2SubmitSer { txn, site },
        SchemeEffect::ForwardAck { txn, site } => Gtm1Event::Gtm2Ack { txn, site },
        SchemeEffect::AbortGlobal { .. } => {
            unreachable!("conservative schemes only")
        }
        SchemeEffect::ProtocolViolation { txn, site, kind } => {
            unreachable!("gtm2 protocol violation: {kind} ({txn}, {site:?})")
        }
    }
}

/// The threaded MDBS runtime.
///
/// ```
/// use mdbs_sim::threaded::ThreadedMdbs;
/// use mdbs_core::scheme::SchemeKind;
/// use mdbs_localdb::protocol::LocalProtocolKind;
/// use mdbs_workload::generator::Workload;
///
/// let programs = Workload::uniform_smoke(2, 6).globals;
/// let runtime = ThreadedMdbs::new(
///     vec![LocalProtocolKind::TwoPhaseLocking; 2],
///     SchemeKind::Scheme3,
///     3,
/// );
/// let report = runtime.run(programs);
/// assert!(report.is_serializable());
/// ```
pub struct ThreadedMdbs {
    protocols: Vec<LocalProtocolKind>,
    scheme: SchemeKind,
    mpl: usize,
    block_timeout: Duration,
    trace: bool,
    shards: Option<usize>,
}

impl ThreadedMdbs {
    /// Configure a runtime.
    pub fn new(protocols: Vec<LocalProtocolKind>, scheme: SchemeKind, mpl: usize) -> Self {
        ThreadedMdbs {
            protocols,
            scheme,
            mpl,
            block_timeout: Duration::from_millis(200),
            trace: false,
            shards: None,
        }
    }

    /// Record structured GTM scheduling events during runs; they come back
    /// in [`ThreadedRunReport::events`].
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// Override the number of GTM2 pump shards. Defaults (in order) to
    /// this override, the `MDBS_SHARDS` environment variable (a run panics
    /// if it is set to anything but an integer ≥ 1), then one shard per
    /// site.
    pub fn set_shards(&mut self, n: usize) {
        self.shards = Some(n.max(1));
    }

    fn shard_count(&self) -> usize {
        if let Some(n) = self.shards {
            return n;
        }
        if let Some(raw) = std::env::var_os("MDBS_SHARDS") {
            let raw = raw.to_string_lossy();
            return parse_shards(&raw)
                .unwrap_or_else(|| panic!("MDBS_SHARDS must be an integer >= 1, got {raw:?}"));
        }
        self.protocols.len().max(1)
    }

    /// Run the programs to completion on live threads and audit.
    pub fn run(&self, programs: Vec<GlobalTransaction>) -> ThreadedRunReport {
        let site_events: BTreeMap<SiteId, SerializationEvent> = self
            .protocols
            .iter()
            .enumerate()
            .map(|(i, &p)| (SiteId(i as u32), SerializationEvent::for_protocol(p)))
            .collect();
        let mut gtm1 = Gtm1::new(site_events);
        let nshards = self.shard_count();
        let mut sharded = ShardedGtm2::new(self.scheme, nshards);
        let sched_sink = if self.trace {
            let sink = SharedSink::new();
            gtm1.set_sink(Some(Box::new(sink.clone())));
            sharded.set_sink(Some(Box::new(sink.clone())));
            Some(sink)
        } else {
            None
        };
        let gtm2 = Arc::new(sharded);

        let (to_coord, from_sites) = bounded::<FromSite>(1024);
        let nsites = self.protocols.len().max(1);
        // Task-per-site on a bounded worker pool: many sites multiplex
        // onto at most `available_parallelism` OS threads.
        let pool_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(nsites);
        let pool = Pool::new(pool_workers);
        let shard_wakers: Arc<OnceLock<Vec<TaskHandle>>> = Arc::new(OnceLock::new());
        let mut site_txs: Vec<Sender<ToSite>> = Vec::new();
        let mut handles: Vec<TaskHandle> = Vec::new();
        for (i, &protocol) in self.protocols.iter().enumerate() {
            let (tx, rx) = bounded::<ToSite>(1024);
            site_txs.push(tx);
            let mut worker = SiteWorker {
                site: SiteId(i as u32),
                server: Server::new(LocalDbms::new(SiteId(i as u32), protocol)),
                replies: Vec::new(),
                rx,
                tx: to_coord.clone(),
                gtm2: Arc::clone(&gtm2),
                owned_shards: (0..nshards).filter(|j| j % nsites == i).collect(),
                shard_wakers: Arc::clone(&shard_wakers),
                blocked_since: BTreeMap::new(),
                block_timeout: self.block_timeout,
                send_dropped: 0,
            };
            handles.push(pool.spawn(move || worker.run()));
        }
        drop(to_coord);
        // Publish the shard → owning-task map before any task runs, then
        // start them all (spawn does not schedule; the first wake does).
        let _ = shard_wakers.set(
            (0..nshards)
                .map(|j| handles[j % nsites].clone())
                .collect::<Vec<_>>(),
        );
        for h in &handles {
            h.wake();
        }

        let total = programs.len();
        let mut queue: VecDeque<GlobalTransaction> = programs.into();
        let mut commits = 0u64;
        let mut aborts = 0u64;
        let mut done = 0usize;
        let mut send_dropped = 0u64;

        // Closed-loop admission up to mpl.
        let mut pending_events: VecDeque<Gtm1Event> = VecDeque::new();
        for _ in 0..self.mpl.min(queue.len()) {
            pending_events.push_back(Gtm1Event::Submit(queue.pop_front().expect("nonempty")));
        }

        let mut last_progress = Instant::now();
        while done < total {
            // Process whatever GTM work is pending.
            while let Some(ev) = pending_events.pop_front() {
                for fx in gtm1.handle(ev) {
                    match fx {
                        Gtm1Effect::EnqueueGtm2(op) => {
                            let shard = gtm2.enqueue(op);
                            let (effects, hints) = gtm2.pump_shard(shard);
                            for fx in effects {
                                pending_events.push_back(gtm2_effect_event(fx));
                            }
                            if let Some(wakers) = shard_wakers.get() {
                                for j in hints {
                                    if let Some(w) = wakers.get(j) {
                                        w.wake();
                                    }
                                }
                            }
                        }
                        Gtm1Effect::Server { txn, site, cmd } => {
                            // A dead site thread is tolerated (timeouts
                            // abort its transactions) but never silent.
                            if site_txs[site.index()]
                                .send(ToSite::Command { txn, cmd })
                                .is_err()
                            {
                                send_dropped += 1;
                            } else if let Some(h) = handles.get(site.index()) {
                                h.wake();
                            }
                        }
                        Gtm1Effect::Completed { aborted, .. } => {
                            done += 1;
                            match aborted {
                                None => commits += 1,
                                Some(_) => aborts += 1,
                            }
                            if let Some(next) = queue.pop_front() {
                                pending_events.push_back(Gtm1Event::Submit(next));
                            }
                        }
                    }
                }
            }
            if done >= total {
                break;
            }
            // Wait for site replies, ticking all site tasks every 2 ms so
            // block-timeout expiry keeps running while traffic is quiet.
            match from_sites.recv_timeout(Duration::from_millis(2)) {
                Ok(FromSite::Gtm1(event)) => {
                    pending_events.push_back(event);
                    last_progress = Instant::now();
                }
                Ok(FromSite::Final { .. }) => {}
                Err(RecvTimeoutError::Timeout) => {
                    for h in &handles {
                        h.wake();
                    }
                    assert!(
                        last_progress.elapsed() < Duration::from_secs(10),
                        "threaded MDBS wedged: {done}/{total} complete"
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("threaded MDBS wedged (sites gone): {done}/{total} complete")
                }
            }
        }

        // Shut down sites and collect histories.
        for (tx, h) in site_txs.iter().zip(&handles) {
            if tx.send(ToSite::Shutdown).is_err() {
                send_dropped += 1;
            }
            h.wake();
        }
        let mut histories: BTreeMap<SiteId, History> = BTreeMap::new();
        let mut totals: BTreeMap<SiteId, i128> = BTreeMap::new();
        let mut registry = Registry::default();
        while histories.len() < self.protocols.len() {
            match from_sites.recv_timeout(Duration::from_secs(10)) {
                Ok(FromSite::Final {
                    site,
                    history,
                    committed_values,
                    stats,
                    send_dropped: site_dropped,
                }) => {
                    send_dropped += site_dropped;
                    let total = committed_values
                        .iter()
                        .filter(|(item, _)| *item != DataItemId::TICKET)
                        .map(|(_, v)| i128::from(*v))
                        .sum();
                    totals.insert(site, total);
                    histories.insert(site, history);
                    stats.export_metrics(site, &mut registry);
                }
                Ok(_) => {} // stragglers from already-completed txns
                Err(_) => panic!("site threads did not shut down"),
            }
        }
        assert!(
            pool.wait_idle(Duration::from_secs(10)),
            "site tasks did not reach Done"
        );
        gtm1.export_metrics(&mut registry);
        gtm2.export_metrics(&mut registry);
        pool.export_metrics(&mut registry);
        registry.inc("threaded.send_dropped", send_dropped);

        ThreadedRunReport {
            commits,
            aborts,
            audit: check_global(histories.iter().map(|(&s, h)| (s, h))),
            ser_s_ok: gtm2.ser_log_snapshot().check().is_ok(),
            storage_totals: totals.into_values().collect(),
            registry,
            events: sched_sink.map(|s| s.drain()).unwrap_or_default(),
        }
    }
}

/// A usable `MDBS_SHARDS` value: an integer ≥ 1.
fn parse_shards(raw: &str) -> Option<usize> {
    raw.parse().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_workload::generator::Workload;
    use mdbs_workload::spec::WorkloadSpec;

    fn programs(sites: usize, n: usize, seed: u64) -> Vec<GlobalTransaction> {
        let spec = WorkloadSpec {
            sites,
            global_txns: n,
            avg_sites_per_txn: 2.0_f64.min(sites as f64),
            ops_per_subtxn: 2,
            read_ratio: 0.5,
            items_per_site: 16,
            distribution: mdbs_workload::distributions::AccessDistribution::Uniform,
            local_txns_per_site: 0,
            ops_per_local_txn: 0,
            seed,
        };
        Workload::generate(&spec).globals
    }

    #[test]
    fn only_integers_from_one_up_are_shard_counts() {
        assert_eq!(parse_shards("1"), Some(1));
        assert_eq!(parse_shards("4"), Some(4));
        for unusable in ["0", "four", ""] {
            assert_eq!(parse_shards(unusable), None, "{unusable:?}");
        }
    }

    #[test]
    fn threaded_run_serializable_2pl() {
        let rt = ThreadedMdbs::new(
            vec![LocalProtocolKind::TwoPhaseLocking; 3],
            SchemeKind::Scheme3,
            4,
        );
        let report = rt.run(programs(3, 12, 5));
        assert_eq!(report.commits + report.aborts, 12);
        assert!(report.is_serializable(), "{:?}", report.audit);
        assert!(report.ser_s_ok);
    }

    #[test]
    fn threaded_run_heterogeneous() {
        let rt = ThreadedMdbs::new(
            vec![
                LocalProtocolKind::TwoPhaseLocking,
                LocalProtocolKind::TimestampOrdering,
                LocalProtocolKind::Optimistic,
            ],
            SchemeKind::Scheme1,
            4,
        );
        let report = rt.run(programs(3, 10, 9));
        assert_eq!(report.commits + report.aborts, 10);
        assert!(report.is_serializable(), "{:?}", report.audit);
    }

    #[test]
    fn threaded_run_with_tickets() {
        let rt = ThreadedMdbs::new(
            vec![
                LocalProtocolKind::SerializationGraphTesting,
                LocalProtocolKind::TwoPhaseLocking,
            ],
            SchemeKind::Scheme0,
            3,
        );
        let report = rt.run(programs(2, 8, 13));
        assert_eq!(report.commits + report.aborts, 8);
        assert!(report.is_serializable(), "{:?}", report.audit);
    }
}
