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
//! operations, and returns `Pending`. The coordinator wakes a site's task
//! after every send, and ticks all tasks every 2 ms so expiry keeps
//! running while traffic is quiet. The coordinator is a busy thread and
//! counts as a core: the pool gets `min(sites, cores − 1)` workers (at
//! least one, `site_pool_workers`) — many sites multiplex onto few
//! workers instead of oversubscribing the machine.
//!
//! Neither side sleeps between messages. The journey of a transaction is
//! a dozen coordinator ↔ site hops microseconds apart, so a coordinator
//! that finds its channel empty polls it for `SPIN_POLLS` rounds before
//! it blocks in `recv_timeout`, as an idle pool worker polls its deques
//! before it parks (`mdbs_common::pool`, "Spin before park").
//!
//! GTM2 is the paper's single sequential process (Figures 2–3): the
//! coordinator thread owns the one [`Coordinator`] — GTM1 and a plain
//! [`Gtm2`], no lock, nothing shared — and is the only thread that runs
//! the scheduler. It is the same `Coordinator` the simulator drives.
//! Servers send their `ack`s the way the paper's do, as an [`Arrival`] on
//! the channel every other site reply already travels: one thread decides
//! the order, the site workers only execute.
//!
//! Scope: global transactions only (the simulator covers background local
//! load); aborted global transactions are not retried — their outcome is
//! reported as-is.

use crate::server::{Reply, Server};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::instrument::{Registry, SharedSink, TracedEvent};
use mdbs_common::pool::{Poll, Pool, TaskHandle};
use mdbs_core::coordinator::{Arrival, Coordinator, Outbound};
use mdbs_core::gtm1::{Gtm1, Gtm1Event, ServerCommand};
use mdbs_core::gtm2::Gtm2;
use mdbs_core::scheme::{KernelKind, SchemeKind};
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::engine::{EngineStats, LocalDbms};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_schedule::global::{check_global, GlobalSerializability};
use mdbs_schedule::History;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How many times the coordinator re-polls an empty reply channel before
/// it blocks in `recv_timeout`. The pool's rule and the pool's number
/// (`mdbs_common::pool`, "Spin before park"; the sweep in DESIGN §10 moved
/// both together): spin about as long as a park/unpark pair costs, ≈ 10 µs
/// on the reference VM — a `try_recv` of an empty channel is ≈ 30 ns —
/// against a futex wait here plus a futex wake in whichever site task
/// sends next. Not used on a single-core machine, where the spin would
/// only delay the site task the reply has to come from.
const SPIN_POLLS: u32 = 200;

/// Pool workers for `sites` site tasks on a machine with `cores` cores:
/// one per site, but leave a core to the coordinator thread, and never
/// fewer than one.
fn site_pool_workers(sites: usize, cores: usize) -> usize {
    sites.min(cores.saturating_sub(1)).max(1)
}

/// Message from coordinator to a site thread.
enum ToSite {
    Command {
        txn: GlobalTxnId,
        cmd: ServerCommand,
    },
    Shutdown,
}

/// Message from a site thread back to the coordinator.
enum FromSite {
    /// A server reply for the coordinator.
    Gtm(Arrival),
    /// Final state at shutdown.
    Final {
        site: SiteId,
        history: History,
        /// Sum of the committed data values (ticket excluded).
        data_total: i128,
        stats: EngineStats,
        /// Messages this worker failed to deliver (coordinator gone).
        send_dropped: u64,
        /// Blocked commands this worker aborted on its wall clock.
        block_timeouts: u64,
    },
}

/// A channel sender that cannot lose a message silently: a send whose
/// receiver has hung up is counted, and the counts surface as the
/// `threaded.send_dropped` counter. The runtime's only caller of the
/// channel's `send` — the root `clippy.toml` bans it everywhere else.
struct CountedSender<T> {
    inner: Sender<T>,
    /// Sends that failed because the receiver was gone.
    dropped: u64,
}

impl<T> CountedSender<T> {
    fn new(inner: Sender<T>) -> Self {
        CountedSender { inner, dropped: 0 }
    }

    /// Send `msg`, counting it if the receiver is gone. Nothing is
    /// returned, so no caller can drop a failure on the floor.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one counted send: a failure lands in `dropped`"
    )]
    fn send(&mut self, msg: T) {
        if self.inner.send(msg).is_err() {
            self.dropped += 1;
        }
    }
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
    /// To the coordinator. Its drop count travels back in
    /// [`FromSite::Final`].
    tx: CountedSender<FromSite>,
    /// When each command currently blocked inside the engine blocked.
    blocked_since: BTreeMap<GlobalTxnId, Instant>,
    block_timeout: Duration,
    /// Blocked commands aborted because they outwaited `block_timeout`
    /// (the `threaded.block_timeouts` counter).
    block_timeouts: u64,
}

impl SiteWorker {
    fn new(
        site: SiteId,
        protocol: LocalProtocolKind,
        rx: Receiver<ToSite>,
        tx: Sender<FromSite>,
        block_timeout: Duration,
    ) -> Self {
        SiteWorker {
            site,
            server: Server::new(LocalDbms::new(site, protocol)),
            replies: Vec::new(),
            rx,
            tx: CountedSender::new(tx),
            blocked_since: BTreeMap::new(),
            block_timeout,
            block_timeouts: 0,
        }
    }

    /// One poll of the site task: drain the command mailbox, expire
    /// blocked operations, and suspend. Never blocks — the coordinator
    /// wakes this task after every send and on its 2 ms expiry tick.
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
        Poll::Pending
    }

    /// Ship the final site state to the coordinator at shutdown.
    fn finish(&mut self) {
        let msg = FromSite::Final {
            site: self.site,
            history: self.server.db.take_history(),
            data_total: self.server.db.storage().data_total(),
            stats: self.server.db.stats(),
            send_dropped: self.tx.dropped,
            block_timeouts: self.block_timeouts,
        };
        self.tx.send(msg);
    }

    fn expire_blocked(&mut self) {
        // Nothing blocked means nothing to expire and — `execute` drains
        // what it causes — no completion waiting in the engine either.
        if self.blocked_since.is_empty() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<GlobalTxnId> = self
            .blocked_since
            .iter()
            .filter(|(_, since)| now.duration_since(**since) > self.block_timeout)
            .map(|(&t, _)| t)
            .collect();
        for txn in expired {
            // The engine refuses to abort a prepared subtransaction; only
            // an accepted abort is a timeout.
            if self.server.db.request_abort(txn.into()).is_ok() {
                self.block_timeouts += 1;
            }
        }
        self.server.drain(&mut self.replies);
        self.deliver();
    }

    /// Send the server's replies on their way: messages for the GTM over
    /// the channel, blocked steps onto the expiry clock.
    fn deliver(&mut self) {
        let mut replies = std::mem::take(&mut self.replies);
        for reply in replies.drain(..) {
            match reply {
                Reply::Gtm(arrival) => self.tx.send(FromSite::Gtm(arrival)),
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
}

impl ThreadedMdbs {
    /// Configure a runtime. Panics on a non-conservative scheme: the
    /// baselines abort global transactions, which the MDBS does not model.
    pub fn new(protocols: Vec<LocalProtocolKind>, scheme: SchemeKind, mpl: usize) -> Self {
        assert!(
            scheme.is_conservative(),
            "{scheme} is not conservative: the MDBS runs Schemes 0-3 only; run baselines with mdbs_core::replay"
        );
        ThreadedMdbs {
            protocols,
            scheme,
            mpl,
            block_timeout: Duration::from_millis(200),
            trace: false,
        }
    }

    /// Record structured GTM scheduling events during runs; they come back
    /// in [`ThreadedRunReport::events`].
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// Run the programs to completion on live threads and audit.
    pub fn run(&self, programs: Vec<GlobalTransaction>) -> ThreadedRunReport {
        let site_events: BTreeMap<SiteId, SerializationEvent> = self
            .protocols
            .iter()
            .enumerate()
            .map(|(i, &p)| (SiteId(i as u32), SerializationEvent::for_protocol(p)))
            .collect();
        let mut gtm = Coordinator::new(
            Gtm1::new(site_events),
            Gtm2::new(self.scheme.build_kernel(KernelKind::Dense)),
        );
        let sched_sink = self.trace.then(SharedSink::new);
        if sched_sink.is_some() {
            gtm.set_sink(sched_sink.clone());
        }

        let (to_coord, from_sites) = bounded::<FromSite>(1024);
        // Task-per-site on a bounded worker pool: many sites multiplex
        // onto the cores the coordinator leaves free.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = Pool::new(site_pool_workers(self.protocols.len(), cores));
        let spin_polls = if cores > 1 { SPIN_POLLS } else { 0 };
        let mut site_txs: Vec<CountedSender<ToSite>> = Vec::new();
        let mut handles: Vec<TaskHandle> = Vec::new();
        for (i, &protocol) in self.protocols.iter().enumerate() {
            let (tx, rx) = bounded::<ToSite>(1024);
            site_txs.push(CountedSender::new(tx));
            let site = SiteId(i as u32);
            let mut worker =
                SiteWorker::new(site, protocol, rx, to_coord.clone(), self.block_timeout);
            handles.push(pool.spawn(move || worker.run()));
        }
        drop(to_coord);
        // Start them all (spawn does not schedule; the first wake does).
        for h in &handles {
            h.wake();
        }

        // A program naming a site this runtime was not configured with is
        // refused at admission: it aborts without ever reaching GTM1.
        let submitted = programs.len();
        let mut queue: VecDeque<GlobalTransaction> = programs
            .into_iter()
            .filter(|gt| gt.steps.iter().all(|s| s.site.index() < site_txs.len()))
            .collect();
        let total = queue.len();
        let mut commits = 0u64;
        let mut aborts = (submitted - total) as u64;
        let mut done = 0usize;

        // Closed-loop admission up to mpl.
        let submit = |gt| Arrival::Gtm1(Gtm1Event::Submit(gt));
        let mut arrivals: VecDeque<Arrival> = queue
            .drain(..self.mpl.min(queue.len()))
            .map(submit)
            .collect();
        let mut out: Vec<Outbound> = Vec::new();

        // Wedge check: messages arrived so far, and how many had arrived —
        // and when — the last time a 2 ms tick saw that count move.
        let mut arrived = 0u64;
        let mut last_progress = (arrived, Instant::now());
        while done < total {
            // Hand every arrival to the GTM, one at a time.
            while let Some(arrival) = arrivals.pop_front() {
                gtm.handle(0, arrival, &mut out);
                for msg in out.drain(..) {
                    match msg {
                        Outbound::Server { txn, site, cmd } => {
                            // A dead site thread is tolerated (timeouts
                            // abort its transactions) but never silent;
                            // waking its finished task is a no-op.
                            site_txs[site.index()].send(ToSite::Command { txn, cmd });
                            if let Some(h) = handles.get(site.index()) {
                                h.wake();
                            }
                        }
                        Outbound::Completed { aborted, .. } => {
                            done += 1;
                            match aborted {
                                None => commits += 1,
                                Some(_) => aborts += 1,
                            }
                            arrivals.extend(queue.pop_front().map(submit));
                        }
                    }
                }
            }
            if done >= total {
                break;
            }
            // Wait for site replies: poll briefly, then block, ticking all
            // site tasks every 2 ms so block-timeout expiry keeps running
            // while traffic is quiet.
            #[expect(
                clippy::disallowed_methods,
                reason = "the coordinator between pumps, with GTM2 idle: it blocks 2 ms at most, \
                          then ticks the site tasks"
            )]
            let reply = 'poll: {
                for _ in 0..spin_polls {
                    match from_sites.try_recv() {
                        Err(TryRecvError::Empty) => std::hint::spin_loop(),
                        Ok(msg) => break 'poll Ok(msg),
                        Err(TryRecvError::Disconnected) => {
                            break 'poll Err(RecvTimeoutError::Disconnected)
                        }
                    }
                }
                from_sites.recv_timeout(Duration::from_millis(2))
            };
            match reply {
                Ok(FromSite::Gtm(arrival)) => {
                    arrivals.push_back(arrival);
                    arrived += 1;
                }
                Ok(FromSite::Final { .. }) => {}
                Err(RecvTimeoutError::Timeout) => {
                    for h in &handles {
                        h.wake();
                    }
                    if last_progress.0 != arrived {
                        last_progress = (arrived, Instant::now());
                    }
                    assert!(
                        last_progress.1.elapsed() < Duration::from_secs(10),
                        "threaded MDBS wedged: {done}/{total} complete"
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("threaded MDBS wedged (sites gone): {done}/{total} complete")
                }
            }
        }

        // Shut down sites and collect histories.
        for (tx, h) in site_txs.iter_mut().zip(&handles) {
            tx.send(ToSite::Shutdown);
            h.wake();
        }
        let mut send_dropped: u64 = site_txs.iter().map(|tx| tx.dropped).sum();
        let mut block_timeouts = 0u64;
        let mut histories: BTreeMap<SiteId, History> = BTreeMap::new();
        let mut totals: BTreeMap<SiteId, i128> = BTreeMap::new();
        let mut registry = Registry::default();
        while histories.len() < self.protocols.len() {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown, after the last transaction completed: the pump is done"
            )]
            let reply = from_sites.recv_timeout(Duration::from_secs(10));
            match reply {
                Ok(FromSite::Final {
                    site,
                    history,
                    data_total,
                    stats,
                    send_dropped: site_dropped,
                    block_timeouts: site_timeouts,
                }) => {
                    send_dropped += site_dropped;
                    block_timeouts += site_timeouts;
                    totals.insert(site, data_total);
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
        gtm.export_metrics(&mut registry);
        pool.export_metrics(&mut registry);
        registry.inc("threaded.send_dropped", send_dropped);
        registry.inc("threaded.block_timeouts", block_timeouts);

        ThreadedRunReport {
            commits,
            aborts,
            audit: check_global(histories.iter().map(|(&s, h)| (s, h))),
            ser_s_ok: gtm.gtm2().ser_log().check().is_ok(),
            storage_totals: totals.into_values().collect(),
            registry,
            events: sched_sink.map(|s| s.drain()).unwrap_or_default(),
        }
    }
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

    /// On a clean run every message reaches its peer: both channels are
    /// drained until shutdown.
    fn assert_nothing_dropped(report: &ThreadedRunReport) {
        assert_eq!(
            report.registry.counter("threaded.send_dropped"),
            0,
            "{report:?}"
        );
    }

    /// A command blocked past a zero timeout is aborted and counted once,
    /// and its failure reaches the coordinator.
    #[test]
    fn expired_block_is_counted() {
        use mdbs_common::ids::DataItemId;
        let (to_site, rx) = bounded::<ToSite>(8);
        let (tx, from_site) = bounded::<FromSite>(8);
        let mut to_site = CountedSender::new(to_site);
        let protocol = LocalProtocolKind::TwoPhaseLocking;
        let mut worker = SiteWorker::new(SiteId(0), protocol, rx, tx, Duration::ZERO);
        let (holder, waiter, x) = (GlobalTxnId(1), GlobalTxnId(2), DataItemId(7));
        for (txn, cmd) in [
            (holder, ServerCommand::Begin),
            (holder, ServerCommand::Write(x, 1)),
            (waiter, ServerCommand::Begin),
            (waiter, ServerCommand::Write(x, 2)),
        ] {
            to_site.send(ToSite::Command { txn, cmd });
        }
        // Each poll runs the mailbox, then expires what has blocked for
        // longer than zero: the second write, once the clock has moved.
        assert_eq!(worker.run(), Poll::Pending);
        while !worker.blocked_since.is_empty() {
            assert_eq!(worker.run(), Poll::Pending);
        }
        assert_eq!(worker.block_timeouts, 1);
        let failed = std::iter::from_fn(|| from_site.try_recv().ok()).any(|msg| {
            matches!(
                msg,
                FromSite::Gtm(Arrival::Gtm1(Gtm1Event::ServerFailed { txn, .. })) if txn == waiter
            )
        });
        assert!(failed, "the timed-out write fails at the coordinator");
        assert_eq!(to_site.dropped + worker.tx.dropped, 0);
    }

    /// The coordinator counts as a core, and a pool is never empty.
    #[test]
    fn pool_leaves_a_core_to_the_coordinator() {
        assert_eq!(site_pool_workers(4, 2), 1);
        assert_eq!(site_pool_workers(4, 1), 1);
        assert_eq!(site_pool_workers(4, 8), 4);
        assert_eq!(site_pool_workers(1, 8), 1);
        assert_eq!(site_pool_workers(0, 2), 1);
    }

    /// A baseline scheme would abort global transactions mid-run; it is
    /// refused up front instead.
    #[test]
    #[should_panic(expected = "Aborting-TO is not conservative")]
    fn non_conservative_scheme_is_refused() {
        let sites = vec![LocalProtocolKind::TwoPhaseLocking; 3];
        ThreadedMdbs::new(sites, SchemeKind::AbortingTo, 8);
    }

    /// Reproducer: this used to panic indexing `site_txs` with a site the
    /// runtime has no worker for.
    #[test]
    fn program_naming_an_unconfigured_site_is_refused() {
        let rt = ThreadedMdbs::new(
            vec![LocalProtocolKind::TwoPhaseLocking; 2],
            SchemeKind::Scheme0,
            4,
        );
        let programs = programs(3, 12, 5);
        let foreign = programs
            .iter()
            .filter(|gt| gt.sites().contains(&SiteId(2)))
            .count() as u64;
        assert!(0 < foreign && foreign < 12, "{foreign} of 12 name site 2");
        let report = rt.run(programs);
        assert_eq!(report.commits + report.aborts, 12);
        assert!(report.aborts >= foreign, "{report:?}");
        assert_eq!(report.registry.counter("gtm1.submitted"), 12 - foreign);
        assert!(report.is_serializable(), "{:?}", report.audit);
        assert!(report.ser_s_ok);
        assert_nothing_dropped(&report);
    }

    /// `enable_trace` hands back GTM2's events in the order the coordinator
    /// recorded them: complete, and causally ordered per transaction.
    #[test]
    fn trace_is_complete_and_causally_ordered() {
        use mdbs_common::instrument::SchedEvent;
        use mdbs_common::ops::QueueOpKind::{Ack, Fin, Init, Ser};
        for scheme in [
            SchemeKind::Scheme0,
            SchemeKind::Scheme1,
            SchemeKind::Scheme2,
            SchemeKind::Scheme3,
        ] {
            let mut rt = ThreadedMdbs::new(vec![LocalProtocolKind::TwoPhaseLocking; 3], scheme, 4);
            rt.enable_trace();
            let report = rt.run(programs(3, 12, 5));
            assert_nothing_dropped(&report);
            assert!(!report.events.is_empty(), "{scheme}");
            // Where each operation entered QUEUE and where it was acted
            // (from QUEUE or woken from WAIT), by position in the record.
            let mut enqueued = BTreeMap::new();
            let mut acted = BTreeMap::new();
            for (at, traced) in report.events.iter().enumerate() {
                let (seen, kind, txn, site) = match traced.event {
                    SchedEvent::Enqueue { kind, txn, site } => (&mut enqueued, kind, txn, site),
                    SchedEvent::Act { kind, txn, site } | SchedEvent::Wake { kind, txn, site } => {
                        (&mut acted, kind, txn, site)
                    }
                    _ => continue,
                };
                let again = seen.insert((txn, kind, site), at);
                assert_eq!(again, None, "{scheme}: {:?} twice", traced.event);
            }
            let processed = report.registry.counter("gtm2.processed");
            assert_eq!(acted.len() as u64, processed, "{scheme}");
            assert_eq!(
                processed,
                report.registry.counter("gtm2.enqueued"),
                "{scheme}"
            );
            for (&(txn, kind, site), &at) in &acted {
                let acted_at = |kind, site| {
                    *acted
                        .get(&(txn, kind, site))
                        .unwrap_or_else(|| panic!("{scheme}: {txn} has no acted {kind:?} {site:?}"))
                };
                assert!(
                    enqueued[&(txn, kind, site)] < at,
                    "{scheme}: {txn} {kind:?}"
                );
                match kind {
                    Init | Fin => {}
                    Ser => assert!(acted_at(Init, None) < at, "{scheme}: {txn} ser before init"),
                    Ack => assert!(acted_at(Ser, site) < at, "{scheme}: {txn} ack before ser"),
                }
                assert!(
                    at <= acted_at(Fin, None),
                    "{scheme}: {txn} {kind:?} after fin"
                );
            }
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
        assert_nothing_dropped(&report);
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
        assert_nothing_dropped(&report);
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
        assert_nothing_dropped(&report);
    }
}
