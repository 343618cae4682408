//! The live transport: [`MdbsSystem::run_live`] runs the one driver on
//! the calling thread and each site's `Server` in one **work-stealing
//! pool task** (not one OS thread), talking over crossbeam channels.
//!
//! Where the seeded event queue gives determinism (experiments), the live
//! transport gives *real concurrency*: messages genuinely race, blocked
//! operations park inside site engines, and the driver's timers
//! (admissions, retries, local think time, block timeouts, crashes) fire
//! on the wall clock. Every run is still audited at the end.
//!
//! The transport only carries messages: the coordinator sends a site's
//! task one `SiteMsg` and wakes it; the task runs it and forwards every
//! `Reply`, which the driver handles with the code the DES runs. Site
//! tasks are non-blocking state machines on [`mdbs_common::pool`]. The
//! coordinator is a busy thread and counts as a core: the pool gets
//! `min(sites, cores − 1)` workers (at least one, `site_pool_workers`).
//!
//! Neither side sleeps between messages. A transaction's journey is a
//! dozen coordinator ↔ site hops microseconds apart, so a coordinator that
//! finds its channel empty polls it for the pool's [`SPIN_POLLS`] rounds
//! before it blocks in `recv_timeout` until the next timer is due, as an
//! idle pool worker polls its deques before it parks (`mdbs_common::pool`,
//! "Spin before park"). A `try_recv` of an empty channel is ≈ 30 ns, so
//! the spin lasts about as long as the futex wait it saves here plus the
//! futex wake in whichever site task sends next.
//!
//! GTM2 is the paper's single sequential process (Figures 2–3): only the
//! coordinator thread runs the GTM, and servers send their `ack`s on the
//! channel every other reply travels.
//!
//! [`ThreadedMdbs`] is the one configuration the benchmark runs.

use crate::event::SimTime;
use crate::server::{Reply, Server, SiteMsg};
use crate::system::{assert_conservative, LatencyConfig, MdbsSystem, SystemConfig};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mdbs_common::ids::SiteId;
use mdbs_common::instrument::Registry;
use mdbs_common::pool::{Poll, Pool, TaskHandle, SPIN_POLLS};
use mdbs_core::scheme::SchemeKind;
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_schedule::global::GlobalSerializability;
use std::time::{Duration, Instant};

/// How long the coordinator waits for a site reply when no timer is
/// pending before it gives the run up as wedged.
const QUIET_LIMIT: Duration = Duration::from_secs(10);

/// Pool workers for `sites` site tasks on a machine with `cores` cores:
/// one per site, but leave a core to the coordinator thread, and never
/// fewer than one.
fn site_pool_workers(sites: usize, cores: usize) -> usize {
    sites.min(cores.saturating_sub(1)).max(1)
}

/// Message from the coordinator to a site task.
enum ToSite {
    Run(SiteMsg),
    Shutdown,
}

/// Message from a site task back to the coordinator.
enum FromSite {
    /// One of the server's replies, in the order it pushed them.
    Reply(SiteId, Reply),
    /// At shutdown: the server (boxed, as a channel slot is as large as
    /// its largest message) and the sends this task dropped.
    Final(Box<Server>, u64),
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

struct SiteWorker {
    /// Taken at shutdown, to travel back in [`FromSite::Final`].
    server: Option<Server>,
    /// The server's reply buffer, empty between messages.
    replies: Vec<Reply>,
    rx: Receiver<ToSite>,
    /// To the coordinator. Its drop count travels back in
    /// [`FromSite::Final`].
    tx: CountedSender<FromSite>,
}

impl SiteWorker {
    /// One poll of the site task: run the mailbox and suspend. Never
    /// blocks — the coordinator wakes this task after every send.
    fn run(&mut self) -> Poll {
        let Some(server) = &mut self.server else {
            return Poll::Done;
        };
        loop {
            match self.rx.try_recv() {
                Ok(ToSite::Run(msg)) => {
                    server.run(msg, &mut self.replies);
                    for reply in self.replies.drain(..) {
                        self.tx.send(FromSite::Reply(server.db.site(), reply));
                    }
                }
                Ok(ToSite::Shutdown) | Err(TryRecvError::Disconnected) => {
                    if let Some(server) = self.server.take() {
                        let dropped = self.tx.dropped;
                        self.tx.send(FromSite::Final(Box::new(server), dropped));
                    }
                    return Poll::Done;
                }
                Err(TryRecvError::Empty) => return Poll::Pending,
            }
        }
    }
}

/// The live transport of one run: the site tasks, their channels and the
/// wall clock.
pub(crate) struct Live {
    start: Instant,
    pool: Pool,
    spin_polls: u32,
    /// Each site's mailbox and task.
    sites: Vec<(CountedSender<ToSite>, TaskHandle)>,
    from_sites: Receiver<FromSite>,
}

impl Live {
    /// Move each server into a pool task of its own and start them; the
    /// clock starts now.
    pub(crate) fn start(servers: Vec<Server>) -> Live {
        let (to_coord, from_sites) = bounded::<FromSite>(1024);
        // Task-per-site on a bounded worker pool: many sites multiplex
        // onto the cores the coordinator leaves free.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = Pool::new(site_pool_workers(servers.len(), cores));
        let mut sites = Vec::new();
        for server in servers {
            let (tx, rx) = bounded::<ToSite>(1024);
            let mut worker = SiteWorker {
                server: Some(server),
                replies: Vec::new(),
                rx,
                tx: CountedSender::new(to_coord.clone()),
            };
            let task = pool.spawn(move || worker.run());
            // Spawn does not schedule; the first wake does.
            task.wake();
            sites.push((CountedSender::new(tx), task));
        }
        Live {
            start: Instant::now(),
            pool,
            spin_polls: if cores > 1 { SPIN_POLLS } else { 0 },
            sites,
            from_sites,
        }
    }

    /// Wall microseconds since the run started.
    pub(crate) fn now(&self) -> SimTime {
        self.start.elapsed().as_micros() as SimTime
    }

    /// Carry one message to `site`'s server.
    pub(crate) fn send(&mut self, site: SiteId, msg: SiteMsg) {
        // A dead site task is never silent (the send is counted); waking
        // its finished task is a no-op.
        let (tx, task) = &mut self.sites[site.index()];
        tx.send(ToSite::Run(msg));
        task.wake();
    }

    /// Wait for site replies until wall time `deadline` — with none, for
    /// [`QUIET_LIMIT`]: poll briefly, then block. Once one arrives, all the
    /// channel holds goes into `arrived` (empty on entry); false if the
    /// wait ran out.
    pub(crate) fn recv(
        &self,
        deadline: Option<SimTime>,
        arrived: &mut Vec<(SiteId, Reply)>,
    ) -> bool {
        let mut polls = 0;
        loop {
            let msg = match self.from_sites.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) if !arrived.is_empty() => return true,
                Err(TryRecvError::Empty) if polls < self.spin_polls => {
                    polls += 1;
                    std::hint::spin_loop();
                    continue;
                }
                Err(TryRecvError::Empty) => {
                    let wait = deadline.map_or(QUIET_LIMIT, |at| {
                        Duration::from_micros(at.saturating_sub(self.now()))
                    });
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the coordinator between pumps, with GTM2 idle: it blocks until \
                                  the next timer is due at most"
                    )]
                    let msg = self.from_sites.recv_timeout(wait);
                    match msg {
                        Err(RecvTimeoutError::Timeout) => return false,
                        msg => msg.ok(),
                    }
                }
                Err(TryRecvError::Disconnected) => None,
            };
            let Some(FromSite::Reply(site, reply)) = msg else {
                panic!("threaded MDBS wedged: site tasks gone before shutdown")
            };
            arrived.push((site, reply));
        }
    }

    /// End the run: shut the site tasks down and take their servers back,
    /// in site order; the pool's counters and `threaded.send_dropped` go
    /// into `registry`.
    pub(crate) fn finish(mut self, registry: &mut Registry) -> Vec<Server> {
        // Shut down sites and collect their servers.
        for (tx, task) in &mut self.sites {
            tx.send(ToSite::Shutdown);
            task.wake();
        }
        let mut send_dropped: u64 = self.sites.iter().map(|(tx, _)| tx.dropped).sum();
        let mut servers = Vec::with_capacity(self.sites.len());
        while servers.len() < self.sites.len() {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown, after the last transaction completed: the pump is done"
            )]
            let msg = self.from_sites.recv_timeout(QUIET_LIMIT);
            match msg {
                Ok(FromSite::Final(server, dropped)) => {
                    send_dropped += dropped;
                    servers.push(*server);
                }
                Ok(FromSite::Reply(..)) => {} // stragglers from finished work
                Err(_) => panic!("site threads did not shut down"),
            }
        }
        assert!(
            self.pool.wait_idle(QUIET_LIMIT),
            "site tasks did not reach Done"
        );
        self.pool.export_metrics(registry);
        registry.inc("threaded.send_dropped", send_dropped);
        servers.sort_by_key(|server| server.db.site());
        servers
    }
}

/// Outcome of a [`ThreadedMdbs`] run.
#[derive(Debug)]
pub struct ThreadedRunReport {
    /// Transactions that committed everywhere.
    pub commits: u64,
    /// Transactions that aborted (they are not retried).
    pub aborts: u64,
    /// Global-serializability verdict over the collected histories.
    pub audit: GlobalSerializability,
    /// Whether `ser(S)` as recorded by GTM2 was serializable.
    pub ser_s_ok: bool,
    /// Metrics snapshot: the run's [`MdbsSystem::export_metrics`].
    pub registry: Registry,
}

impl ThreadedRunReport {
    /// Convenience accessor.
    pub fn is_serializable(&self) -> bool {
        self.audit.is_serializable()
    }
}

/// The live MDBS in the one configuration the benchmark runs: global
/// programs only, closed-loop at `mpl`, no retries (an aborted
/// transaction's outcome is reported as-is), no added delays, and a
/// 200 ms block timeout. [`MdbsSystem::run_live`] runs any
/// [`SystemConfig`].
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
    cfg: SystemConfig,
}

impl ThreadedMdbs {
    /// Configure a runtime. Panics on a non-conservative scheme: the
    /// baselines abort global transactions, which the MDBS does not model.
    pub fn new(protocols: Vec<LocalProtocolKind>, scheme: SchemeKind, mpl: usize) -> Self {
        assert_conservative(scheme);
        let latency = LatencyConfig {
            net: 0,
            proc: 0,
            arrival_gap: 0,
            block_timeout: 200_000,
            ..LatencyConfig::default()
        };
        let builder = SystemConfig::builder()
            .scheme(scheme)
            .latency(latency)
            .mpl(mpl)
            .max_retries(0);
        let cfg = protocols
            .into_iter()
            .fold(builder, |b, p| b.site(p))
            .build();
        ThreadedMdbs { cfg }
    }

    /// Run the programs to completion on live threads and audit.
    pub fn run(&self, programs: Vec<GlobalTransaction>) -> ThreadedRunReport {
        let mut system = MdbsSystem::new(self.cfg.clone());
        system.load(programs, Vec::new());
        let report = system.run_loaded_live();
        ThreadedRunReport {
            commits: report.metrics.global_commits,
            aborts: report.metrics.global_failures,
            audit: report.audit,
            ser_s_ok: report.ser_s_ok,
            registry: report.registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RunReport;
    use mdbs_common::instrument::TracedEvent;
    use mdbs_workload::generator::Workload;
    use mdbs_workload::spec::WorkloadSpec;
    use std::collections::BTreeMap;

    fn programs(sites: usize, n: usize, seed: u64) -> Vec<GlobalTransaction> {
        workload(sites, n, seed).globals
    }

    fn workload(sites: usize, n: usize, seed: u64) -> Workload {
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
        Workload::generate(&spec)
    }

    /// Twelve programs on three 2PL sites in [`ThreadedMdbs`]'s
    /// configuration, traced, on the live transport or the event queue.
    fn traced_run(scheme: SchemeKind, live: bool) -> (RunReport, Vec<TracedEvent>) {
        let sites = vec![LocalProtocolKind::TwoPhaseLocking; 3];
        let mut system = MdbsSystem::new(ThreadedMdbs::new(sites, scheme, 4).cfg);
        system.enable_trace();
        let workload = workload(3, 12, 5);
        let report = if live {
            system.run_live(workload)
        } else {
            system.run(workload)
        };
        let trace = system.take_trace().expect("tracing enabled");
        assert_eq!(report.registry.counter("threaded.send_dropped"), 0);
        (report, trace)
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

    /// A command that blocks past the block timeout is expired by the
    /// driver once, on either transport: G1 holds `x` at site 0 while its
    /// next command waits out site 1's outage, G2's write of `x` blocks
    /// behind it, times out and fails (no retries).
    #[test]
    fn threaded_expired_block_is_counted_once() {
        use mdbs_common::ids::{DataItemId, GlobalTxnId};
        let (s0, s1, x, y) = (SiteId(0), SiteId(1), DataItemId(1), DataItemId(2));
        let holder = GlobalTransaction::builder(GlobalTxnId(1))
            .write(s0, x, 1)
            .write(s1, y, 1)
            .build()
            .unwrap();
        let waiter = GlobalTransaction::builder(GlobalTxnId(2))
            .write(s0, x, 2)
            .build()
            .unwrap();
        let latency = LatencyConfig {
            net: 0,
            proc: 0,
            arrival_gap: 20_000,
            block_timeout: 50_000,
            ..LatencyConfig::default()
        };
        let cfg = SystemConfig::builder()
            .sites(2, LocalProtocolKind::TwoPhaseLocking)
            .scheme(SchemeKind::Scheme0)
            .latency(latency)
            .mpl(2)
            .max_retries(0)
            .crash(0, s1, 300_000)
            .build();
        for live in [false, true] {
            let mut workload = Workload::uniform_smoke(2, 2);
            workload.globals = vec![holder.clone(), waiter.clone()];
            let mut system = MdbsSystem::new(cfg.clone());
            let report = if live {
                system.run_live(workload)
            } else {
                system.run(workload)
            };
            let m = &report.metrics;
            assert_eq!(m.timeouts, 1, "live={live}: {m:?}");
            assert_eq!((m.global_commits, m.global_failures), (1, 1), "live={live}");
            assert!(report.is_serializable(), "live={live}: {:?}", report.audit);
            assert_eq!(report.registry.counter("threaded.send_dropped"), 0);
        }
    }

    /// A live trace is stamped with the wall clock: `at` never decreases
    /// in record order and is not all 0, and every commit has its submit →
    /// commit latency.
    #[test]
    fn threaded_trace_is_stamped_with_wall_time() {
        let (report, trace) = traced_run(SchemeKind::Scheme1, true);
        let at: Vec<u64> = trace.iter().map(|e| e.at).collect();
        assert!(at.windows(2).all(|w| w[0] <= w[1]), "{at:?}");
        assert!(at.iter().any(|&t| t > 0), "{at:?}");
        let commits = report.metrics.global_commits;
        let response = report.registry.histogram("sim.global_response_us");
        assert_eq!(response.map_or(0, |h| h.count()), commits);
        assert!(commits > 0);
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

    /// A trace holds GTM2's events in the order the coordinator handled
    /// them: complete, and causally ordered per transaction, on the live
    /// transport and on the event queue.
    #[test]
    fn trace_is_complete_and_causally_ordered() {
        use mdbs_common::instrument::SchedEvent;
        use mdbs_common::ops::QueueOpKind::{Ack, Fin, Init, Ser};
        for (scheme, live) in SchemeKind::CONSERVATIVE
            .into_iter()
            .flat_map(|scheme| [(scheme, true), (scheme, false)])
        {
            let (report, trace) = traced_run(scheme, live);
            let scheme = format!("{scheme} live={live}");
            assert!(!trace.is_empty(), "{scheme}");
            // Where each operation entered QUEUE and where it was acted
            // (from QUEUE or woken from WAIT), by position in the record.
            let mut enqueued = BTreeMap::new();
            let mut acted = BTreeMap::new();
            for (at, traced) in trace.iter().enumerate() {
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

    /// 3 and 4 site tasks multiplexed onto the pool's
    /// [`site_pool_workers`] threads: every program finishes, the audit
    /// and `ser(S)` hold, and no protocol message is dropped.
    #[test]
    fn threaded_run_serializable_2pl() {
        for sites in [3, 4] {
            let rt = ThreadedMdbs::new(
                vec![LocalProtocolKind::TwoPhaseLocking; sites],
                SchemeKind::Scheme3,
                4,
            );
            let report = rt.run(programs(sites, 12, 5));
            assert_eq!(report.commits + report.aborts, 12, "sites={sites}");
            assert!(report.is_serializable(), "{:?}", report.audit);
            assert!(report.ser_s_ok, "sites={sites}");
            assert_nothing_dropped(&report);
        }
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
