//! The live transport: [`MdbsSystem::run_live`] runs the one driver on
//! the calling thread and the sites' `Server`s on a few **site worker
//! threads**, talking over bounded `std::sync::mpsc` channels.
//!
//! Where the seeded event queue gives determinism (experiments), the live
//! transport gives *real concurrency*: messages genuinely race, blocked
//! operations park inside site engines, and the driver's timers
//! (admissions, retries, local think time, block timeouts, crashes) fire
//! on the wall clock. Every run is still audited at the end.
//!
//! The transport only carries messages: the coordinator pushes a site's
//! `SiteMsg` into its worker's bounded inbox; the worker runs it on the
//! site's server and forwards every `Reply` at once, which the driver
//! handles with the code the DES runs. The coordinator is a busy thread
//! and counts as a core: there are `min(sites, cores − 1)` workers (at
//! least one, `site_workers`), and worker `w` owns the sites `i` with
//! `i % n == w`, site `i` at index `i / n` of its servers.
//!
//! Each worker has **one** inbox, whatever number of sites it owns, so it
//! can wait in the channel's own receive and the channel's send wakes it.
//! The coordinator is the inbox's only producer, so each site's messages
//! run in the order they were sent.
//!
//! Neither side sleeps between messages. A transaction's journey is a
//! dozen coordinator ↔ site hops microseconds apart, so a side that finds
//! nothing to do polls again for [`SPIN_POLLS`] rounds before it blocks:
//! the coordinator in `recv_timeout` until the next timer is due, a worker
//! in `recv` until its next message.
//!
//! GTM2 is the paper's single sequential process (Figures 2–3): only the
//! coordinator thread runs the GTM, and servers send their `ack`s on the
//! channel every other reply travels.
//!
//! [`ThreadedMdbs`] is the one configuration the benchmark runs.

use crate::event::SimTime;
use crate::server::{Reply, Server, SiteMsg};
use crate::system::{assert_conservative, LatencyConfig, MdbsSystem, SystemConfig};
use mdbs_common::ids::SiteId;
use mdbs_common::instrument::Registry;
use mdbs_core::scheme::SchemeKind;
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_schedule::global::GlobalSerializability;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the coordinator waits for a site reply when no timer is
/// pending before it gives the run up as wedged.
const QUIET_LIMIT: Duration = Duration::from_secs(10);

/// Messages a site's share of its worker's inbox holds before a send
/// blocks: a worker's inbox holds this many times the sites it owns.
const INBOX_PER_SITE: usize = 1024;

/// How many times the coordinator re-polls its empty reply channel, and
/// each site worker its empty inbox, before it blocks; `spin_budget`
/// makes it 0 on a single-core machine.
///
/// The classical rule: spin about as long as a block and its wake cost —
/// shorter gives the saving away, longer burns a core somebody else may
/// need. On the 2-vCPU reference VM a park plus its wake cost ≈ 10 µs and
/// one empty `try_recv` ≈ 30 ns. A worker's poll is one `try_recv` of its
/// one inbox, so its spin is ≈ 6 µs (≈ 24 µs when one worker swept four
/// per-site inboxes per poll). Measured on
/// `live_spread` (DESIGN §10, "Spin before park"): 20 / 50 polls give
/// 1.45× / 1.5× the no-spin throughput, 200 to 20 000 all give 1.8–2.0×;
/// with a CPU hog competing for the two cores 200 still matches no-spin
/// while 500 / 2 000 / 20 000 fall to 0.65× / 0.33× / 0.15× of it.
pub const SPIN_POLLS: u32 = 200;

/// Site workers for `sites` sites on a machine with `cores` cores: one per
/// site, but leave a core to the coordinator thread, and never fewer than
/// one.
fn site_workers(sites: usize, cores: usize) -> usize {
    sites.min(cores.saturating_sub(1)).max(1)
}

/// How many empty polls the coordinator and each site worker make before
/// they block: [`SPIN_POLLS`], or 0 on one core, where spinning can only
/// delay the thread that would produce the work.
pub(crate) fn spin_budget() -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        SPIN_POLLS
    } else {
        0
    }
}

/// Message from the coordinator to a site worker.
enum ToSite {
    /// Run a message on the worker's server at this index.
    Run(usize, SiteMsg),
    /// Send every server back and end the thread.
    Shutdown,
}

/// Message from a site back to the coordinator.
enum FromSite {
    /// One of the server's replies, in the order it pushed them.
    Reply(SiteId, Reply),
    /// At shutdown: the server (boxed, as a channel slot is as large as
    /// its largest message).
    Final(Box<Server>),
}

/// A channel sender that cannot lose a message silently: a send whose
/// receiver has hung up is counted, and the counts surface as the
/// `threaded.send_dropped` counter. The runtime's only caller of the
/// channel's `send` — the root `clippy.toml` bans it everywhere else.
struct CountedSender<T> {
    inner: SyncSender<T>,
    /// Sends that failed because the receiver was gone.
    dropped: u64,
}

impl<T> CountedSender<T> {
    fn new(inner: SyncSender<T>) -> Self {
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

/// What a site worker counted, handed back when its thread ends.
#[derive(Default)]
struct WorkerCounts {
    /// Times the worker spun out its budget and blocked in `recv`.
    parks: u64,
    /// Sends to the coordinator that found it gone.
    send_dropped: u64,
}

/// The sites one worker thread owns, its inbox and its sender to the
/// coordinator.
struct SiteWorker {
    /// Site `i` at index `i / n`, for `n` workers.
    servers: Vec<Server>,
    inbox: Receiver<ToSite>,
    /// The servers' reply buffer, empty between messages.
    replies: Vec<Reply>,
    to_coord: CountedSender<FromSite>,
}

impl SiteWorker {
    /// The worker thread: run each message and forward each of its replies
    /// at once, until told to shut down (or until the coordinator is
    /// gone); then send every server back. After `spin_polls` empty polls
    /// in a row it blocks in the inbox's `recv`.
    fn work(mut self, spin_polls: u32) -> WorkerCounts {
        let mut parks = 0;
        let mut idle = 0;
        loop {
            let msg = match self.inbox.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) if idle < spin_polls => {
                    idle += 1;
                    std::hint::spin_loop();
                    continue;
                }
                Err(TryRecvError::Empty) => {
                    parks += 1;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "an idle site worker, after its spin: the next send wakes it"
                    )]
                    let msg = self.inbox.recv();
                    msg.ok()
                }
                Err(TryRecvError::Disconnected) => None,
            };
            let Some(ToSite::Run(at, msg)) = msg else {
                break;
            };
            idle = 0;
            let server = &mut self.servers[at];
            server.run(msg, &mut self.replies);
            let id = server.db.site();
            for reply in self.replies.drain(..) {
                self.to_coord.send(FromSite::Reply(id, reply));
            }
        }
        for server in self.servers.drain(..) {
            self.to_coord.send(FromSite::Final(Box::new(server)));
        }
        WorkerCounts {
            parks,
            send_dropped: self.to_coord.dropped,
        }
    }
}

/// The live transport of one run: the site workers, the channels and the
/// wall clock.
pub(crate) struct Live {
    start: Instant,
    /// Empty polls of the reply channel before the coordinator blocks.
    spin_polls: u32,
    /// How many sites the workers run.
    sites: usize,
    /// Each worker's inbox, in worker order.
    inboxes: Vec<CountedSender<ToSite>>,
    workers: Vec<JoinHandle<WorkerCounts>>,
    from_sites: Receiver<FromSite>,
}

impl Live {
    /// Hand the servers to [`site_workers`] threads, site `i` to worker
    /// `i % n`, and start them; the clock starts now. Both the workers and
    /// the coordinator's `recv` poll `spin_polls` times before they block.
    pub(crate) fn start(servers: Vec<Server>, spin_polls: u32) -> Live {
        let sites = servers.len();
        let (to_coord, from_sites) = sync_channel::<FromSite>(1024);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = site_workers(sites, cores);
        let mut owned: Vec<Vec<Server>> = (0..n).map(|_| Vec::new()).collect();
        for (i, server) in servers.into_iter().enumerate() {
            owned[i % n].push(server);
        }
        let (inboxes, workers) = owned
            .into_iter()
            .enumerate()
            .map(|(w, servers)| {
                let (tx, inbox) = sync_channel::<ToSite>(INBOX_PER_SITE * servers.len());
                let worker = SiteWorker {
                    servers,
                    inbox,
                    replies: Vec::new(),
                    to_coord: CountedSender::new(to_coord.clone()),
                };
                let thread = std::thread::Builder::new()
                    .name(format!("mdbs-site-{w}"))
                    .spawn(move || worker.work(spin_polls))
                    .expect("spawn site worker");
                (CountedSender::new(tx), thread)
            })
            .unzip();
        Live {
            start: Instant::now(),
            spin_polls,
            sites,
            inboxes,
            workers,
            from_sites,
        }
    }

    /// Wall microseconds since the run started.
    pub(crate) fn now(&self) -> SimTime {
        self.start.elapsed().as_micros() as SimTime
    }

    /// Carry one message to `site`'s server. A send to a site whose worker
    /// is gone is never silent: it is counted.
    pub(crate) fn send(&mut self, site: SiteId, msg: SiteMsg) {
        let i = site.index();
        assert!(i < self.sites, "{site:?} has no server");
        let n = self.inboxes.len();
        self.inboxes[i % n].send(ToSite::Run(i / n, msg));
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
                panic!("threaded MDBS wedged: site workers gone before shutdown")
            };
            arrived.push((site, reply));
        }
    }

    /// End the run: shut the workers down, take their servers back in
    /// site order and join the workers; `threaded.parks` and
    /// `threaded.send_dropped` go into `registry`.
    pub(crate) fn finish(mut self, registry: &mut Registry) -> Vec<Server> {
        for inbox in &mut self.inboxes {
            inbox.send(ToSite::Shutdown);
        }
        let mut servers = Vec::with_capacity(self.sites);
        while servers.len() < self.sites {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown, after the last transaction completed: the pump is done"
            )]
            let msg = self.from_sites.recv_timeout(QUIET_LIMIT);
            match msg {
                Ok(FromSite::Final(server)) => servers.push(*server),
                Ok(FromSite::Reply(..)) => {} // stragglers from finished work
                Err(_) => panic!("site workers did not shut down"),
            }
        }
        let mut counts = WorkerCounts {
            send_dropped: self.inboxes.iter().map(|tx| tx.dropped).sum(),
            ..WorkerCounts::default()
        };
        for worker in self.workers {
            #[expect(
                clippy::disallowed_methods,
                reason = "shutdown: every worker has sent its last server and is returning"
            )]
            let ended = worker.join();
            let Ok(worker) = ended else {
                panic!("a site worker panicked")
            };
            counts.parks += worker.parks;
            counts.send_dropped += worker.send_dropped;
        }
        registry.inc("threaded.parks", counts.parks);
        registry.inc("threaded.send_dropped", counts.send_dropped);
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
        Workload::generate(&workload_spec(sites, n, seed))
    }

    fn workload_spec(sites: usize, n: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
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
        }
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

    /// The coordinator counts as a core, and there is always a worker.
    #[test]
    fn site_workers_leave_a_core_to_the_coordinator() {
        assert_eq!(site_workers(4, 2), 1);
        assert_eq!(site_workers(4, 1), 1);
        assert_eq!(site_workers(4, 8), 4);
        assert_eq!(site_workers(1, 8), 1);
        assert_eq!(site_workers(0, 2), 1);
    }

    /// No wake is lost. 10 000 coordinator ↔ site round trips with no
    /// spinning on either side, so a worker that finds its inbox empty
    /// blocks at once: a send that failed to wake it would leave its trip's
    /// `recv` to run out.
    #[test]
    fn threaded_park_never_loses_its_wake() {
        use mdbs_common::ids::GlobalTxnId;
        use mdbs_core::gtm1::ServerCommand;
        use mdbs_localdb::engine::LocalDbms;
        const TRIPS: u64 = 10_000;
        let site = SiteId(0);
        let db = LocalDbms::new(site, LocalProtocolKind::TwoPhaseLocking);
        let mut live = Live::start(vec![Server::new(db)], 0);
        let mut arrived = Vec::new();
        for trip in 0..TRIPS {
            let txn = GlobalTxnId(trip / 2 + 1);
            let cmd = match trip % 2 {
                0 => ServerCommand::Begin,
                _ => ServerCommand::Commit,
            };
            live.send(site, SiteMsg::Command(txn, cmd));
            assert!(live.recv(None, &mut arrived), "trip {trip}: no reply");
            assert_eq!(arrived.len(), 1, "trip {trip}: {arrived:?}");
            arrived.clear();
        }
        let mut registry = Registry::default();
        live.finish(&mut registry);
        let parks = registry.counter("threaded.parks");
        // Nearly every gap blocks (≈ 99 % on two cores, ≈ 70 % on one).
        assert!(parks >= TRIPS / 10, "{parks} parks");
        assert_eq!(registry.counter("threaded.send_dropped"), 0);
    }

    /// More sites than workers on any machine, so that sites share a
    /// worker's inbox: every reply comes from the site its command was
    /// sent to, and each site's replies arrive in send order.
    #[test]
    fn threaded_shared_inbox_routes_each_site_in_order() {
        use mdbs_common::ids::GlobalTxnId;
        use mdbs_core::coordinator::Arrival;
        use mdbs_core::gtm1::{Gtm1Event, ServerCommand};
        use mdbs_localdb::engine::LocalDbms;
        const TXNS: u64 = 4;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let sites = 2 * cores + 1;
        let servers = (0..sites)
            .map(|i| {
                let db = LocalDbms::new(SiteId(i as u32), LocalProtocolKind::TwoPhaseLocking);
                Server::new(db)
            })
            .collect();
        let mut live = Live::start(servers, spin_budget());
        for cmd in [ServerCommand::Begin, ServerCommand::Commit] {
            for txn in (1..=TXNS).map(GlobalTxnId) {
                for i in 0..sites {
                    live.send(SiteId(i as u32), SiteMsg::Command(txn, cmd));
                }
            }
            let mut done: Vec<Vec<GlobalTxnId>> = vec![Vec::new(); sites];
            let mut arrived = Vec::new();
            while done.iter().map(Vec::len).sum::<usize>() < sites * TXNS as usize {
                assert!(live.recv(None, &mut arrived), "{cmd:?}: replies stopped");
                for (from, reply) in arrived.drain(..) {
                    let Reply::Gtm(Arrival::Gtm1(Gtm1Event::ServerDone { txn, site })) = reply
                    else {
                        panic!("{cmd:?} at {from:?}: {reply:?}")
                    };
                    assert_eq!(site, from, "{cmd:?} {txn}");
                    done[site.index()].push(txn);
                }
            }
            let sent: Vec<GlobalTxnId> = (1..=TXNS).map(GlobalTxnId).collect();
            for (i, txns) in done.iter().enumerate() {
                assert_eq!(txns, &sent, "{cmd:?} at site {i}");
            }
        }
        let mut registry = Registry::default();
        let back = live.finish(&mut registry);
        let ids: Vec<SiteId> = back.iter().map(|server| server.db.site()).collect();
        assert_eq!(ids, (0..sites as u32).map(SiteId).collect::<Vec<_>>());
        assert_eq!(registry.counter("threaded.send_dropped"), 0);
    }

    /// A `live_spread`-shaped run (four 2PL sites, 32 clients, few
    /// conflicts) with no spinning: the workers block between messages and
    /// the coordinator's sends wake them, and every program finishes.
    #[test]
    fn threaded_run_without_spinning_wakes_its_workers() {
        let spec = WorkloadSpec {
            sites: 4,
            global_txns: 300,
            items_per_site: 4096,
            ..workload_spec(4, 0, 11)
        };
        let sites = vec![LocalProtocolKind::TwoPhaseLocking; 4];
        let mut system = MdbsSystem::new(ThreadedMdbs::new(sites, SchemeKind::Scheme2, 32).cfg);
        system.load(Workload::generate(&spec).globals, Vec::new());
        let report = system.run_loaded_live_spinning(0);
        let m = &report.metrics;
        assert_eq!(m.global_commits + m.global_failures, 300, "{m:?}");
        assert!(report.is_serializable(), "{:?}", report.audit);
        assert!(report.ser_s_ok);
        assert!(report.registry.counter("threaded.parks") > 0);
        assert_eq!(report.registry.counter("threaded.send_dropped"), 0);
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

    /// 3 and 4 sites multiplexed onto [`site_workers`] threads: every program finishes, the audit
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
