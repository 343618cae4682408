//! The full MDBS assembled — the GTM, the site servers and their
//! heterogeneous local DBMSs — and the one driver of every run. Admission,
//! retries, local drivers, block expiry, crashes, tracing, the audit and
//! the [`RunReport`] are written once, here; a transport only carries each
//! site message to a `Server` and brings its replies back: the seeded
//! event queue ([`MdbsSystem::run`]) or live threads
//! ([`MdbsSystem::run_live`], see [`crate::threaded`]).
//!
//! - The GTM (GTM1 and GTM2) is centrally located; their interaction is
//!   immediate. It is one [`Coordinator`]: the driver hands it each
//!   [`Arrival`] at the arrival's time and puts what comes out on the wire.
//!   Messages between the GTM and site servers take [`LatencyConfig::net`]
//!   microseconds; each local operation costs [`LatencyConfig::proc`].
//! - A blocked operation that exceeds [`LatencyConfig::block_timeout`] is
//!   aborted — the standard practical resolution for cross-layer global
//!   deadlocks (a transaction stalled on a local lock whose holder is
//!   queued behind it in GTM2), which the paper's model abstracts away.
//! - Globally aborted transactions are retried with a fresh id up to
//!   [`SystemConfig::max_retries`] times; global admission is closed-loop
//!   with multiprogramming level [`SystemConfig::mpl`].

use crate::audit::audit_sites;
use crate::event::{EventQueue, SimTime};
use crate::metrics::Metrics;
use crate::server::{LocalStep, Reply, Server, SiteMsg};
use crate::threaded::{spin_budget, Live};
use mdbs_common::dense::IdHashMap;
use mdbs_common::error::{AbortReason, MdbsError};
use mdbs_common::ids::{GlobalTxnId, LocalTxnId, SiteId, TxnId};
use mdbs_common::instrument::{Registry, SchedEvent, TracedEvent};
use mdbs_common::rng::{derive_rng, DetRng};
use mdbs_common::step::StepCounter;
use mdbs_core::coordinator::{Arrival, Coordinator, Outbound};
use mdbs_core::gtm1::{Gtm1, Gtm1Event, ServerCommand};
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::scheme::SchemeKind;
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::engine::{EngineStats, LocalDbms, OpOutcome};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_localdb::storage::{Storage, Value};
use mdbs_schedule::global::GlobalSerializability;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::LocalTxnProgram;
use rand::Rng;
use std::collections::BTreeMap;

/// Message and processing delays, in microseconds: simulated in the DES,
/// and added to the physical hops on the live transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// One-way GTM ↔ site message delay.
    pub net: SimTime,
    /// Local DBMS processing time per operation.
    pub proc: SimTime,
    /// Gap between a local transaction's operations (its think time).
    pub local_gap: SimTime,
    /// Abort a blocked operation after this long.
    pub block_timeout: SimTime,
    /// Base backoff before retrying an aborted transaction.
    pub retry_backoff: SimTime,
    /// Mean gap between admissions of queued global transactions.
    pub arrival_gap: SimTime,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            net: 200,
            proc: 50,
            local_gap: 100,
            block_timeout: 60_000,
            retry_backoff: 2_000,
            arrival_gap: 500,
        }
    }
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Per-site protocols (index = site id).
    pub protocols: Vec<LocalProtocolKind>,
    /// GTM2 scheme.
    pub scheme: SchemeKind,
    /// Delays.
    pub latency: LatencyConfig,
    /// Experiment seed.
    pub seed: u64,
    /// Closed-loop multiprogramming level for global transactions.
    pub mpl: usize,
    /// Retry budget per logical global transaction.
    pub max_retries: u32,
    /// Pre-populate each site's items `0..prefill_items` with this value.
    pub prefill_value: Value,
    /// Number of items to pre-populate per site.
    pub prefill_items: u64,
    /// Run two-phase commit (atomic global commitment; prepare becomes the
    /// serialization event at commit-event sites).
    pub two_phase_commit: bool,
    /// Scheduled site failures: `(at, site, down_for)` — at simulated time
    /// `at` the site's DBMS crashes (volatile state lost, durable state
    /// kept) and rejects commands until `at + down_for`.
    pub crashes: Vec<(SimTime, SiteId, SimTime)>,
    /// Per-site serialization-event overrides. The default per protocol is
    /// the paper's mapping ([`SerializationEvent::for_protocol`]); an
    /// override supports footnote 3's point that *several* functions can
    /// be valid (e.g. a ticket at a TO site) — and lets experiments
    /// demonstrate what goes wrong with an *invalid* one (EXP-TKT).
    pub event_overrides: Vec<(SiteId, SerializationEvent)>,
}

impl SystemConfig {
    /// Start building a configuration.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }
}

/// Builder for [`SystemConfig`].
#[derive(Clone, Debug, Default)]
pub struct SystemConfigBuilder {
    protocols: Vec<LocalProtocolKind>,
    scheme: Option<SchemeKind>,
    latency: Option<LatencyConfig>,
    seed: u64,
    mpl: Option<usize>,
    max_retries: Option<u32>,
    prefill_value: Option<Value>,
    prefill_items: Option<u64>,
    two_phase_commit: bool,
    crashes: Vec<(SimTime, SiteId, SimTime)>,
    event_overrides: Vec<(SiteId, SerializationEvent)>,
}

impl SystemConfigBuilder {
    /// Add a site running `protocol`.
    pub fn site(mut self, protocol: LocalProtocolKind) -> Self {
        self.protocols.push(protocol);
        self
    }

    /// Add `n` sites all running `protocol`.
    pub fn sites(mut self, n: usize, protocol: LocalProtocolKind) -> Self {
        self.protocols.extend(std::iter::repeat_n(protocol, n));
        self
    }

    /// Select the GTM2 scheme (default: Scheme 3).
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Override latencies.
    pub fn latency(mut self, latency: LatencyConfig) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Closed-loop multiprogramming level (default 8).
    pub fn mpl(mut self, mpl: usize) -> Self {
        self.mpl = Some(mpl);
        self
    }

    /// Retry budget (default 10).
    pub fn max_retries(mut self, r: u32) -> Self {
        self.max_retries = Some(r);
        self
    }

    /// Pre-populate `items` items per site with `value` each.
    pub fn prefill(mut self, items: u64, value: Value) -> Self {
        self.prefill_items = Some(items);
        self.prefill_value = Some(value);
        self
    }

    /// Enable two-phase commit (default off, matching the paper's model).
    pub fn two_phase_commit(mut self, on: bool) -> Self {
        self.two_phase_commit = on;
        self
    }

    /// Schedule a site crash at simulated time `at`, with the site down
    /// for `down_for` microseconds.
    pub fn crash(mut self, at: SimTime, site: SiteId, down_for: SimTime) -> Self {
        self.crashes.push((at, site, down_for));
        self
    }

    /// Override the serialization event used for a site (default: the
    /// paper's per-protocol mapping). Overriding with an event that is not
    /// a valid serialization function for the site's protocol breaks the
    /// Theorem 1 premise — useful only for negative experiments.
    pub fn override_serialization_event(mut self, site: SiteId, event: SerializationEvent) -> Self {
        self.event_overrides.push((site, event));
        self
    }

    /// Finish. Panics if no site was added.
    pub fn build(self) -> SystemConfig {
        assert!(!self.protocols.is_empty(), "at least one site required");
        SystemConfig {
            protocols: self.protocols,
            scheme: self.scheme.unwrap_or(SchemeKind::Scheme3),
            latency: self.latency.unwrap_or_default(),
            seed: self.seed,
            mpl: self.mpl.unwrap_or(8),
            max_retries: self.max_retries.unwrap_or(10),
            prefill_value: self.prefill_value.unwrap_or(0),
            prefill_items: self.prefill_items.unwrap_or(0),
            two_phase_commit: self.two_phase_commit,
            crashes: self.crashes,
            event_overrides: self.event_overrides,
        }
    }
}

/// Outcome of a run, on either transport.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Run counters and timings.
    pub metrics: Metrics,
    /// Global-serializability verdict over every local schedule.
    pub audit: GlobalSerializability,
    /// GTM1 counters.
    pub gtm1: mdbs_core::gtm1::Gtm1Stats,
    /// GTM2 counters (waits = degree-of-concurrency metric).
    pub gtm2: Gtm2Stats,
    /// GTM2 abstract step counts (complexity metric).
    pub gtm2_steps: StepCounter,
    /// Whether the recorded `ser(S)` was serializable (Theorems 3/5/8).
    pub ser_s_ok: bool,
    /// Per-site protocol and engine counters.
    pub site_stats: Vec<(SiteId, LocalProtocolKind, EngineStats)>,
    /// Sum of all item values per site after the run (for conservation
    /// checks in example scenarios).
    pub storage_totals: Vec<i128>,
    /// Metrics snapshot: GTM1, GTM2, per-site engine and simulator
    /// counters exported into one registry.
    pub registry: Registry,
}

impl RunReport {
    /// Convenience: true iff globally serializable.
    pub fn is_serializable(&self) -> bool {
        self.audit.is_serializable()
    }
}

/// The driver's events, on either transport.
enum SimEvent {
    /// Admit (or retry) logical global program `idx`.
    SubmitGlobal { idx: usize },
    /// A GTM1 server command arrives at its site.
    DeliverServerCmd {
        txn: GlobalTxnId,
        site: SiteId,
        cmd: ServerCommand,
    },
    /// A server's reply arrives at the GTM.
    DeliverGtm { arrival: Arrival },
    /// Local driver `idx` issues its next step (a new attempt: `begin`).
    LocalNext { idx: usize, attempt: u32 },
    /// Check a blocked operation for timeout.
    BlockTimeout {
        site: SiteId,
        txn: TxnId,
        epoch: u64,
    },
    /// A scheduled site failure fires.
    CrashSite { site: SiteId, down_for: SimTime },
}

/// Per-logical-global-program progress.
#[derive(Clone, Debug, Default)]
struct ProgState {
    first_submit: Option<SimTime>,
    attempts: u32,
    done: bool,
}

/// Progress of one background local transaction program. Local
/// transactions enter through the local DBMS, unseen by the GTM: they are
/// Section 1's indirect conflicts.
struct LocalDriver {
    program: LocalTxnProgram,
    /// The next step: 0 is `begin`, `1..=len` the operations, then
    /// `commit`.
    cursor: usize,
    /// The current attempt's transaction.
    txn: Option<LocalTxnId>,
    attempts: u32,
    /// Committed, or given up.
    done: bool,
}

impl LocalDriver {
    fn step(&self) -> LocalStep {
        match self.cursor {
            0 => LocalStep::Begin,
            c => self
                .program
                .ops
                .get(c - 1)
                .map_or(LocalStep::Commit, |&op| LocalStep::Op(op)),
        }
    }
}

/// The assembled multidatabase and the one driver of every run, over the
/// seeded event queue ([`MdbsSystem::run`]) or live threads
/// ([`MdbsSystem::run_live`]).
pub struct MdbsSystem {
    cfg: SystemConfig,
    queue: EventQueue<SimEvent>,
    gtm: Coordinator,
    /// The coordinator's output buffer, empty between GTM rounds.
    outbound: Vec<Outbound>,
    /// The site servers. During a live run they are on the site workers.
    servers: Vec<Server>,
    /// The servers' reply buffer, empty between deliveries.
    replies: Vec<Reply>,
    /// The live transport, while a live run is on.
    live: Option<Live>,
    /// What the live transport exported when it shut down.
    transport_metrics: Registry,
    blocked_epoch: BTreeMap<(SiteId, TxnId), u64>,
    epoch_ctr: u64,
    drivers: Vec<LocalDriver>,
    /// The driver each local transaction id was issued to.
    local_owner: IdHashMap<LocalTxnId, usize>,
    local_seq: Vec<u64>,
    programs: Vec<GlobalTransaction>,
    prog_state: Vec<ProgState>,
    id2prog: IdHashMap<GlobalTxnId, usize>,
    next_txn_id: u64,
    next_program: usize,
    /// Programs and local drivers not yet done.
    open: usize,
    metrics: Metrics,
    rng: DetRng,
    /// Sites currently down, with the time they come back.
    down_until: BTreeMap<SiteId, SimTime>,
    /// The run's trace: the driver's events and, after each GTM round,
    /// the coordinator's; `None` = tracing off.
    trace: Option<Vec<TracedEvent>>,
}

/// Panics on a non-conservative scheme: the baselines abort global
/// transactions, which the MDBS does not model.
pub(crate) fn assert_conservative(scheme: SchemeKind) {
    assert!(
        scheme.is_conservative(),
        "{scheme} is not conservative: the MDBS runs Schemes 0-3 only; run baselines with mdbs_core::replay"
    );
}

/// Panics on a serialization-event override or a crash naming a site the
/// config has no protocol for: GTM1 would admit programs there and command
/// a server that does not exist.
fn assert_sites_configured(cfg: &SystemConfig) {
    let n = cfg.protocols.len();
    for &(site, _) in &cfg.event_overrides {
        assert!(
            site.index() < n,
            "serialization-event override names site {site}, but only {n} sites are configured"
        );
    }
    for &(_, site, _) in &cfg.crashes {
        assert!(
            site.index() < n,
            "crash names site {site}, but only {n} sites are configured"
        );
    }
}

impl MdbsSystem {
    /// Build a system from a configuration. Panics on a non-conservative
    /// scheme (the baselines abort global transactions, which the MDBS
    /// does not model) and on a serialization-event override or a crash
    /// naming a site that has no protocol.
    pub fn new(cfg: SystemConfig) -> Self {
        assert_conservative(cfg.scheme);
        assert_sites_configured(&cfg);
        let sites: Vec<LocalDbms> = cfg
            .protocols
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                // Pre-populate items 1..=prefill_items (item 0 is the
                // reserved ticket and stays at 0).
                let mut storage = Storage::new();
                for item in 1..=cfg.prefill_items {
                    storage.write(mdbs_common::ids::DataItemId(item), cfg.prefill_value);
                }
                LocalDbms::with_storage(SiteId(i as u32), p, storage)
            })
            .collect();
        let mut site_events: BTreeMap<SiteId, SerializationEvent> = sites
            .iter()
            .map(|db| (db.site(), db.serialization_event()))
            .collect();
        for &(site, event) in &cfg.event_overrides {
            site_events.insert(site, event);
        }
        let rng = derive_rng(cfg.seed, "mdbs-sim");
        let gtm1 = if cfg.two_phase_commit {
            Gtm1::new_two_phase(site_events)
        } else {
            Gtm1::new(site_events)
        };
        MdbsSystem {
            gtm: Coordinator::new(gtm1, Gtm2::new(cfg.scheme.build())),
            outbound: Vec::new(),
            servers: sites.into_iter().map(Server::new).collect(),
            replies: Vec::new(),
            live: None,
            transport_metrics: Registry::default(),
            blocked_epoch: BTreeMap::new(),
            epoch_ctr: 0,
            drivers: Vec::new(),
            local_owner: IdHashMap::default(),
            local_seq: vec![0; cfg.protocols.len()],
            programs: Vec::new(),
            prog_state: Vec::new(),
            id2prog: IdHashMap::default(),
            next_txn_id: 1,
            next_program: 0,
            open: 0,
            metrics: Metrics::default(),
            queue: EventQueue::new(),
            rng,
            down_until: BTreeMap::new(),
            trace: None,
            cfg,
        }
    }

    /// Run a workload to completion in simulated time and report.
    pub fn run(&mut self, workload: Workload) -> RunReport {
        self.load(workload.globals, workload.locals);
        while let Some((_, event)) = self.queue.pop() {
            self.step(event);
        }
        self.report()
    }

    /// Run a workload to completion on live threads and report. Each
    /// site's server runs on a site worker thread; time is wall
    /// microseconds since the run started, and the [`LatencyConfig`]
    /// delays are added to the physical hops. The run ends when every
    /// program and local driver is done.
    pub fn run_live(&mut self, workload: Workload) -> RunReport {
        self.load(workload.globals, workload.locals);
        self.run_loaded_live()
    }

    /// Queue a run's first events: local drivers, crashes, admissions.
    pub(crate) fn load(&mut self, globals: Vec<GlobalTransaction>, locals: Vec<LocalTxnProgram>) {
        self.programs = globals;
        self.prog_state = vec![ProgState::default(); self.programs.len()];
        let driver = |program| LocalDriver {
            program,
            cursor: 0,
            txn: None,
            attempts: 0,
            done: false,
        };
        self.drivers = locals.into_iter().map(driver).collect();
        self.open = self.programs.len() + self.drivers.len();

        // Stagger local driver starts across the early run.
        for i in 0..self.drivers.len() {
            let at = self.rng.gen_range(0..=self.cfg.latency.arrival_gap * 4);
            let event = SimEvent::LocalNext { idx: i, attempt: 0 };
            self.queue.schedule_at(at, event);
        }
        // Scheduled site failures.
        for &(at, site, down_for) in &self.cfg.crashes.clone() {
            self.queue
                .schedule_at(at, SimEvent::CrashSite { site, down_for });
        }
        // Closed-loop admission: the first `mpl` programs.
        let initial = self.cfg.mpl.min(self.programs.len());
        for idx in 0..initial {
            let at = idx as SimTime * self.cfg.latency.arrival_gap;
            self.queue.schedule_at(at, SimEvent::SubmitGlobal { idx });
        }
        self.next_program = initial;
    }

    /// Run what [`MdbsSystem::load`] queued on the live transport. Each
    /// pass reads the wall clock once: the timers due by then run, then
    /// the site replies the last wait brought, then what they made due.
    /// The run ends when nothing is open — or when the sites fall quiet
    /// with no timer pending, which the wedge check in the report names.
    pub(crate) fn run_loaded_live(&mut self) -> RunReport {
        self.run_loaded_live_spinning(spin_budget())
    }

    /// [`MdbsSystem::run_loaded_live`] with the coordinator and the site
    /// workers polling `spin_polls` times before they sleep.
    pub(crate) fn run_loaded_live_spinning(&mut self, spin_polls: u32) -> RunReport {
        let servers = std::mem::take(&mut self.servers);
        self.live = Some(Live::start(servers, spin_polls));
        let mut arrived = Vec::new();
        while let Some(now) = self.live.as_ref().map(Live::now) {
            self.run_due(now);
            for (site, reply) in arrived.drain(..) {
                self.on_reply(site, reply);
            }
            let next = self.run_due(now);
            if self.open == 0 {
                break;
            }
            let Some(live) = &self.live else { break };
            if !live.recv(next, &mut arrived) && next.is_none() {
                break;
            }
        }
        if let Some(live) = self.live.take() {
            self.servers = live.finish(&mut self.transport_metrics);
        }
        self.report()
    }

    /// Dispatch every event due by `now`; `None`, or when the next one
    /// falls due.
    fn run_due(&mut self, now: SimTime) -> Option<SimTime> {
        loop {
            match self.queue.pop_due(now) {
                Ok(event) => self.step(event),
                Err(next) => return next,
            }
        }
    }

    /// Dispatch one event.
    fn step(&mut self, event: SimEvent) {
        self.metrics.events += 1;
        assert!(self.metrics.events < 50_000_000, "runaway simulation");
        self.dispatch(event);
    }

    /// The report of a finished run, on either transport.
    fn report(&self) -> RunReport {
        // Sanity: everything must have finished.
        let unfinished: Vec<usize> = self
            .prog_state
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.done)
            .map(|(i, _)| i)
            .collect();
        let gtm2 = self.gtm.gtm2();
        assert!(
            unfinished.is_empty(),
            "simulation wedged: programs {unfinished:?} unfinished (scheme {}, gtm2 wait={} queue={})",
            gtm2.scheme_name(),
            gtm2.wait_len(),
            gtm2.queue_len(),
        );

        RunReport {
            metrics: self.metrics.clone(),
            registry: self.export_metrics(),
            audit: audit_sites(self.dbs()),
            gtm1: self.gtm.gtm1().stats(),
            gtm2: gtm2.stats(),
            gtm2_steps: gtm2.steps(),
            ser_s_ok: gtm2.ser_log().check().is_ok(),
            site_stats: self
                .dbs()
                .map(|db| (db.site(), db.protocol_kind(), db.stats()))
                .collect(),
            storage_totals: self.dbs().map(|db| db.storage().data_total()).collect(),
        }
    }

    fn dbs(&self) -> impl Iterator<Item = &LocalDbms> {
        self.servers.iter().map(|s| &s.db)
    }

    /// Read access to a site's engine after a run (examples inspect final
    /// storage and histories).
    pub fn site(&self, site: SiteId) -> &LocalDbms {
        &self.servers[site.index()].db
    }

    /// Snapshot every component's counters into one metrics [`Registry`]:
    /// `gtm1.*`, `gtm2.*`, `site.*` and `sim.*`, and after a live run
    /// `threaded.*`.
    pub fn export_metrics(&self) -> Registry {
        let mut registry = Registry::default();
        self.gtm.export_metrics(&mut registry);
        for db in self.dbs() {
            db.export_metrics(&mut registry);
        }
        self.metrics.export_metrics(&mut registry);
        registry.merge(&self.transport_metrics);
        registry
    }

    /// Trace the next run: the driver's own events (submit, completion,
    /// timeout, crash) and GTM1's and GTM2's (enqueue, cond, act, wake,
    /// wait, abort) land in one record, in the order they happened,
    /// stamped with the run's clock.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
        self.gtm.set_tracing(true);
    }

    /// Take the trace recorded by the last run (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<Vec<TracedEvent>> {
        self.gtm.set_tracing(false);
        self.trace.take()
    }

    fn record(&mut self, event: SchedEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(TracedEvent {
                at: self.queue.now(),
                event,
            });
        }
    }

    /// True while `site` is crashed.
    fn site_is_down(&self, site: SiteId) -> bool {
        self.down_until
            .get(&site)
            .is_some_and(|&until| self.queue.now() < until)
    }

    /// Redeliver an event once the site is back (plus a network hop —
    /// coordinators retry until the site answers).
    fn redeliver_at_recovery(&mut self, site: SiteId, event: SimEvent) {
        let until = self.down_until.get(&site).copied().unwrap_or(0);
        self.queue.schedule_at(until + self.cfg.latency.net, event);
    }

    fn crash_site(&mut self, site: SiteId, down_for: SimTime) {
        self.metrics.crashes += 1;
        let until = self.queue.now() + down_for;
        self.record(SchedEvent::Crash { site, until });
        self.down_until.insert(site, until);
        self.send(site, SiteMsg::Crash);
    }

    fn dispatch(&mut self, event: SimEvent) {
        match event {
            SimEvent::SubmitGlobal { idx } => self.submit_global(idx),
            SimEvent::DeliverServerCmd { txn, site, cmd } => {
                if self.site_is_down(site) {
                    // The GTM retries until the site answers.
                    self.redeliver_at_recovery(site, SimEvent::DeliverServerCmd { txn, site, cmd });
                    return;
                }
                self.send(site, SiteMsg::Command(txn, cmd));
            }
            SimEvent::DeliverGtm { arrival } => self.gtm_round(arrival),
            SimEvent::LocalNext { idx, attempt } => self.local_next(idx, attempt),
            SimEvent::BlockTimeout { site, txn, epoch } => self.block_timeout(site, txn, epoch),
            SimEvent::CrashSite { site, down_for } => self.crash_site(site, down_for),
        }
    }

    /// Schedule a message `delay` microseconds from now. The live
    /// transport dispatches a zero-delay one at once: the physical hop was
    /// its delay.
    fn after(&mut self, delay: SimTime, event: SimEvent) {
        if delay == 0 && self.live.is_some() {
            self.step(event);
        } else {
            self.queue.schedule_in(delay, event);
        }
    }

    // ------------------------------------------------------------------
    // Global transaction admission and completion
    // ------------------------------------------------------------------

    fn submit_global(&mut self, idx: usize) {
        let id = GlobalTxnId(self.next_txn_id);
        self.next_txn_id += 1;
        let state = &mut self.prog_state[idx];
        state.attempts += 1;
        state.first_submit.get_or_insert(self.queue.now());
        self.id2prog.insert(id, idx);
        let attempt = self.prog_state[idx].attempts;
        self.record(SchedEvent::Submitted {
            txn: id,
            program: idx,
            attempt,
        });
        let program = GlobalTransaction {
            id,
            steps: self.programs[idx].steps.clone(),
        };
        self.gtm_round(Arrival::Gtm1(Gtm1Event::Submit(program)));
    }

    fn handle_completed(&mut self, txn: GlobalTxnId, aborted: Option<AbortReason>) {
        let idx = self.id2prog.remove(&txn).expect("completion for known txn");
        match aborted {
            None => {
                self.metrics.global_commits += 1;
                let first = self.prog_state[idx].first_submit.expect("submitted");
                self.metrics
                    .global_response
                    .record(self.queue.now() - first);
                self.finish_program(idx);
            }
            Some(AbortReason::Refused) => {
                // GTM1 refused the program at admission: nothing ran, and
                // a retry would be refused again.
                self.metrics.global_failures += 1;
                self.finish_program(idx);
            }
            Some(_) => {
                self.metrics.global_aborts += 1;
                if self.prog_state[idx].attempts <= self.cfg.max_retries {
                    let backoff = self.cfg.latency.retry_backoff
                        * u64::from(self.prog_state[idx].attempts)
                        + self.rng.gen_range(0..=self.cfg.latency.retry_backoff);
                    self.queue
                        .schedule_in(backoff, SimEvent::SubmitGlobal { idx });
                } else {
                    self.metrics.global_failures += 1;
                    self.finish_program(idx);
                }
            }
        }
    }

    /// Program `idx` committed or gave up: admit the next one.
    fn finish_program(&mut self, idx: usize) {
        self.prog_state[idx].done = true;
        self.close_one();
        if self.next_program < self.programs.len() && self.id2prog.len() < self.cfg.mpl {
            let idx = self.next_program;
            self.next_program += 1;
            self.queue
                .schedule_in(self.cfg.latency.arrival_gap, SimEvent::SubmitGlobal { idx });
        }
    }

    // ------------------------------------------------------------------
    // GTM processing (GTM1 <-> GTM2, both co-located: immediate)
    // ------------------------------------------------------------------

    /// Hand one arrival to the GTM and put what it sends on the wire.
    fn gtm_round(&mut self, arrival: Arrival) {
        let mut out = std::mem::take(&mut self.outbound);
        self.gtm.handle(self.queue.now(), arrival, &mut out);
        for msg in out.drain(..) {
            match msg {
                Outbound::Server { txn, site, cmd } => self.after(
                    self.cfg.latency.net,
                    SimEvent::DeliverServerCmd { txn, site, cmd },
                ),
                Outbound::Completed { txn, aborted } => {
                    self.record(SchedEvent::Completed {
                        txn,
                        committed: aborted.is_none(),
                    });
                    self.handle_completed(txn, aborted);
                }
            }
        }
        self.outbound = out;
        if let Some(trace) = &mut self.trace {
            trace.extend(self.gtm.drain_trace());
        }
    }

    // ------------------------------------------------------------------
    // Site messages, server replies and timeouts
    // ------------------------------------------------------------------

    /// Send one message to `site`'s server. The DES runs it here and
    /// handles the replies in the order the server pushed them; the live
    /// transport carries it to the site's task, and the replies come back
    /// through the run loop.
    fn send(&mut self, site: SiteId, msg: SiteMsg) {
        if let Some(live) = &mut self.live {
            return live.send(site, msg);
        }
        self.servers[site.index()].run(msg, &mut self.replies);
        let mut replies = std::mem::take(&mut self.replies);
        for reply in replies.drain(..) {
            self.on_reply(site, reply);
        }
        self.replies = replies;
    }

    /// Handle one reply from `site`'s server: a message for the GTM goes
    /// on the wire (one processing step plus one network hop back), and
    /// the timeout epochs follow what blocked and what resolved.
    fn on_reply(&mut self, site: SiteId, reply: Reply) {
        match reply {
            Reply::Gtm(arrival) => {
                let delay = self.cfg.latency.proc + self.cfg.latency.net;
                self.after(delay, SimEvent::DeliverGtm { arrival });
            }
            Reply::Blocked(txn) => self.arm_timeout(site, txn),
            Reply::Unblocked(txn) => {
                self.blocked_epoch.remove(&(site, txn));
            }
            Reply::LocalCompletion(txn, outcome) => self.local_completion(txn, outcome),
        }
    }

    fn arm_timeout(&mut self, site: SiteId, txn: TxnId) {
        self.epoch_ctr += 1;
        let epoch = self.epoch_ctr;
        self.blocked_epoch.insert((site, txn), epoch);
        self.queue.schedule_in(
            self.cfg.latency.block_timeout,
            SimEvent::BlockTimeout { site, txn, epoch },
        );
    }

    fn block_timeout(&mut self, site: SiteId, txn: TxnId, epoch: u64) {
        if self.blocked_epoch.get(&(site, txn)) != Some(&epoch) {
            return; // resolved long ago
        }
        self.blocked_epoch.remove(&(site, txn));
        self.metrics.timeouts += 1;
        self.record(SchedEvent::Timeout { site });
        // Abort the stalled transaction; the resulting completion routes
        // the failure to its owner (server task or local driver).
        self.send(site, SiteMsg::Expire(txn));
    }

    // ------------------------------------------------------------------
    // Local transaction drivers
    // ------------------------------------------------------------------

    /// Driver `idx` issues the step at its cursor; with no transaction
    /// yet, that is a new attempt's `begin`.
    fn local_next(&mut self, idx: usize, attempt: u32) {
        let d = &self.drivers[idx];
        if d.done || d.attempts != attempt {
            return; // stale event from a previous attempt
        }
        let site = d.program.site;
        if self.site_is_down(site) {
            self.redeliver_at_recovery(site, SimEvent::LocalNext { idx, attempt });
            return;
        }
        let txn = match d.txn {
            Some(txn) => txn,
            None => {
                self.local_seq[site.index()] += 1;
                let seq = self.local_seq[site.index()];
                let txn = LocalTxnId { site, seq };
                self.local_owner.insert(txn, idx);
                self.drivers[idx].txn = Some(txn);
                txn
            }
        };
        let step = self.drivers[idx].step();
        self.send(site, SiteMsg::Local { txn, step });
    }

    /// A local driver's step came back, inline or after it blocked.
    fn local_completion(&mut self, txn: LocalTxnId, outcome: Result<OpOutcome, MdbsError>) {
        let Some(&idx) = self.local_owner.get(&txn) else {
            return;
        };
        if self.drivers[idx].done || self.drivers[idx].txn != Some(txn) {
            return; // an earlier attempt's
        }
        let attempt = self.drivers[idx].attempts;
        match outcome {
            Ok(OpOutcome::Committed) => {
                self.metrics.local_commits += 1;
                self.finish_local(idx);
            }
            Ok(_) => {
                self.drivers[idx].cursor += 1;
                self.queue.schedule_in(
                    self.cfg.latency.local_gap,
                    SimEvent::LocalNext { idx, attempt },
                );
            }
            Err(_) => self.local_retry(idx),
        }
    }

    fn local_retry(&mut self, idx: usize) {
        self.metrics.local_aborts += 1;
        let d = &mut self.drivers[idx];
        if d.attempts >= 20 {
            return self.finish_local(idx); // give up; keep the run terminating
        }
        (d.cursor, d.txn) = (0, None);
        d.attempts += 1;
        let attempt = d.attempts;
        let backoff = self.cfg.latency.retry_backoff * u64::from(attempt)
            + self.rng.gen_range(0..=self.cfg.latency.retry_backoff);
        self.queue
            .schedule_in(backoff, SimEvent::LocalNext { idx, attempt });
    }

    fn finish_local(&mut self, idx: usize) {
        self.drivers[idx].done = true;
        self.close_one();
    }

    /// A program or local driver is done. The run's work ends with the
    /// last one, so that is its makespan on either transport: the timers
    /// still queued behind it (stale block timeouts) do nothing.
    fn close_one(&mut self) {
        self.open -= 1;
        if self.open == 0 {
            self.metrics.makespan = self.queue.now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::DataItemId;
    use mdbs_workload::spec::LocalOp;

    #[test]
    fn local_driver_steps_through_its_program() {
        let program = LocalTxnProgram {
            site: SiteId(0),
            ops: vec![
                LocalOp::Read(DataItemId(1)),
                LocalOp::Write(DataItemId(2), 5),
            ],
        };
        let mut d = LocalDriver {
            program,
            cursor: 0,
            txn: None,
            attempts: 0,
            done: false,
        };
        assert!(matches!(d.step(), LocalStep::Begin));
        d.cursor = 2;
        assert!(matches!(d.step(), LocalStep::Op(LocalOp::Write(..))));
        d.cursor = 3;
        assert!(matches!(d.step(), LocalStep::Commit));
    }
}
