//! The full MDBS assembled: the GTM + servers + heterogeneous local
//! DBMSs, driven by a deterministic discrete-event loop.
//!
//! ## Model
//!
//! - The GTM (GTM1 and GTM2) is centrally located; their interaction is
//!   immediate. It is one [`Coordinator`], the same one the live runtime
//!   drives: the simulator hands it each [`Arrival`] at the arrival's
//!   simulated time and puts what comes out on the wire. Messages between
//!   the GTM and site servers take
//!   [`LatencyConfig::net`] microseconds; each local operation costs
//!   [`LatencyConfig::proc`].
//! - Servers execute GTM1's commands against their site's
//!   [`LocalDbms`]. Multi-step commands (`Add` read-modify-writes, ticket
//!   takes) run step-by-step, resuming when a blocked step completes.
//! - A blocked operation that exceeds [`LatencyConfig::block_timeout`] is
//!   aborted — the standard practical resolution for cross-layer global
//!   deadlocks (a transaction stalled on a local lock whose holder is
//!   queued behind it in GTM2), which the paper's model abstracts away.
//! - Globally aborted transactions are retried with a fresh id up to
//!   [`SystemConfig::max_retries`] times; global admission is closed-loop
//!   with multiprogramming level [`SystemConfig::mpl`].

use crate::audit::audit_sites;
use crate::event::{EventQueue, SimTime};
use crate::local_load::LocalDriver;
use crate::metrics::Metrics;
use crate::server::{Reply, Server};
use crate::trace::{Trace, TraceRecord};
use mdbs_common::error::{AbortReason, MdbsError};
use mdbs_common::ids::{GlobalTxnId, LocalTxnId, SiteId, TxnId};
use mdbs_common::instrument::{Registry, SharedSink};
use mdbs_common::rng::{derive_rng, DetRng};
use mdbs_common::step::StepCounter;
use mdbs_core::coordinator::{Arrival, Coordinator, Outbound};
use mdbs_core::gtm1::{Gtm1, Gtm1Event, ServerCommand};
use mdbs_core::gtm2::{Gtm2, Gtm2Stats};
use mdbs_core::scheme::SchemeKind;
use mdbs_core::txn::GlobalTransaction;
use mdbs_localdb::engine::{EngineStats, LocalDbms, OpOutcome, SubmitResult};
use mdbs_localdb::protocol::LocalProtocolKind;
use mdbs_localdb::serfn::SerializationEvent;
use mdbs_localdb::storage::{Storage, Value};
use mdbs_schedule::global::GlobalSerializability;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::LocalOp;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Message and processing delays (simulated microseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// Outcome of a full simulation run.
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

/// Simulation events.
#[derive(Clone, Debug)]
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
    /// Start (or retry) local driver `idx`.
    StartLocal { idx: usize },
    /// Local driver `idx` issues its next operation.
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

/// The assembled multidatabase simulator.
pub struct MdbsSystem {
    cfg: SystemConfig,
    queue: EventQueue<SimEvent>,
    gtm: Coordinator,
    /// The coordinator's output buffer, empty between GTM rounds.
    outbound: Vec<Outbound>,
    servers: Vec<Server>,
    /// The servers' reply buffer, empty between deliveries.
    replies: Vec<Reply>,
    blocked_epoch: BTreeMap<(SiteId, TxnId), u64>,
    epoch_ctr: u64,
    drivers: Vec<LocalDriver>,
    local_seq: Vec<u64>,
    programs: Vec<GlobalTransaction>,
    prog_state: Vec<ProgState>,
    id2prog: BTreeMap<GlobalTxnId, usize>,
    next_txn_id: u64,
    next_program: usize,
    inflight: usize,
    metrics: Metrics,
    rng: DetRng,
    /// Sites currently down, with the time they come back.
    down_until: BTreeMap<SiteId, SimTime>,
    trace: Option<Trace>,
    /// Our handle on the sink attached to the GTM while tracing: GTM1 and
    /// GTM2 record structured scheduling events into it and we drain them
    /// into `trace` after each GTM round.
    sched_sink: Option<SharedSink>,
}

impl MdbsSystem {
    /// Build a system from a configuration. Panics on a non-conservative
    /// scheme: the baselines abort global transactions, which the MDBS
    /// does not model.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            cfg.scheme.is_conservative(),
            "{} is not conservative: the MDBS runs Schemes 0-3 only; run baselines with mdbs_core::replay",
            cfg.scheme
        );
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
            blocked_epoch: BTreeMap::new(),
            epoch_ctr: 0,
            drivers: Vec::new(),
            local_seq: vec![0; cfg.protocols.len()],
            programs: Vec::new(),
            prog_state: Vec::new(),
            id2prog: BTreeMap::new(),
            next_txn_id: 1,
            next_program: 0,
            inflight: 0,
            metrics: Metrics::default(),
            queue: EventQueue::new(),
            rng,
            down_until: BTreeMap::new(),
            trace: None,
            sched_sink: None,
            cfg,
        }
    }

    /// Run a workload to completion and report.
    pub fn run(&mut self, workload: Workload) -> RunReport {
        self.programs = workload.globals;
        self.prog_state = vec![ProgState::default(); self.programs.len()];
        self.drivers = workload.locals.into_iter().map(LocalDriver::new).collect();

        // Stagger local driver starts across the early run.
        for i in 0..self.drivers.len() {
            let at = self.rng.gen_range(0..=self.cfg.latency.arrival_gap * 4);
            self.queue.schedule_at(at, SimEvent::StartLocal { idx: i });
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

        let max_events: u64 = 50_000_000;
        while let Some((_, event)) = self.queue.pop() {
            self.metrics.events += 1;
            assert!(self.metrics.events < max_events, "runaway simulation");
            self.dispatch(event);
        }
        self.metrics.makespan = self.queue.now();

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
    /// `gtm1.*`, `gtm2.*`, `site.*` and `sim.*`.
    pub fn export_metrics(&self) -> Registry {
        let mut registry = Registry::default();
        self.gtm.export_metrics(&mut registry);
        for db in self.dbs() {
            db.export_metrics(&mut registry);
        }
        self.metrics.export_metrics(&mut registry);
        registry
    }

    /// Enable structured tracing for the next run. Besides the simulator's
    /// own records, this attaches a shared [`TraceSink`] to GTM1 and GTM2
    /// so their scheduling events (enqueue, cond, act, wake, wait, abort)
    /// converge into the same [`Trace`].
    ///
    /// [`TraceSink`]: mdbs_common::instrument::TraceSink
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
        let sink = SharedSink::new();
        self.gtm.set_sink(Some(sink.clone()));
        self.sched_sink = Some(sink);
    }

    /// Take the trace recorded by the last run (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.drain_sched_events();
        self.sched_sink = None;
        self.gtm.set_sink(None);
        self.trace.take()
    }

    /// Move scheduling events recorded by the GTM sinks into the trace.
    fn drain_sched_events(&mut self) {
        if let (Some(sink), Some(trace)) = (&self.sched_sink, &mut self.trace) {
            for ev in sink.drain() {
                trace.push(ev.at, TraceRecord::Sched { event: ev.event });
            }
        }
    }

    fn record(&mut self, record: TraceRecord) {
        if let Some(trace) = &mut self.trace {
            trace.push(self.queue.now(), record);
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
        self.record(TraceRecord::Crash { site, until });
        self.down_until.insert(site, until);
        // Volatile state lost: every active, non-prepared transaction dies;
        // completions carry the failures to their owners.
        self.servers[site.index()].db.crash();
        self.drain_site(site);
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
                self.servers[site.index()].execute(txn, cmd, &mut self.replies);
                self.deliver(site);
            }
            SimEvent::DeliverGtm { arrival } => self.gtm_round(arrival),
            SimEvent::StartLocal { idx } => self.start_local(idx),
            SimEvent::LocalNext { idx, attempt } => self.local_next(idx, attempt),
            SimEvent::BlockTimeout { site, txn, epoch } => self.block_timeout(site, txn, epoch),
            SimEvent::CrashSite { site, down_for } => self.crash_site(site, down_for),
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
        self.inflight += 1;
        let attempt = self.prog_state[idx].attempts;
        self.record(TraceRecord::Submitted {
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
        self.inflight -= 1;
        match aborted {
            None => {
                self.metrics.global_commits += 1;
                let first = self.prog_state[idx].first_submit.expect("submitted");
                self.metrics
                    .global_response
                    .record(self.queue.now() - first);
                self.prog_state[idx].done = true;
                self.admit_next();
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
                    self.prog_state[idx].done = true;
                    self.admit_next();
                }
            }
        }
    }

    fn admit_next(&mut self) {
        if self.next_program < self.programs.len() && self.inflight < self.cfg.mpl {
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
                Outbound::Server { txn, site, cmd } => self.queue.schedule_in(
                    self.cfg.latency.net,
                    SimEvent::DeliverServerCmd { txn, site, cmd },
                ),
                Outbound::Completed { txn, aborted } => {
                    self.record(TraceRecord::Completed {
                        txn,
                        committed: aborted.is_none(),
                    });
                    self.handle_completed(txn, aborted);
                }
            }
        }
        self.outbound = out;
        self.drain_sched_events();
    }

    // ------------------------------------------------------------------
    // Server replies, completion routing and timeouts
    // ------------------------------------------------------------------

    /// Route whatever the site's engine completed since the last drain.
    fn drain_site(&mut self, site: SiteId) {
        self.servers[site.index()].drain(&mut self.replies);
        self.deliver(site);
    }

    /// Put a server's replies on the wire (one processing step plus one
    /// network hop back to the GTM) and keep the timeout epochs current.
    fn deliver(&mut self, site: SiteId) {
        let delay = self.cfg.latency.proc + self.cfg.latency.net;
        let mut replies = std::mem::take(&mut self.replies);
        for reply in replies.drain(..) {
            match reply {
                Reply::Gtm(arrival) => self
                    .queue
                    .schedule_in(delay, SimEvent::DeliverGtm { arrival }),
                Reply::Blocked(txn) => self.arm_timeout(site, txn.into()),
                Reply::Unblocked(txn) => {
                    self.blocked_epoch.remove(&(site, txn.into()));
                }
                Reply::LocalCompletion(txn, outcome) => {
                    self.blocked_epoch.remove(&(site, txn.into()));
                    self.local_completion(site, txn, outcome);
                }
            }
        }
        self.replies = replies;
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
        self.record(TraceRecord::Timeout { site });
        // Abort the stalled transaction; the resulting completion routes
        // the failure to its owner (server task or local driver).
        let _ = self.servers[site.index()].db.request_abort(txn);
        self.drain_site(site);
    }

    // ------------------------------------------------------------------
    // Local transaction drivers
    // ------------------------------------------------------------------

    fn start_local(&mut self, idx: usize) {
        let site = self.drivers[idx].program.site;
        if self.site_is_down(site) {
            self.redeliver_at_recovery(site, SimEvent::StartLocal { idx });
            return;
        }
        self.local_seq[site.index()] += 1;
        let txn = LocalTxnId {
            site,
            seq: self.local_seq[site.index()],
        };
        let attempt = self.drivers[idx].attempts;
        {
            let d = &mut self.drivers[idx];
            d.txn = Some(txn);
            d.cursor = 0;
            d.waiting = false;
        }
        match self.servers[site.index()].db.begin(txn.into()) {
            Ok(()) => {
                self.queue.schedule_in(
                    self.cfg.latency.local_gap,
                    SimEvent::LocalNext { idx, attempt },
                );
            }
            Err(_) => self.local_retry(idx),
        }
        self.drain_site(site);
    }

    fn local_next(&mut self, idx: usize, attempt: u32) {
        let d = &self.drivers[idx];
        if d.done || d.attempts != attempt || d.waiting {
            return; // stale event from a previous attempt
        }
        let site = d.program.site;
        if self.site_is_down(site) {
            self.redeliver_at_recovery(site, SimEvent::LocalNext { idx, attempt });
            return;
        }
        let Some(txn) = d.txn else { return };
        let site = d.program.site;
        let op = if d.at_commit() {
            None
        } else {
            Some(d.program.ops[d.cursor])
        };
        let db = &mut self.servers[site.index()].db;
        let result = match op {
            None => db.submit_commit(txn.into()),
            Some(LocalOp::Read(item)) => db.submit_read(txn.into(), item),
            Some(LocalOp::Write(item, v)) => db.submit_write(txn.into(), item, v),
        };
        match result {
            Ok(SubmitResult::Done(outcome)) => self.local_outcome(idx, Ok(outcome)),
            Ok(SubmitResult::Blocked) => {
                self.drivers[idx].waiting = true;
                self.arm_timeout(site, txn.into());
            }
            Err(e) => self.local_outcome(idx, Err(e)),
        }
        self.drain_site(site);
    }

    fn local_completion(
        &mut self,
        site: SiteId,
        txn: LocalTxnId,
        outcome: Result<OpOutcome, MdbsError>,
    ) {
        let Some(idx) = self
            .drivers
            .iter()
            .position(|d| d.program.site == site && d.txn == Some(txn) && !d.done)
        else {
            return;
        };
        self.drivers[idx].waiting = false;
        self.local_outcome(idx, outcome);
    }

    /// Driver `idx`'s current operation came back, inline or as a
    /// completion.
    fn local_outcome(&mut self, idx: usize, outcome: Result<OpOutcome, MdbsError>) {
        let attempt = self.drivers[idx].attempts;
        match outcome {
            Ok(OpOutcome::Committed) => {
                self.metrics.local_commits += 1;
                self.drivers[idx].done = true;
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
            d.done = true; // give up; keep the run terminating
            return;
        }
        d.reset_for_retry();
        let backoff = self.cfg.latency.retry_backoff * u64::from(d.attempts)
            + self.rng.gen_range(0..=self.cfg.latency.retry_backoff);
        self.queue
            .schedule_in(backoff, SimEvent::StartLocal { idx });
    }
}
