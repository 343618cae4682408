//! Genuinely-parallel replay of the partitioned schemes on the
//! work-stealing pool.
//!
//! [`replay_sharded`](crate::replay::replay_sharded) routes operations to
//! per-site shards but still pumps them from one thread; this module runs
//! the shards *concurrently* on [`mdbs_common::pool`] tasks. The paper's
//! structure is what makes that possible:
//!
//! - **Scheme 0** is zero-communication: `cond`/`act`/wake for every
//!   operation touch only one site's FIFO queue, `init`/`fin` engine
//!   bookkeeping is a handful of counters. Each site runs as an
//!   independent task over its statically-known event stream; the only
//!   shared state is the per-transaction outstanding-ack count (an
//!   atomic), which decides where the `fin` is processed.
//! - **Scheme 1** splits by data: insert queues, marks and the
//!   one-outstanding rule are per-site (site tasks), while the TSG,
//!   delete queues and fin waiters are transaction-scoped (one *domain*
//!   task). The domain walks the script in insertion order, processing
//!   `init`s itself and consuming each site's acknowledgement stream in
//!   lockstep ([`Mailbox`] wakes replace the sharded engine's handoff
//!   sweeps), so every global state transition happens in the exact order
//!   the single engine would apply it.
//! - Schemes 2/3 and the baselines have engine-global `cond`s, so they
//!   funnel through a single pool task running the standard replay —
//!   bit-identical by construction.
//!
//! ## Exactness
//!
//! Per-site `ser(S)` orders, violation counts, `waited`/`waited_kind`,
//! `enqueued`/`processed`/`inits`/`fins` and the paper-step totals
//! (`cond`/`act`/`wait_scan`, plus the wake-scan count/sum) are
//! **bit-identical** to the single engine: each charge in
//! [`Gtm2::pump`](crate::gtm2::Gtm2)'s cond/act/wake cycle is mirrored at
//! the task that owns the data it describes, and the totals are sums over
//! disjoint owners. The merged `ser_events` total order is reconstructed
//! from `(script event index, within-drain sequence)` tags — exact,
//! because every serialization event of one drain happens at one site.
//! Two documented approximations: `peak_wait` and `peak_active` are
//! maintained with atomic max over concurrent tasks, so they are valid
//! peaks of the parallel interleaving rather than the sequential one
//! (neither is a paper-step quantity; both remain exact lower bounds of
//! WAIT/active populations actually reached).
//!
//! Two charge models in Scheme 1 deserve spelling out, both proved
//! against the replay harness's structure (`fin_i` enters QUEUE only
//! after all of `Ĝ_i`'s acks were forwarded):
//!
//! - **Acks never enable waiting fins.** An ack appends to a delete
//!   queue; appends change a front only when the queue was empty, and the
//!   appended transaction's own fin cannot be waiting yet. So the
//!   per-ack fin re-tests all fail, and their step charges aggregate to
//!   `Cond += fin_live + Σ|Ĝ|` / `WaitScan += fin_live` per ack — O(1)
//!   with maintained sums, charging identical step totals. (The single
//!   engine charges the same aggregate, from
//!   [`WaitSet::fin_cond_cost`](crate::scheme::WaitSet::fin_cond_cost),
//!   and falls back to literal re-tests when the acked transaction's
//!   fin *is* waiting.)
//! - **Cycle marking via site-pair counts.** A TSG edge `(Ĝ, s_k)` lies
//!   on a cycle iff `s_k` connects to another site of `Ĝ` in TSG − Ĝ;
//!   site-to-site connectivity is the transitive closure of "some other
//!   live transaction spans both sites", maintained as per-pair counts
//!   and resolved with a union-find over the ≤ m site nodes. The
//!   prescribed `V + E` act charge is bumped from maintained node/edge
//!   counters — the paper's cost model is charged exactly while the
//!   machine does O(m²) work per init instead of a full bridge DFS.
#![expect(
    clippy::disallowed_methods,
    reason = "an offline replay engine, not the pump: its tasks share results under mutexes"
)]

use crate::gtm2::Gtm2Stats;
use crate::replay::{replay_kernel, ReplayOutcome, Script, ScriptEvent};
use crate::scheme::{KernelKind, SchemeKind};
use crate::ser_s::SerSLog;
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::pool::{Mailbox, Poll, Pool};
use mdbs_common::step::{StepCounter, StepKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long the pool may take to drain before the replay is declared
/// wedged (a liveness bug, mirroring the threaded runtime's deadline).
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// Replay `script` on `workers` pool workers. Schemes 0/1 execute
/// genuinely in parallel; every other scheme funnels through one task.
pub fn replay_parallel(kind: SchemeKind, workers: usize, script: &Script) -> ReplayOutcome {
    replay_parallel_kernel(kind, KernelKind::Dense, workers, script)
}

/// [`replay_parallel`] with an explicit kernel choice. The parallel
/// Scheme 0/1 engines implement the schemes' charge model directly (both
/// kernels charge identically by construction, which the step gate
/// pins), so the kernel only selects the funnel path's implementation.
pub fn replay_parallel_kernel(
    kind: SchemeKind,
    kernel: KernelKind,
    workers: usize,
    script: &Script,
) -> ReplayOutcome {
    match kind {
        SchemeKind::Scheme0 => scheme0_parallel(script, workers),
        SchemeKind::Scheme1 => scheme1_parallel(script, workers),
        other @ (SchemeKind::Scheme2
        | SchemeKind::Scheme2Minimal
        | SchemeKind::SiteGraph
        | SchemeKind::Scheme3
        | SchemeKind::AbortingTo
        | SchemeKind::OptimisticTicket) => funnel(other, kernel, workers, script),
    }
}

/// Run a non-partitioned scheme as a single pool task.
#[expect(
    clippy::expect_used,
    reason = "the funnel task writes its slot exactly once before the pool drains; a poisoned or empty slot means the replay already panicked and the harness must surface it"
)]
fn funnel(kind: SchemeKind, kernel: KernelKind, workers: usize, script: &Script) -> ReplayOutcome {
    let pool = Pool::new(workers);
    let slot: Arc<Mutex<Option<ReplayOutcome>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let script = script.clone();
    let h = pool.spawn(move || {
        *out.lock().expect("funnel slot") = Some(replay_kernel(kind, kernel, &script));
        Poll::Done
    });
    h.wake();
    assert!(
        pool.wait_idle(DRAIN_DEADLINE),
        "parallel replay wedged (funnel)"
    );
    let mut guard = slot.lock().expect("funnel slot");
    guard.take().expect("funnel task completed")
}

// ----------------------------------------------------------------------
// Shared accounting.
// ----------------------------------------------------------------------

/// Per-task slice of the engine counters; summed at the end.
#[derive(Default)]
struct Partial {
    steps: StepCounter,
    enqueued: u64,
    processed: u64,
    waited: u64,
    waited_kind: [u64; 4],
    inits: u64,
    fins: u64,
    wake_count: u64,
    wake_sum: u64,
    /// `(script event index, within-drain seq, txn, site)` — per-site
    /// order is the emission order; the total order is the sort by the
    /// first two fields.
    ser_events: Vec<(u64, u32, GlobalTxnId, SiteId)>,
}

impl Partial {
    /// One wake-scan histogram observation of `appended` candidates.
    fn observe_wake(&mut self, appended: u64) {
        self.wake_count += 1;
        self.wake_sum += appended;
    }
}

/// Cross-task gauges (documented approximations — peaks of the parallel
/// interleaving).
#[derive(Default)]
struct Gauges {
    active: AtomicU64,
    peak_active: AtomicU64,
    wait: AtomicU64,
    peak_wait: AtomicU64,
}

impl Gauges {
    fn active_inc(&self) {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_active.fetch_max(now, Ordering::SeqCst);
    }
    fn active_dec(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
    fn wait_inc(&self) {
        let now = self.wait.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_wait.fetch_max(now, Ordering::SeqCst);
    }
    fn wait_dec(&self) {
        self.wait.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Static per-transaction facts shared by all tasks.
struct TxnInfo {
    gid: GlobalTxnId,
    sites: Vec<SiteId>,
}

/// Index the script: transaction table + id → index map.
fn index_txns(script: &Script) -> (Vec<TxnInfo>, BTreeMap<GlobalTxnId, usize>) {
    let mut txns = Vec::new();
    let mut by_id = BTreeMap::new();
    for ev in &script.events {
        if let ScriptEvent::Init(txn, sites) = ev {
            by_id.insert(*txn, txns.len());
            txns.push(TxnInfo {
                gid: *txn,
                sites: sites.clone(),
            });
        }
    }
    (txns, by_id)
}

/// Merge the per-task partials into a [`ReplayOutcome`]. Conservative
/// schemes never abort, so the committed projection is the whole log.
fn assemble(partials: Vec<Partial>, gauges: &Gauges, txn_count: usize) -> ReplayOutcome {
    let mut steps = StepCounter::new();
    let mut stats = Gtm2Stats::default();
    let mut wake_count = 0u64;
    let mut wake_sum = 0u64;
    let mut tagged: Vec<(u64, u32, GlobalTxnId, SiteId)> = Vec::new();
    for p in partials {
        steps.merge(&p.steps);
        stats.enqueued += p.enqueued;
        stats.processed += p.processed;
        stats.waited += p.waited;
        for (dst, src) in stats.waited_kind.iter_mut().zip(p.waited_kind) {
            *dst += src;
        }
        stats.inits += p.inits;
        stats.fins += p.fins;
        wake_count += p.wake_count;
        wake_sum += p.wake_sum;
        tagged.extend(p.ser_events);
    }
    stats.peak_wait = gauges.peak_wait.load(Ordering::SeqCst);
    stats.peak_active = gauges.peak_active.load(Ordering::SeqCst);
    tagged.sort_unstable_by_key(|&(idx, seq, ..)| (idx, seq));
    let mut log = SerSLog::new();
    for &(_, _, txn, site) in &tagged {
        log.record(txn, site);
    }
    assert_eq!(
        stats.fins as usize, txn_count,
        "parallel replay lost transactions"
    );
    ReplayOutcome {
        completed: stats.fins as usize,
        ser_serializable: log.check().is_ok(),
        ser_events: tagged
            .into_iter()
            .map(|(_, _, txn, site)| (txn, site))
            .collect(),
        stats,
        steps,
        aborted: Vec::new(),
        protocol_violations: 0,
        wake_scan_count: wake_count,
        wake_scan_sum: wake_sum,
    }
}

// ----------------------------------------------------------------------
// Scheme 0 — zero-communication site tasks.
// ----------------------------------------------------------------------

/// A site-stream event for Scheme 0.
enum S0Ev {
    /// This transaction's `init` pushed it onto this site's queue. The
    /// owner site (first site of `Ĝ`) also charges the init's engine
    /// steps.
    Push { t: usize, owner: bool },
    /// `ser` insertion, tagged with its script event index.
    Ser { t: usize, idx: u64 },
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "txn indices are dense script positions produced by `index_txns` from the same validated script every lookup derives from; a miss is an engine bug that must fail the differential harness loudly, not degrade into a wrong-but-quiet charge count"
)]
fn scheme0_parallel(script: &Script, workers: usize) -> ReplayOutcome {
    let (txns, by_id) = index_txns(script);
    let mut streams: BTreeMap<SiteId, Vec<S0Ev>> = BTreeMap::new();
    for (idx, ev) in script.events.iter().enumerate() {
        match ev {
            ScriptEvent::Init(txn, sites) => {
                let t = by_id[txn];
                for (i, &k) in sites.iter().enumerate() {
                    streams
                        .entry(k)
                        .or_default()
                        .push(S0Ev::Push { t, owner: i == 0 });
                }
            }
            ScriptEvent::Ser(txn, site) => {
                streams.entry(*site).or_default().push(S0Ev::Ser {
                    t: by_id[txn],
                    idx: idx as u64,
                });
            }
        }
    }
    let txns = Arc::new(txns);
    let acks_left: Arc<Vec<AtomicUsize>> = Arc::new(
        txns.iter()
            .map(|t| AtomicUsize::new(t.sites.len()))
            .collect(),
    );
    let gauges = Arc::new(Gauges::default());
    let results: Arc<Mutex<Vec<Partial>>> = Arc::new(Mutex::new(Vec::new()));

    let pool = Pool::new(workers);
    let mut handles = Vec::new();
    for (site, stream) in streams {
        let mut task = S0Site {
            site,
            stream: stream.into(),
            txns: Arc::clone(&txns),
            acks_left: Arc::clone(&acks_left),
            gauges: Arc::clone(&gauges),
            results: Arc::clone(&results),
            queue: VecDeque::new(),
            waiting: BTreeSet::new(),
            p: Partial::default(),
        };
        handles.push(pool.spawn(move || task.run()));
    }
    for h in &handles {
        h.wake();
    }
    assert!(
        pool.wait_idle(DRAIN_DEADLINE),
        "parallel replay wedged (scheme 0)"
    );
    let partials = std::mem::take(&mut *results.lock().expect("scheme0 results"));
    assemble(partials, &gauges, txns.len())
}

struct S0Site {
    site: SiteId,
    stream: VecDeque<S0Ev>,
    txns: Arc<Vec<TxnInfo>>,
    acks_left: Arc<Vec<AtomicUsize>>,
    gauges: Arc<Gauges>,
    results: Arc<Mutex<Vec<Partial>>>,
    /// This site's FIFO (txn indices in init order, popped by acks).
    queue: VecDeque<usize>,
    /// Waiting `ser` operations at this site. Wake lookup is by the
    /// queue's new front only (Scheme 0's `One` candidate), so a plain
    /// set suffices.
    waiting: BTreeSet<usize>,
    p: Partial,
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "txn indices are dense script positions produced by `index_txns` from the same validated script every lookup derives from; a miss is an engine bug that must fail the differential harness loudly, not degrade into a wrong-but-quiet charge count"
)]
impl S0Site {
    /// The whole stream is statically known, so one run suffices.
    fn run(&mut self) -> Poll {
        while let Some(ev) = self.stream.pop_front() {
            match ev {
                S0Ev::Push { t, owner } => self.push(t, owner),
                S0Ev::Ser { t, idx } => self.ser(t, idx),
            }
        }
        assert!(self.waiting.is_empty(), "scheme0 site left ser waiters");
        assert!(self.queue.is_empty(), "scheme0 site queue not drained");
        self.results
            .lock()
            .expect("scheme0 results")
            .push(std::mem::take(&mut self.p));
        Poll::Done
    }

    /// Apply an `init` push; the owner site charges the init's engine
    /// steps (cond, act × |Ĝ|, wake scan) exactly once.
    fn push(&mut self, t: usize, owner: bool) {
        if owner {
            self.p.enqueued += 1;
            self.p.steps.tick(StepKind::Cond);
            self.p.processed += 1;
            self.p.inits += 1;
            self.gauges.active_inc();
            self.p
                .steps
                .bump(StepKind::Act, self.txns[t].sites.len() as u64);
            self.p.steps.tick(StepKind::WaitScan);
            self.p.observe_wake(0);
        }
        self.queue.push_back(t);
    }

    /// `ser` insertion: front-of-queue cond, else WAIT.
    fn ser(&mut self, t: usize, idx: u64) {
        self.p.enqueued += 1;
        self.p.steps.tick(StepKind::Cond);
        if self.queue.front() == Some(&t) {
            self.chain(t, idx);
        } else {
            self.p.waited += 1;
            self.p.waited_kind[1] += 1;
            self.waiting.insert(t);
            self.gauges.wait_inc();
        }
    }

    /// Submit `t`, then run the ack → wake → submit chain to quiescence,
    /// mirroring the engine's cascade + the harness's zero-latency acks.
    fn chain(&mut self, t: usize, idx: u64) {
        let mut seq = 0u32;
        self.act_ser(t, idx, &mut seq);
        let mut cur = t;
        loop {
            // Ack of `cur` (harness-enqueued, always eligible).
            self.p.enqueued += 1;
            self.p.steps.tick(StepKind::Cond);
            self.p.processed += 1;
            self.p.steps.tick(StepKind::Act);
            let popped = self.queue.pop_front();
            debug_assert_eq!(popped, Some(cur));
            let fin_ready = self.acks_left[cur].fetch_sub(1, Ordering::SeqCst) == 1;
            // Wake scan: only the new front can have become eligible.
            self.p.steps.tick(StepKind::WaitScan);
            let woken = self
                .queue
                .front()
                .copied()
                .filter(|f| self.waiting.contains(f));
            self.p.observe_wake(u64::from(woken.is_some()));
            if let Some(f) = woken {
                self.waiting.remove(&f);
                self.gauges.wait_dec();
                self.p.steps.tick(StepKind::Cond);
                self.act_ser(f, idx, &mut seq);
            }
            // The fin enters QUEUE behind the cascade's submit and ahead
            // of the next ack; its processing is engine-global only, so
            // the forwarding site charges it inline.
            if fin_ready {
                self.fin_inline();
            }
            match woken {
                Some(f) => cur = f,
                None => break,
            }
        }
    }

    /// `act(ser)`: submit + record, with the act's empty wake scan.
    fn act_ser(&mut self, t: usize, idx: u64, seq: &mut u32) {
        self.p.processed += 1;
        self.p.steps.tick(StepKind::Act);
        self.p
            .ser_events
            .push((idx, *seq, self.txns[t].gid, self.site));
        *seq += 1;
        self.p.steps.tick(StepKind::WaitScan);
        self.p.observe_wake(0);
    }

    /// Process `fin` at the site that forwarded the last ack.
    fn fin_inline(&mut self) {
        self.p.enqueued += 1;
        self.p.steps.tick(StepKind::Cond);
        self.p.processed += 1;
        self.p.fins += 1;
        self.p.steps.tick(StepKind::Act);
        self.p.steps.tick(StepKind::WaitScan);
        self.p.observe_wake(0);
        self.gauges.active_dec();
    }
}

// ----------------------------------------------------------------------
// Scheme 1 — site tasks + one ordered domain task.
// ----------------------------------------------------------------------

/// Domain-side stream: the script in insertion order.
enum DomEv {
    Init {
        t: usize,
    },
    /// A `ser` script event at this site: consume that site's emission
    /// batch (acks + terminator) before advancing.
    Drain {
        site: SiteId,
    },
}

/// Site-side stream: `ser` events with the number of pushes that must
/// have been applied first (inits preceding it in the script).
struct S1SerEv {
    t: usize,
    idx: u64,
    pushes_needed: usize,
}

/// What a site tells the domain, in engine order.
enum S1Emit {
    /// An ack was acted at the site (`ForwardAck` left the scheme).
    Ack { t: usize },
    /// The drain for one script event is complete.
    End,
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "txn indices are dense script positions produced by `index_txns` from the same validated script every lookup derives from; a miss is an engine bug that must fail the differential harness loudly, not degrade into a wrong-but-quiet charge count"
)]
fn scheme1_parallel(script: &Script, workers: usize) -> ReplayOutcome {
    let (txns, by_id) = index_txns(script);
    let mut dom_stream: Vec<DomEv> = Vec::new();
    let mut site_streams: BTreeMap<SiteId, Vec<S1SerEv>> = BTreeMap::new();
    let mut pushes_so_far: BTreeMap<SiteId, usize> = BTreeMap::new();
    for (idx, ev) in script.events.iter().enumerate() {
        match ev {
            ScriptEvent::Init(txn, sites) => {
                dom_stream.push(DomEv::Init { t: by_id[txn] });
                for &k in sites {
                    *pushes_so_far.entry(k).or_default() += 1;
                }
            }
            ScriptEvent::Ser(txn, site) => {
                dom_stream.push(DomEv::Drain { site: *site });
                site_streams.entry(*site).or_default().push(S1SerEv {
                    t: by_id[txn],
                    idx: idx as u64,
                    pushes_needed: pushes_so_far.get(site).copied().unwrap_or(0),
                });
            }
        }
    }
    let txns = Arc::new(txns);
    let gauges = Arc::new(Gauges::default());
    let results: Arc<Mutex<Vec<Partial>>> = Arc::new(Mutex::new(Vec::new()));
    let sites: Vec<SiteId> = site_streams.keys().copied().collect();
    let push_boxes: BTreeMap<SiteId, Arc<Mailbox<(usize, bool)>>> = sites
        .iter()
        .map(|&k| (k, Arc::new(Mailbox::new())))
        .collect();
    let emit_boxes: BTreeMap<SiteId, Arc<Mailbox<S1Emit>>> = sites
        .iter()
        .map(|&k| (k, Arc::new(Mailbox::new())))
        .collect();

    let pool = Pool::new(workers);
    let mut handles = Vec::new();
    for (site, stream) in site_streams {
        let mut task = S1Site {
            site,
            stream,
            pos: 0,
            pushes_applied: 0,
            pushes: Arc::clone(&push_boxes[&site]),
            emit: Arc::clone(&emit_boxes[&site]),
            txns: Arc::clone(&txns),
            gauges: Arc::clone(&gauges),
            results: Arc::clone(&results),
            queue: VecDeque::new(),
            marked: BTreeSet::new(),
            outstanding: None,
            waiting: BTreeMap::new(),
            p: Partial::default(),
        };
        let h = pool.spawn(move || task.run());
        handles.push((site, h));
    }
    for (site, h) in &handles {
        push_boxes[site].bind(h.clone());
    }
    let mut domain = S1Domain::new(
        dom_stream,
        Arc::clone(&txns),
        push_boxes.clone(),
        emit_boxes.clone(),
        Arc::clone(&gauges),
        Arc::clone(&results),
    );
    let dh = pool.spawn(move || domain.run());
    for ebox in emit_boxes.values() {
        ebox.bind(dh.clone());
    }
    dh.wake();
    for (_, h) in &handles {
        h.wake();
    }
    assert!(
        pool.wait_idle(DRAIN_DEADLINE),
        "parallel replay wedged (scheme 1)"
    );
    let partials = std::mem::take(&mut *results.lock().expect("scheme1 results"));
    assemble(partials, &gauges, txns.len())
}

struct S1Site {
    site: SiteId,
    stream: Vec<S1SerEv>,
    pos: usize,
    pushes_applied: usize,
    pushes: Arc<Mailbox<(usize, bool)>>,
    emit: Arc<Mailbox<S1Emit>>,
    txns: Arc<Vec<TxnInfo>>,
    gauges: Arc<Gauges>,
    results: Arc<Mutex<Vec<Partial>>>,
    /// Insert queue (txn indices, init order; removed at ack).
    queue: VecDeque<usize>,
    /// Txns whose edge at this site was marked at init (cleared by the
    /// ack's queue removal).
    marked: BTreeSet<usize>,
    /// Submitted-but-unacked txn at this site.
    outstanding: Option<usize>,
    /// Waiting `ser` ops, in WaitKey (txn id) order.
    waiting: BTreeMap<GlobalTxnId, usize>,
    p: Partial,
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "txn indices are dense script positions produced by `index_txns` from the same validated script every lookup derives from; a miss is an engine bug that must fail the differential harness loudly, not degrade into a wrong-but-quiet charge count"
)]
impl S1Site {
    fn run(&mut self) -> Poll {
        while self.pos < self.stream.len() {
            // Apply insert-queue pushes up to this event's script prefix;
            // park until the domain has shipped them.
            while self.pushes_applied < self.stream[self.pos].pushes_needed {
                let Some((t, marked)) = self.pushes.pop() else {
                    return Poll::Pending;
                };
                self.queue.push_back(t);
                if marked {
                    self.marked.insert(t);
                }
                self.pushes_applied += 1;
            }
            let S1SerEv { t, idx, .. } = self.stream[self.pos];
            self.ser(t, idx);
            self.emit.send(S1Emit::End);
            self.pos += 1;
        }
        assert!(self.waiting.is_empty(), "scheme1 site left ser waiters");
        self.results
            .lock()
            .expect("scheme1 results")
            .push(std::mem::take(&mut self.p));
        Poll::Done
    }

    /// `cond(ser)`: no outstanding op, and a marked op must head the
    /// insert queue.
    fn ser_eligible(&self, t: usize) -> bool {
        if self.outstanding.is_some() {
            return false;
        }
        !self.marked.contains(&t) || self.queue.front() == Some(&t)
    }

    fn ser(&mut self, t: usize, idx: u64) {
        self.p.enqueued += 1;
        self.p.steps.tick(StepKind::Cond);
        if !self.ser_eligible(t) {
            self.p.waited += 1;
            self.p.waited_kind[1] += 1;
            self.waiting.insert(self.txns[t].gid, t);
            self.gauges.wait_inc();
            return;
        }
        let mut seq = 0u32;
        self.act_ser(t, idx, &mut seq);
        let mut cur = t;
        loop {
            // Ack of `cur`: remove from the insert queue (position scan
            // is the act charge), clear outstanding, forward.
            self.p.enqueued += 1;
            self.p.steps.tick(StepKind::Cond);
            self.p.processed += 1;
            self.outstanding = None;
            let pos = self
                .queue
                .iter()
                .position(|&x| x == cur)
                .expect("acked txn in insert queue");
            self.p.steps.bump(StepKind::Act, pos as u64 + 1);
            self.queue.remove(pos);
            self.marked.remove(&cur);
            self.emit.send(S1Emit::Ack { t: cur });
            // Wake scan: sers at this site (charged here), then fins
            // (charged at the domain when it processes the Ack above).
            self.p.steps.tick(StepKind::WaitScan);
            self.p
                .steps
                .bump(StepKind::WaitScan, self.waiting.len() as u64);
            self.p.observe_wake(self.waiting.len() as u64);
            // Cascade over the ser candidates in key order: every one is
            // cond-charged; the first eligible acts (setting outstanding,
            // so the rest fail and stay waiting without a waited++).
            let mut acted: Option<usize> = None;
            let candidates: Vec<(GlobalTxnId, usize)> =
                self.waiting.iter().map(|(&g, &w)| (g, w)).collect();
            for (gid, w) in candidates {
                self.p.steps.tick(StepKind::Cond);
                if acted.is_none() && self.ser_eligible(w) {
                    self.waiting.remove(&gid);
                    self.gauges.wait_dec();
                    self.act_ser(w, idx, &mut seq);
                    acted = Some(w);
                }
            }
            match acted {
                Some(w) => cur = w,
                None => break,
            }
        }
    }

    /// `act(ser)`: submit + record + the act's empty wake scan.
    fn act_ser(&mut self, t: usize, idx: u64, seq: &mut u32) {
        self.p.processed += 1;
        self.p.steps.tick(StepKind::Act);
        self.outstanding = Some(t);
        self.p
            .ser_events
            .push((idx, *seq, self.txns[t].gid, self.site));
        *seq += 1;
        self.p.steps.tick(StepKind::WaitScan);
        self.p.observe_wake(0);
    }
}

struct S1Domain {
    stream: Vec<DomEv>,
    pos: usize,
    txns: Arc<Vec<TxnInfo>>,
    push_boxes: BTreeMap<SiteId, Arc<Mailbox<(usize, bool)>>>,
    emit_boxes: BTreeMap<SiteId, Arc<Mailbox<S1Emit>>>,
    gauges: Arc<Gauges>,
    results: Arc<Mutex<Vec<Partial>>>,
    acks_left: Vec<usize>,
    delete_q: BTreeMap<SiteId, VecDeque<usize>>,
    /// Sites where txn `t` currently heads the delete queue; `fin(t)` is
    /// eligible iff `have[t] == |Ĝ_t|`.
    have: Vec<usize>,
    /// Waiting fins in WaitKey (txn id) order.
    fin_wait: BTreeMap<GlobalTxnId, usize>,
    fin_live: u64,
    /// Σ |Ĝ| over waiting fins (the per-ack re-test Cond aggregate).
    fin_sites_sum: u64,
    // TSG mirrors: the charge model's V and E.
    live_txns: u64,
    site_nodes: BTreeSet<SiteId>,
    edge_count: u64,
    /// Live transactions spanning each site pair (connectivity source
    /// for cycle marking). Keys are `(min, max)`.
    pair_counts: BTreeMap<(SiteId, SiteId), u64>,
    p: Partial,
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "txn indices are dense script positions produced by `index_txns` from the same validated script every lookup derives from; a miss is an engine bug that must fail the differential harness loudly, not degrade into a wrong-but-quiet charge count"
)]
impl S1Domain {
    fn new(
        stream: Vec<DomEv>,
        txns: Arc<Vec<TxnInfo>>,
        push_boxes: BTreeMap<SiteId, Arc<Mailbox<(usize, bool)>>>,
        emit_boxes: BTreeMap<SiteId, Arc<Mailbox<S1Emit>>>,
        gauges: Arc<Gauges>,
        results: Arc<Mutex<Vec<Partial>>>,
    ) -> Self {
        let n = txns.len();
        S1Domain {
            stream,
            pos: 0,
            txns,
            push_boxes,
            emit_boxes,
            gauges,
            results,
            acks_left: vec![0; n],
            delete_q: BTreeMap::new(),
            have: vec![0; n],
            fin_wait: BTreeMap::new(),
            fin_live: 0,
            fin_sites_sum: 0,
            live_txns: 0,
            site_nodes: BTreeSet::new(),
            edge_count: 0,
            pair_counts: BTreeMap::new(),
            p: Partial::default(),
        }
    }

    fn run(&mut self) -> Poll {
        while self.pos < self.stream.len() {
            match self.stream[self.pos] {
                DomEv::Init { t } => self.init(t),
                DomEv::Drain { site } => loop {
                    match self.emit_boxes[&site].pop() {
                        Some(S1Emit::Ack { t }) => self.ack_part(t, site),
                        Some(S1Emit::End) => break,
                        None => return Poll::Pending,
                    }
                },
            }
            self.pos += 1;
        }
        assert!(self.fin_wait.is_empty(), "scheme1 domain left fin waiters");
        self.results
            .lock()
            .expect("scheme1 results")
            .push(std::mem::take(&mut self.p));
        Poll::Done
    }

    /// `init`: TSG insert + cycle marking + insert-queue pushes.
    fn init(&mut self, t: usize) {
        self.p.enqueued += 1;
        self.p.steps.tick(StepKind::Cond);
        self.p.processed += 1;
        self.p.inits += 1;
        self.gauges.active_inc();
        let sites = self.txns[t].sites.clone();
        let d = sites.len() as u64;
        // act: one tick per queue push / TSG edge.
        self.p.steps.bump(StepKind::Act, d);
        self.live_txns += 1;
        self.site_nodes.extend(sites.iter().copied());
        self.edge_count += d;
        // The prescribed bridge-DFS charge: V + E after inserting Ĝ_t
        // (site nodes are never removed from the TSG, matching UnGraph).
        self.p.steps.bump(
            StepKind::Act,
            self.live_txns + self.site_nodes.len() as u64 + self.edge_count,
        );
        // Cycle marking: an edge (Ĝ_t, k) is on a cycle iff k connects to
        // another site of Ĝ_t through *other* live transactions. The pair
        // counts still exclude Ĝ_t here, so a union-find over site nodes
        // resolves TSG − Ĝ_t connectivity directly.
        let marked = self.marked_sites(&sites);
        for (i, &a) in sites.iter().enumerate() {
            for &b in &sites[i + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                *self.pair_counts.entry(key).or_default() += 1;
            }
        }
        for &k in &sites {
            self.push_boxes[&k].send((t, marked.contains(&k)));
        }
        self.acks_left[t] = sites.len();
        // Wake scan after act(init): nothing can have changed.
        self.p.steps.tick(StepKind::WaitScan);
        self.p.observe_wake(0);
    }

    /// Sites of `Ĝ` whose TSG edge lies on a cycle, via connected
    /// components of the pair graph (which excludes `Ĝ` itself).
    fn marked_sites(&self, sites: &[SiteId]) -> BTreeSet<SiteId> {
        let verts: Vec<SiteId> = self.site_nodes.iter().copied().collect();
        let index: BTreeMap<SiteId, usize> =
            verts.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut dsu: Vec<usize> = (0..verts.len()).collect();
        fn find(dsu: &mut [usize], mut x: usize) -> usize {
            while dsu[x] != x {
                dsu[x] = dsu[dsu[x]];
                x = dsu[x];
            }
            x
        }
        for (&(a, b), &count) in &self.pair_counts {
            if count == 0 {
                continue;
            }
            let (ra, rb) = (find(&mut dsu, index[&a]), find(&mut dsu, index[&b]));
            if ra != rb {
                dsu[ra] = rb;
            }
        }
        // Group Ĝ's sites by component; edges in components holding ≥ 2
        // of them are on a cycle.
        let mut by_comp: BTreeMap<usize, Vec<SiteId>> = BTreeMap::new();
        for &k in sites {
            let root = find(&mut dsu, index[&k]);
            by_comp.entry(root).or_default().push(k);
        }
        by_comp
            .into_values()
            .filter(|group| group.len() >= 2)
            .flatten()
            .collect()
    }

    /// Domain half of an acked operation: delete-queue append, the fin
    /// re-test aggregate, and the harness's fin insertion.
    fn ack_part(&mut self, t: usize, site: SiteId) {
        let q = self.delete_q.entry(site).or_default();
        if q.is_empty() {
            self.have[t] += 1;
        }
        q.push_back(t);
        // Fin half of the ack's wake scan: every waiting fin is appended
        // and re-tested (Cond 1 + |Ĝ| each) — and provably fails, since
        // an append can't change an occupied front and an empty front
        // becomes the acked txn, whose own fin can't be waiting yet. The
        // charges aggregate; no state changes.
        self.p.steps.bump(StepKind::WaitScan, self.fin_live);
        self.p.wake_sum += self.fin_live;
        self.p
            .steps
            .bump(StepKind::Cond, self.fin_live + self.fin_sites_sum);
        // Harness: the forwarded ack may complete Ĝ_t, enqueuing fin_t
        // ahead of the drain's next ack.
        self.acks_left[t] -= 1;
        if self.acks_left[t] == 0 {
            self.fin_enqueue(t);
        }
    }

    fn fin_eligible(&self, t: usize) -> bool {
        self.have[t] == self.txns[t].sites.len()
    }

    /// `fin` enters QUEUE: cond it, act or WAIT.
    fn fin_enqueue(&mut self, t: usize) {
        self.p.enqueued += 1;
        self.p.steps.tick(StepKind::Cond);
        let d = self.txns[t].sites.len() as u64;
        self.p.steps.bump(StepKind::Cond, d);
        if self.fin_eligible(t) {
            self.fin_cascade(t);
        } else {
            self.p.waited += 1;
            self.p.waited_kind[3] += 1;
            self.fin_wait.insert(self.txns[t].gid, t);
            self.fin_live += 1;
            self.fin_sites_sum += d;
            self.gauges.wait_inc();
        }
    }

    /// `act(fin)` plus the engine's cascading WAIT re-examination — the
    /// one place fin re-tests can succeed, so the candidate buffer is
    /// simulated literally (duplicates, re-tests and all).
    fn fin_cascade(&mut self, t0: usize) {
        let mut buffer: VecDeque<GlobalTxnId> = VecDeque::new();
        self.act_fin(t0, &mut buffer);
        while let Some(gid) = buffer.pop_front() {
            let Some(&ft) = self.fin_wait.get(&gid) else {
                continue; // already woken by an earlier duplicate
            };
            let d = self.txns[ft].sites.len() as u64;
            self.fin_wait.remove(&gid);
            self.fin_live -= 1;
            self.fin_sites_sum -= d;
            self.gauges.wait_dec();
            self.p.steps.tick(StepKind::Cond);
            self.p.steps.bump(StepKind::Cond, d);
            if self.fin_eligible(ft) {
                self.act_fin(ft, &mut buffer);
            } else {
                self.fin_wait.insert(gid, ft);
                self.fin_live += 1;
                self.fin_sites_sum += d;
                self.gauges.wait_inc();
            }
        }
    }

    /// `act(fin)`: delete-queue pops + TSG removal, then append every
    /// waiting fin to the cascade buffer (the act's wake scan).
    fn act_fin(&mut self, t: usize, buffer: &mut VecDeque<GlobalTxnId>) {
        self.p.processed += 1;
        self.p.fins += 1;
        self.gauges.active_dec();
        let sites = self.txns[t].sites.clone();
        let d = sites.len() as u64;
        self.p.steps.bump(StepKind::Act, d);
        for &k in &sites {
            let q = self.delete_q.get_mut(&k).expect("fin site has deletes");
            let popped = q.pop_front();
            debug_assert_eq!(popped, Some(t), "cond(fin) guaranteed front");
            if let Some(&next) = q.front() {
                self.have[next] += 1;
            }
        }
        self.live_txns -= 1;
        self.edge_count -= d;
        for (i, &a) in sites.iter().enumerate() {
            for &b in &sites[i + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                if let Some(c) = self.pair_counts.get_mut(&key) {
                    *c -= 1;
                }
            }
        }
        // Wake scan: every waiting fin is a candidate again.
        self.p.steps.tick(StepKind::WaitScan);
        self.p.steps.bump(StepKind::WaitScan, self.fin_live);
        self.p.observe_wake(self.fin_live);
        buffer.extend(self.fin_wait.keys().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;

    fn assert_equiv(kind: SchemeKind, script: &Script, workers: usize) {
        let single = replay(kind, script);
        let par = replay_parallel(kind, workers, script);
        assert_eq!(par.steps, single.steps, "{kind} steps");
        assert_eq!(par.stats.enqueued, single.stats.enqueued, "{kind} enq");
        assert_eq!(par.stats.processed, single.stats.processed, "{kind} proc");
        assert_eq!(par.stats.waited, single.stats.waited, "{kind} waited");
        assert_eq!(par.stats.waited_kind, single.stats.waited_kind);
        assert_eq!(par.stats.inits, single.stats.inits);
        assert_eq!(par.stats.fins, single.stats.fins);
        assert_eq!(par.wake_scan_count, single.wake_scan_count, "{kind} wc");
        assert_eq!(par.wake_scan_sum, single.wake_scan_sum, "{kind} ws");
        assert_eq!(par.completed, single.completed);
        assert_eq!(par.protocol_violations, 0);
        assert!(par.ser_serializable);
        // Per-site ser(S) orders must match exactly.
        let mut per_site: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
        for (txn, site) in &single.ser_events {
            per_site.entry(*site).or_default().push(*txn);
        }
        let mut par_site: BTreeMap<SiteId, Vec<GlobalTxnId>> = BTreeMap::new();
        for (txn, site) in &par.ser_events {
            par_site.entry(*site).or_default().push(*txn);
        }
        assert_eq!(par_site, per_site, "{kind} per-site ser(S)");
    }

    #[test]
    fn scheme0_matches_single_engine() {
        for seed in 0..15 {
            let script = Script::random(12, 4, 2.5, seed);
            for workers in [1, 2, 4] {
                assert_equiv(SchemeKind::Scheme0, &script, workers);
            }
        }
    }

    #[test]
    fn scheme1_matches_single_engine() {
        for seed in 0..15 {
            let script = Script::random(12, 4, 2.5, seed);
            for workers in [1, 2, 4] {
                assert_equiv(SchemeKind::Scheme1, &script, workers);
            }
        }
    }

    #[test]
    fn funnel_schemes_match_single_engine() {
        let script = Script::random(10, 4, 2.2, 7);
        for kind in [SchemeKind::Scheme2, SchemeKind::Scheme3] {
            let single = replay(kind, &script);
            let par = replay_parallel(kind, 2, &script);
            assert_eq!(par.steps, single.steps);
            assert_eq!(par.stats, single.stats);
            assert_eq!(par.ser_events, single.ser_events);
        }
    }

    #[test]
    fn scheme0_total_order_matches_at_larger_scale() {
        let script = Script::random(60, 6, 2.5, 42);
        let single = replay(SchemeKind::Scheme0, &script);
        let par = replay_parallel(SchemeKind::Scheme0, 4, &script);
        // Scheme 0's drains are single-site, so even the merged total
        // order reconstructs exactly.
        assert_eq!(par.ser_events, single.ser_events);
    }

    #[test]
    fn scheme1_total_order_matches_at_larger_scale() {
        let script = Script::random(60, 6, 2.5, 42);
        let single = replay(SchemeKind::Scheme1, &script);
        let par = replay_parallel(SchemeKind::Scheme1, 4, &script);
        assert_eq!(par.ser_events, single.ser_events);
    }
}
