//! A hand-rolled work-stealing task pool for the parallel schedulers.
//!
//! The pool runs a fixed set of *tasks* — resumable state machines, not
//! one-shot jobs — on a small set of OS worker threads. A task's body is
//! a closure returning [`Poll`]: `Pending` parks the task until somebody
//! [`wake`](TaskHandle::wake)s it (typically after pushing a message into
//! its [`Mailbox`]), `Done` retires it. This is the executor the threaded
//! runtime's site servers and the parallel replay engines' site and
//! domain tasks run on.
//!
//! ## Wake protocol (the lost wakeup race, solved by state machine)
//!
//! Each task carries one atomic state: `Idle → Queued → Running →
//! {Idle, Done}`, with a fourth state `Dirty` for the race this module
//! exists to get right: a wake that arrives *while the task is running*
//! (or mid-transition to parked). `wake` CASes `Idle → Queued` (enqueue +
//! notify), or `Running → Dirty` (the runner observes `Dirty` when the
//! body returns `Pending` and requeues instead of parking). A wake can
//! therefore never be lost: either the waker enqueues the task itself,
//! or it marks the running episode dirty and the runner re-runs. Each
//! `Queued` episode puts exactly one entry in the run queues, so a task
//! is never run by two workers at once.
//!
//! ## Work stealing
//!
//! Every worker owns a deque; `wake` pushes to the task's home worker's
//! deque. Workers pop their own deque from the front and steal from the
//! back of others' when empty.
//!
//! ## Spin before park
//!
//! A worker that finds every deque empty does not go to sleep at once: it
//! keeps polling the deques for `SPIN_POLLS` rounds and only then parks
//! on the condvar. The pool's consumers are message ping-pong (a command
//! out, a reply back, microseconds apart), and a park per message costs
//! the worker a futex wait and the *sender* a futex wake. While a worker
//! spins, `parked` is 0 and a wake is a push and nothing else. On a
//! single-core machine spinning can only delay the thread that would
//! produce the work, so there the budget is 0 and a worker parks at once.
//! Steals, parks, wakes and tasks found while spinning are counted and
//! exported as `pool.steal` / `pool.park` / `pool.wake` / `pool.spin_hit`.
#![expect(
    clippy::disallowed_methods,
    reason = "the executor itself: idle workers park on its condvar and dropping the pool joins \
              them; the tasks it runs only poll"
)]

use crate::instrument::Registry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a task body reports after a run episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll {
    /// The task is blocked on an external event; park it until a wake.
    Pending,
    /// The task has finished; it will never run again.
    Done,
}

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;
const DONE: u8 = 4;

/// How many times an idle worker re-polls the deques before it parks.
/// The classical rule: spin about as long as a park/unpark pair costs —
/// shorter gives the saving away, longer burns a core somebody else may
/// need. On the 2-vCPU reference VM a park plus its wake cost ≈ 10 µs and
/// one poll of empty deques ≈ 45 ns, so this is ≈ 9 µs. Measured on
/// `live_spread` (DESIGN §10, "Spin before park"): 20 / 50 polls give
/// 1.45× / 1.5× the no-spin throughput, 200 to 20 000 all give 1.8–2.0×;
/// with a CPU hog competing for the two cores 200 still matches no-spin
/// while 500 / 2 000 / 20 000 fall to 0.65× / 0.33× / 0.15× of it.
const SPIN_POLLS: u32 = 200;

type TaskBody = Box<dyn FnMut() -> Poll + Send>;

struct Task {
    state: AtomicU8,
    /// The body. Uncontended by construction (a task has at most one
    /// queue entry, so at most one worker runs it at a time); the mutex
    /// is what makes that invariant a compile-time-checkable fact rather
    /// than a comment.
    body: Mutex<TaskBody>,
    /// Home worker whose deque this task's wakes push to.
    home: usize,
}

struct PoolShared {
    /// Per-worker run queues. Owners pop the front; thieves pop the back.
    queues: Vec<Mutex<VecDeque<Arc<Task>>>>,
    /// Park/notify plumbing: the mutex orders a parker's final re-check
    /// against a waker's notify, so a push can never slip between check
    /// and wait.
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Workers currently inside (or committing to) a park.
    parked: AtomicUsize,
    /// Tasks spawned and not yet `Done`.
    live: AtomicUsize,
    shutdown: AtomicU8,
    /// `SPIN_POLLS`, or 0 on a single-core machine.
    spin_polls: u32,
    steals: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    spin_hits: AtomicU64,
}

impl PoolShared {
    fn push_ready(&self, task: Arc<Task>) {
        {
            let mut q = lock_unpoisoned(&self.queues[task.home]);
            q.push_back(task);
        }
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Serialize with any parker between its re-check and wait.
            drop(lock_unpoisoned(&self.park_lock));
            self.park_cv.notify_one();
        }
    }
}

/// Acquire a mutex, continuing through poisoning (a panicked worker must
/// not wedge the rest of the pool).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A handle that wakes one task. Cloneable and sendable; waking a `Done`
/// or already-queued task is a cheap no-op.
#[derive(Clone)]
pub struct TaskHandle {
    shared: Arc<PoolShared>,
    task: Arc<Task>,
}

impl TaskHandle {
    /// Schedule the task to run (again). Exactly-once semantics per
    /// episode: concurrent wakes coalesce via the state machine.
    pub fn wake(&self) {
        let task = &self.task;
        loop {
            match task
                .state
                .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.shared.wakes.fetch_add(1, Ordering::Relaxed);
                    self.shared.push_ready(Arc::clone(task));
                    return;
                }
                Err(RUNNING) => {
                    if task
                        .state
                        .compare_exchange(RUNNING, DIRTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.shared.wakes.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Lost the race to another transition; re-examine.
                }
                Err(QUEUED) | Err(DIRTY) | Err(DONE) => return,
                Err(_) => return,
            }
        }
    }
}

/// The work-stealing pool. Dropping it shuts the workers down (without
/// waiting for unfinished tasks; call [`wait_idle`](Pool::wait_idle)
/// first for a clean drain).
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_home: AtomicUsize,
}

impl Pool {
    /// Start a pool with `workers` OS threads (clamped to at least 1).
    pub fn new(workers: usize) -> Pool {
        let n = workers.max(1);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let shared = Arc::new(PoolShared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            shutdown: AtomicU8::new(0),
            spin_polls: if cores > 1 { SPIN_POLLS } else { 0 },
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            spin_hits: AtomicU64::new(0),
        });
        let workers = (0..n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mdbs-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            next_home: AtomicUsize::new(0),
        }
    }

    /// Add a task (initially idle — call [`TaskHandle::wake`] to start
    /// it). Home workers are assigned round-robin.
    pub fn spawn(&self, body: impl FnMut() -> Poll + Send + 'static) -> TaskHandle {
        let home = self.next_home.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        let task = Arc::new(Task {
            state: AtomicU8::new(IDLE),
            body: Mutex::new(Box::new(body)),
            home,
        });
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        TaskHandle {
            shared: Arc::clone(&self.shared),
            task,
        }
    }

    /// Block until every spawned task is `Done`, or the deadline passes.
    /// Returns whether the pool drained.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = lock_unpoisoned(&self.shared.park_lock);
        while self.shared.live.load(Ordering::SeqCst) > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = match self.shared.park_cv.wait_timeout(guard, deadline - now) {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard = g;
        }
        true
    }

    /// Counters: `(steals, parks, wakes)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.shared.steals.load(Ordering::Relaxed),
            self.shared.parks.load(Ordering::Relaxed),
            self.shared.wakes.load(Ordering::Relaxed),
        )
    }

    /// Export `pool.steal` / `pool.park` / `pool.wake` / `pool.spin_hit`
    /// counters.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let (steals, parks, wakes) = self.counters();
        registry.inc("pool.steal", steals);
        registry.inc("pool.park", parks);
        registry.inc("pool.wake", wakes);
        registry.inc(
            "pool.spin_hit",
            self.shared.spin_hits.load(Ordering::Relaxed),
        );
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(1, Ordering::SeqCst);
        {
            drop(lock_unpoisoned(&self.shared.park_lock));
        }
        self.shared.park_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn pop_work(shared: &PoolShared, w: usize) -> Option<Arc<Task>> {
    if let Some(task) = lock_unpoisoned(&shared.queues[w]).pop_front() {
        return Some(task);
    }
    let n = shared.queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(task) = lock_unpoisoned(&shared.queues[victim]).pop_back() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
    None
}

/// The spin phase: re-poll the deques for the budget (short enough that
/// shutdown can wait it out).
fn spin_for_work(shared: &PoolShared, w: usize) -> Option<Arc<Task>> {
    for _ in 0..shared.spin_polls {
        std::hint::spin_loop();
        if let Some(task) = pop_work(shared, w) {
            shared.spin_hits.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
    None
}

fn worker_loop(shared: &PoolShared, w: usize) {
    loop {
        if let Some(task) = pop_work(shared, w).or_else(|| spin_for_work(shared, w)) {
            run_task(shared, &task);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) != 0 {
            return;
        }
        // Commit to parking, then re-check under the park lock: a waker
        // that pushed after our empty scan must either see `parked > 0`
        // (and take the lock before notifying) or have pushed before the
        // re-check below — either way the wake is not lost.
        shared.parked.fetch_add(1, Ordering::SeqCst);
        let guard = lock_unpoisoned(&shared.park_lock);
        let has_work = shared.queues.iter().any(|q| !lock_unpoisoned(q).is_empty());
        if !has_work && shared.shutdown.load(Ordering::SeqCst) == 0 {
            shared.parks.fetch_add(1, Ordering::Relaxed);
            // The timeout is a belt-and-braces liveness bound, not the
            // wake path: every wake notifies the condvar.
            let _woken = match shared
                .park_cv
                .wait_timeout(guard, Duration::from_millis(50))
            {
                Ok((g, _)) => g,
                Err(poisoned) => {
                    let (g, _) = poisoned.into_inner();
                    g
                }
            };
        } else {
            drop(guard);
        }
        shared.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_task(shared: &PoolShared, task: &Arc<Task>) {
    // A queue entry exists only for a `Queued` episode.
    if task
        .state
        .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return;
    }
    let poll = {
        let mut body = lock_unpoisoned(&task.body);
        (body)()
    };
    match poll {
        Poll::Done => {
            task.state.store(DONE, Ordering::SeqCst);
            if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                drop(lock_unpoisoned(&shared.park_lock));
                shared.park_cv.notify_all();
            }
        }
        Poll::Pending => {
            if task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // A wake arrived mid-run (`Dirty`): requeue immediately.
                task.state.store(QUEUED, Ordering::SeqCst);
                shared.push_ready(Arc::clone(task));
            }
        }
    }
}

/// A multi-producer mailbox bound to one consuming task: `send` pushes a
/// message and wakes the consumer. The consumer drains with
/// [`pop`](Mailbox::pop) from inside its task body and returns
/// [`Poll::Pending`] when `None` — the state machine in [`TaskHandle::wake`]
/// guarantees a send racing that decision re-runs the task.
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    target: Mutex<Option<TaskHandle>>,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            target: Mutex::new(None),
        }
    }
}

impl<T> Mailbox<T> {
    /// Empty mailbox, not yet bound to a consumer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind the consuming task to wake on sends.
    pub fn bind(&self, handle: TaskHandle) {
        *lock_unpoisoned(&self.target) = Some(handle);
    }

    /// Push one message and wake the consumer.
    pub fn send(&self, msg: T) {
        lock_unpoisoned(&self.queue).push_back(msg);
        if let Some(t) = lock_unpoisoned(&self.target).as_ref() {
            t.wake();
        }
    }

    /// Take the oldest message, if any.
    pub fn pop(&self) -> Option<T> {
        lock_unpoisoned(&self.queue).pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn tasks_run_to_done_and_pool_drains() {
        let pool = Pool::new(2);
        let total = Arc::new(Counter::new(0));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let total = Arc::clone(&total);
            let mut left = i + 1;
            handles.push(pool.spawn(move || {
                total.fetch_add(1, Ordering::SeqCst);
                left -= 1;
                if left == 0 {
                    Poll::Done
                } else {
                    Poll::Pending
                }
            }));
        }
        // Pending tasks need external wakes, and concurrent wakes
        // coalesce — so drive until the pool drains, not a fixed count.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            for h in &handles {
                h.wake();
            }
            if pool.wait_idle(Duration::from_millis(5)) {
                break;
            }
            assert!(Instant::now() < deadline, "pool never drained");
        }
        // Task i runs exactly i+1 times: 1+2+..+8 = 36.
        assert_eq!(total.load(Ordering::SeqCst), 36);
    }

    /// The deterministic regression for the lost wakeup race: a wake
    /// delivered while the task's worker is mid-park (or mid-transition
    /// to parked) must still run the task.
    #[test]
    fn wake_delivered_to_parked_worker_is_not_lost() {
        let pool = Pool::new(1);
        let runs = Arc::new(Counter::new(0));
        let runs2 = Arc::clone(&runs);
        let mut first = true;
        let h = pool.spawn(move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            if first {
                first = false;
                Poll::Pending
            } else {
                Poll::Done
            }
        });
        h.wake();
        // Wait until the first episode ran and the worker has actually
        // parked, so the wake below targets a parked worker.
        let deadline = Instant::now() + Duration::from_secs(10);
        while runs.load(Ordering::SeqCst) < 1 || pool.counters().1 == 0 {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
        h.wake();
        assert!(pool.wait_idle(Duration::from_secs(10)), "wake was lost");
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        let (_, parks, wakes) = pool.counters();
        assert!(parks >= 1);
        assert_eq!(wakes, 2);
    }

    /// A wake racing the body's `Pending` return (the `Running → Dirty`
    /// path) must re-run the task instead of stranding it idle.
    #[test]
    fn wake_during_run_requeues() {
        for _ in 0..50 {
            let pool = Pool::new(2);
            let runs = Arc::new(Counter::new(0));
            let runs2 = Arc::clone(&runs);
            let h = pool.spawn(move || {
                if runs2.fetch_add(1, Ordering::SeqCst) == 0 {
                    Poll::Pending
                } else {
                    Poll::Done
                }
            });
            h.wake();
            h.wake(); // races the first episode
            h.wake();
            // However the three wakes interleave with the first episode,
            // the task must reach Done.
            let deadline = Instant::now() + Duration::from_secs(10);
            while runs.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "task stranded");
                h.wake();
                std::thread::yield_now();
            }
            assert!(pool.wait_idle(Duration::from_secs(10)));
        }
    }

    /// Bounce a counter between two tasks through two mailboxes: every
    /// message is a wake of a worker that is running, spinning, handing
    /// over from spin to park, or parked. The sender stalls for a varying
    /// time on some rounds — from nothing to several spin budgets — so the
    /// wake sweeps across the hand-over instead of always landing in the
    /// spin phase. Whatever the interleaving, no wake may be lost.
    #[test]
    fn ping_pong_finishes_across_spin_and_park() {
        const ROUND_TRIPS: u32 = 10_000;
        fn bouncer(
            inbox: Arc<Mailbox<u32>>,
            outbox: Arc<Mailbox<u32>>,
        ) -> impl FnMut() -> Poll + Send {
            move || {
                while let Some(n) = inbox.pop() {
                    if n % 8 == 0 {
                        for _ in 0..(n.wrapping_mul(37) % (8 * SPIN_POLLS)) {
                            std::hint::spin_loop();
                        }
                    }
                    outbox.send(n + 1);
                    if n >= 2 * ROUND_TRIPS {
                        return Poll::Done;
                    }
                }
                Poll::Pending
            }
        }
        for workers in [2, 1] {
            let pool = Pool::new(workers);
            let to_ping: Arc<Mailbox<u32>> = Arc::new(Mailbox::new());
            let to_pong: Arc<Mailbox<u32>> = Arc::new(Mailbox::new());
            let ping = pool.spawn(bouncer(Arc::clone(&to_ping), Arc::clone(&to_pong)));
            let pong = pool.spawn(bouncer(Arc::clone(&to_pong), Arc::clone(&to_ping)));
            to_ping.bind(ping);
            to_pong.bind(pong);
            to_ping.send(0);
            assert!(
                pool.wait_idle(Duration::from_secs(120)),
                "{workers} worker(s): a wake was lost, {:?} left",
                (to_ping.pop(), to_pong.pop())
            );
        }
    }

    /// A wake that lands while the worker is still spinning is picked up
    /// by the spin — counted in `pool.spin_hit` — and costs no park. On a
    /// single-core machine there is no spin phase to land in.
    #[test]
    fn wake_during_spin_is_a_spin_hit_not_a_park() {
        let pool = Pool::new(1);
        let runs = Arc::new(Counter::new(0));
        let runs2 = Arc::clone(&runs);
        let h = pool.spawn(move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            Poll::Pending
        });
        let spin_hits = || pool.shared.spin_hits.load(Ordering::SeqCst);
        // One episode: wake, then wait until the body has run.
        let run_once = || {
            let before = runs.load(Ordering::SeqCst);
            h.wake();
            let deadline = Instant::now() + Duration::from_secs(10);
            while runs.load(Ordering::SeqCst) == before {
                assert!(Instant::now() < deadline, "wake was lost");
                std::thread::yield_now();
            }
        };
        if pool.shared.spin_polls == 0 {
            for _ in 0..100 {
                run_once();
            }
            assert_eq!(spin_hits(), 0);
            return;
        }
        // The worker starts spinning as soon as an episode returns
        // `Pending`, so the next wake usually finds it there; whether it
        // does is a race, so look for one clean hit, not for every one.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (parks, hits) = (pool.counters().1, spin_hits());
            run_once();
            if spin_hits() > hits && pool.counters().1 == parks {
                break;
            }
            assert!(Instant::now() < deadline, "no wake ever landed in a spin");
        }
    }

    #[test]
    fn stealing_spreads_load() {
        let pool = Pool::new(4);
        let mut handles = Vec::new();
        for _ in 0..32 {
            let mut spins = 200u64;
            handles.push(pool.spawn(move || {
                // A little CPU so queues are non-empty long enough to steal.
                for i in 0..20_000u64 {
                    std::hint::black_box(i.wrapping_mul(spins));
                }
                spins -= spins.min(200);
                Poll::Done
            }));
        }
        for h in &handles {
            h.wake();
        }
        assert!(pool.wait_idle(Duration::from_secs(30)));
        let (_, _, wakes) = pool.counters();
        assert_eq!(wakes, 32);
    }

    #[test]
    fn mailbox_send_wakes_consumer() {
        let pool = Pool::new(2);
        let mbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
        let got = Arc::new(Counter::new(0));
        let (mbox2, got2) = (Arc::clone(&mbox), Arc::clone(&got));
        let h = pool.spawn(move || {
            while let Some(v) = mbox2.pop() {
                if v == u64::MAX {
                    return Poll::Done;
                }
                got2.fetch_add(v, Ordering::SeqCst);
            }
            Poll::Pending
        });
        mbox.bind(h.clone());
        h.wake();
        for v in 1..=100u64 {
            mbox.send(v);
        }
        mbox.send(u64::MAX);
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert_eq!(got.load(Ordering::SeqCst), 5050);
    }
}
