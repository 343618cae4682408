//! A hand-rolled task pool: one run queue, a few worker threads.
//!
//! The pool runs a fixed set of *tasks* — resumable state machines, not
//! one-shot jobs — on a small set of OS worker threads. A task's body is
//! a closure returning [`Poll`]: `Pending` parks the task until somebody
//! [`wake`](TaskHandle::wake)s it (typically after pushing a message into
//! its [`Mailbox`]), `Done` retires it. `mdbs_core::parallel::replay_parallel`
//! runs one replay on it as a single task. The threaded runtime's site
//! servers do not run on it: they have worker threads of their own that
//! poll the sites' inboxes (`mdbs_sim::threaded`).
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
//! `Queued` episode puts exactly one entry in the run queue, so a task
//! is never run by two workers at once.
//!
//! ## Parking
//!
//! All workers pop one FIFO run queue. A worker that finds it empty
//! parks on a condvar at once, having checked the queue under the same
//! lock every push takes, so a push can never slip between its check and
//! its wait. Every push notifies a parked worker; the park's 50 ms
//! timeout is a liveness bound, not the wake path.
#![expect(
    clippy::disallowed_methods,
    reason = "the executor itself: idle workers park on its condvar and dropping the pool joins \
              them; the tasks it runs only poll"
)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// The longest an idle worker stays parked without a notify.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

type TaskBody = Box<dyn FnMut() -> Poll + Send>;

struct Task {
    state: AtomicU8,
    /// The body. Uncontended by construction (a task has at most one
    /// queue entry, so at most one worker runs it at a time); the mutex
    /// is what makes that invariant a compile-time-checkable fact rather
    /// than a comment.
    body: Mutex<TaskBody>,
}

/// Everything the workers share, behind the one lock.
#[derive(Default)]
struct RunQueue {
    /// `Queued` tasks, oldest first.
    ready: VecDeque<Arc<Task>>,
    /// Tasks spawned and not yet `Done`.
    live: usize,
    /// Set by `Drop`: a worker that finds the queue empty returns.
    shutdown: bool,
    /// Parks so far, so a test can wait until a worker is asleep.
    #[cfg(test)]
    parks: u64,
}

#[derive(Default)]
struct PoolShared {
    queue: Mutex<RunQueue>,
    /// Parked workers wait here: one is notified per push, all at
    /// shutdown.
    work: Condvar,
    /// [`Pool::wait_idle`] waits here, notified when the last live task
    /// finishes. A condvar of its own, so a push's `notify_one` always
    /// reaches a worker.
    idle: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        lock_unpoisoned(&self.queue)
    }

    fn push_ready(&self, task: Arc<Task>) {
        self.lock().ready.push_back(task);
        self.work.notify_one();
    }
}

/// Acquire a mutex, continuing through poisoning (a panicked worker must
/// not wedge the rest of the pool).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Wait on `cv` for at most `timeout`, continuing through poisoning.
fn wait<'a>(
    cv: &Condvar,
    guard: MutexGuard<'a, RunQueue>,
    timeout: Duration,
) -> MutexGuard<'a, RunQueue> {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
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
        let state = &self.task.state;
        loop {
            match state.compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return self.shared.push_ready(Arc::clone(&self.task)),
                Err(RUNNING) => {
                    if state
                        .compare_exchange(RUNNING, DIRTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                    // Lost the race to another transition; re-examine.
                }
                // Queued, Dirty or Done: the wake is already owed or moot.
                Err(_) => return,
            }
        }
    }
}

/// The task pool. Dropping it shuts the workers down (without waiting for
/// unfinished tasks; call [`wait_idle`](Pool::wait_idle) first for a
/// clean drain).
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Start a pool with `workers` OS threads (clamped to at least 1).
    pub fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared::default());
        let workers = (0..workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mdbs-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Add a task (initially idle — call [`TaskHandle::wake`] to start
    /// it).
    pub fn spawn(&self, body: impl FnMut() -> Poll + Send + 'static) -> TaskHandle {
        let task = Arc::new(Task {
            state: AtomicU8::new(IDLE),
            body: Mutex::new(Box::new(body)),
        });
        self.shared.lock().live += 1;
        TaskHandle {
            shared: Arc::clone(&self.shared),
            task,
        }
    }

    /// Block until every spawned task is `Done`, or the deadline passes.
    /// Returns whether the pool drained.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut queue = self.shared.lock();
        while queue.live > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            queue = wait(&self.shared.idle, queue, deadline - now);
        }
        true
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.ready.pop_front() {
            drop(queue);
            run_task(shared, &task);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            #[cfg(test)]
            {
                queue.parks += 1;
            }
            queue = wait(&shared.work, queue, PARK_TIMEOUT);
        }
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
            let mut queue = shared.lock();
            queue.live -= 1;
            if queue.live == 0 {
                shared.idle.notify_all();
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

    /// Block until `pool`'s workers have parked at least `n` times.
    fn await_parks(pool: &Pool, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.shared.lock().parks < n {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
    }

    /// The deterministic regression for the lost wakeup race: a wake
    /// delivered while the task's worker is mid-park (or mid-transition
    /// to parked) must still run the task, whether it comes from the
    /// task's handle or from a [`Mailbox::send`] to it, and the task must
    /// then drain what was sent.
    #[test]
    fn wake_delivered_to_parked_worker_is_not_lost() {
        for via_mailbox in [false, true] {
            let pool = Pool::new(1);
            let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new());
            let runs = Arc::new(Counter::new(0));
            let consumed = Arc::new(Counter::new(0));
            let (inbox, runs2, seen) = (
                Arc::clone(&mailbox),
                Arc::clone(&runs),
                Arc::clone(&consumed),
            );
            let mut first = true;
            let h = pool.spawn(move || {
                runs2.fetch_add(1, Ordering::SeqCst);
                while let Some(v) = inbox.pop() {
                    seen.fetch_add(v, Ordering::SeqCst);
                }
                if first {
                    first = false;
                    Poll::Pending
                } else {
                    Poll::Done
                }
            });
            mailbox.bind(h.clone());
            h.wake();
            // Wait until the first episode ran and the worker parked
            // after it, so the wake below targets a parked worker.
            let deadline = Instant::now() + Duration::from_secs(10);
            while runs.load(Ordering::SeqCst) < 1 {
                assert!(Instant::now() < deadline, "first episode never ran");
                std::thread::yield_now();
            }
            let parks = pool.shared.lock().parks;
            await_parks(&pool, parks + 1);
            if via_mailbox {
                mailbox.send(7);
            } else {
                h.wake();
            }
            assert!(
                pool.wait_idle(Duration::from_secs(10)),
                "wake was lost (via_mailbox={via_mailbox})"
            );
            assert_eq!(runs.load(Ordering::SeqCst), 2);
            assert_eq!(
                consumed.load(Ordering::SeqCst),
                if via_mailbox { 7 } else { 0 }
            );
        }
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
    /// message is a wake of a worker that is running, about to park or
    /// parked. The sender stalls for a varying time on some rounds — from
    /// nothing to 1 600 busy iterations — so the wake sweeps across the
    /// worker's hand-over from an empty queue to its park instead of
    /// always landing at the same point. Whatever the interleaving, no
    /// wake may be lost.
    #[test]
    fn ping_pong_finishes_across_run_and_park() {
        const ROUND_TRIPS: u32 = 10_000;
        fn bouncer(
            inbox: Arc<Mailbox<u32>>,
            outbox: Arc<Mailbox<u32>>,
        ) -> impl FnMut() -> Poll + Send {
            move || {
                while let Some(n) = inbox.pop() {
                    if n % 8 == 0 {
                        for i in 0..(n.wrapping_mul(37) % 1_600) {
                            std::hint::black_box(i);
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

    /// Shutdown must reach a parked worker: with a task that never
    /// finishes, the pool does not drain, the worker parks, and dropping
    /// the pool still returns.
    #[test]
    fn drop_joins_a_parked_worker() {
        let pool = Pool::new(1);
        let h = pool.spawn(|| Poll::Pending);
        h.wake();
        assert!(!pool.wait_idle(Duration::from_millis(10)));
        await_parks(&pool, 1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "dropping the pool never returned"
        );
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
