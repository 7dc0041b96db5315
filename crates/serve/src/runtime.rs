//! Shard scheduling: how logical shards map onto OS threads.
//!
//! The engine's determinism argument ([`crate::shard`]) only needs two
//! properties from whatever runs the shards:
//!
//! 1. each shard's messages are applied in FIFO order, and
//! 2. at most one thread applies a given shard's messages at a time.
//!
//! Everything else — how many threads exist, which thread runs which
//! shard, when a shard yields — is mechanical and must never change a byte
//! of output.
//!
//! [`ShardRuntime`] is an actor-style work-stealing runtime: every logical
//! shard owns a mailbox (`Mutex<VecDeque> + Condvar`), and `workers` OS
//! threads pull *runnable shards* from a shared run queue, a cell of the
//! same shape. A shard becomes runnable when its mailbox goes non-empty;
//! the `scheduled` flag guarantees at most one run token per shard exists,
//! which is exactly invariant (2). A worker drains a shard in batches and
//! re-queues it after [`MAX_TURNS`] batches (a cooperative yield, so a
//! celebrity-storm shard cannot starve its siblings), or parks on the run
//! queue's condvar when nothing is runnable. Whichever worker dequeues the
//! token runs the shard — that is the "steal": shards migrate freely
//! between workers, counted by `serve.runtime.steals`. Shard count is
//! therefore a pure partitioning knob, independent of thread count.
//!
//! The run queue cannot lose a wakeup: a worker checks for a token and
//! starts waiting under the queue's lock, and a push appends its token
//! under that lock before it notifies one waiter. So a worker that found
//! the queue empty is already waiting when the notify lands, and every
//! queued token has either a worker that re-checks the queue before it
//! next waits or a notified waiter. Only shutdown pushes `Stop`, one per
//! worker, once every run token has retired or the runtime aborted.
//!
//! Cooperative blocking in the mailbox path is intentional and bounded:
//! the single producer parks on a full mailbox's condvar (after bumping
//! the `serve.backpressure` counters) until a worker drains room, and
//! shutdown parks until each mailbox is idle. Neither wait can deadlock:
//! a non-empty mailbox always has a live run token, and every wait
//! re-checks the runtime's abort flag on a short tick, so a dead worker
//! fails posts fast instead of wedging the producer. Messages flow one
//! way per path (in via mailboxes, replies out via one unbounded std
//! `mpsc` channel), so no request/reply channel cycle exists for a full
//! queue to close.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pmr_sim::UserId;

use crate::config::{EngineConfig, RuntimeOptions};
use crate::shard::{panic_detail, QueryScratch, ShardMsg, ShardReply, ShardState, UserState};

/// Messages a worker pulls from the shared run queue.
enum Task {
    /// Run the given shard: drain its mailbox until idle or yield.
    Run(usize),
    /// Exit the worker loop (sent once per worker at shutdown).
    Stop,
}

/// Max messages drained per mailbox lock acquisition.
const BATCH: usize = 64;
/// Batches a worker applies before re-queuing a still-runnable shard —
/// the cooperative yield point that keeps one hot shard from starving
/// the rest of the run queue.
const MAX_TURNS: usize = 8;
/// Re-check tick for the two cooperative waits (full mailbox, shutdown
/// quiescence): bounds the cost of any lost wakeup and lets waiters
/// observe the abort flag promptly. Liveness only — never correctness.
const WAIT_TICK: Duration = Duration::from_millis(1);

/// Per-logical-shard backpressure counter names, log-4 bucketed by shard
/// id so hot-key skew (a celebrity's shard saturating while the rest idle)
/// is visible in reports without one counter per shard.
const SHARD_BUCKETS: [&str; 11] = [
    "serve.backpressure.shard_b0",
    "serve.backpressure.shard_b1",
    "serve.backpressure.shard_b2",
    "serve.backpressure.shard_b3",
    "serve.backpressure.shard_b4",
    "serve.backpressure.shard_b5",
    "serve.backpressure.shard_b6",
    "serve.backpressure.shard_b7",
    "serve.backpressure.shard_b8",
    "serve.backpressure.shard_b9",
    "serve.backpressure.shard_b10",
];

/// Log-4 bucket of a shard id: 0 → b0, 1–3 → b1, 4–15 → b2, 16–63 → b3, …
fn shard_bucket(shard: usize) -> usize {
    let mut bucket = 0;
    let mut edge = 1usize;
    while shard >= edge && bucket < SHARD_BUCKETS.len() - 1 {
        bucket += 1;
        edge = edge.saturating_mul(4);
    }
    bucket
}

/// Count one backpressure event: the aggregate counter (asserted by the
/// scale gate) plus the shard's log-4 bucket.
fn note_backpressure(shard: usize) {
    pmr_obs::counter_add("serve.backpressure", 1);
    pmr_obs::counter_add(SHARD_BUCKETS[shard_bucket(shard)], 1);
}

/// One logical shard's mailbox. Invariant: `queue` non-empty ⇒ `scheduled`
/// — every message posted into an unscheduled mailbox enqueues exactly one
/// run token, and only the worker that empties the queue clears the flag,
/// so a runnable shard always has a live token and a shard is never run by
/// two workers at once.
struct Mailbox {
    queue: VecDeque<ShardMsg>,
    scheduled: bool,
    /// Worker that last ran this shard (`usize::MAX` before the first
    /// run); a different worker picking the token up counts as a steal.
    last_worker: usize,
}

struct ShardCell {
    mailbox: Mutex<Mailbox>,
    /// Notified when a drain frees capacity in a previously-full mailbox
    /// and when the mailbox goes idle (empty and descheduled); the waiters
    /// are the backpressured producer and shutdown's quiescence loop.
    vacant: Condvar,
    /// The shard's user partition. Only the token-holding worker locks it,
    /// so the lock is uncontended; it exists to move the state between
    /// workers safely as the shard migrates.
    state: Mutex<ShardState>,
}

/// The run queue: run tokens of runnable shards, and one `Stop` per worker
/// at shutdown. Idle workers park on `ready`; every push wakes one.
#[derive(Default)]
struct RunQueue {
    tasks: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

impl RunQueue {
    /// Queue `task` and wake one parked worker.
    fn push(&self, task: Task) {
        self.tasks.lock().unwrap_or_else(PoisonError::into_inner).push_back(task);
        self.ready.notify_one();
    }

    /// Take the oldest task, parking while the queue is empty. A call that
    /// finds the queue empty counts one `serve.runtime.parks`, recorded
    /// once it has a task and has let go of the lock.
    fn pop(&self) -> Task {
        let mut tasks = self.tasks.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(task) = tasks.pop_front() {
            return task;
        }
        loop {
            tasks = self.ready.wait(tasks).unwrap_or_else(PoisonError::into_inner);
            if let Some(task) = tasks.pop_front() {
                drop(tasks);
                pmr_obs::counter_add("serve.runtime.parks", 1);
                return task;
            }
        }
    }
}

struct Shared {
    cells: Vec<ShardCell>,
    capacity: usize,
    run_queue: RunQueue,
    /// Set by a panicking worker before it dies; every cooperative wait
    /// re-checks it so the producer and shutdown fail fast instead of
    /// waiting on a shard whose run token died with the worker.
    aborted: AtomicBool,
}

/// A running runtime: accepts posted messages and owns the worker threads
/// that apply them. Replies flow out through the channel the engine passed
/// at start.
pub(crate) struct ShardRuntime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    panicked: bool,
}

impl ShardRuntime {
    /// Spawn `options.workers` worker threads over the given per-shard user
    /// partitions (`partitions.len()` is the logical shard count).
    pub(crate) fn start(
        config: EngineConfig,
        options: RuntimeOptions,
        partitions: Vec<BTreeMap<UserId, UserState>>,
        reply_tx: &Sender<ShardReply>,
    ) -> ShardRuntime {
        let cells: Vec<ShardCell> = partitions
            .into_iter()
            .enumerate()
            .map(|(shard, users)| ShardCell {
                mailbox: Mutex::new(Mailbox {
                    queue: VecDeque::new(),
                    scheduled: false,
                    last_worker: usize::MAX,
                }),
                vacant: Condvar::new(),
                state: Mutex::new(ShardState::new(shard, config, users)),
            })
            .collect();
        let shared = Arc::new(Shared {
            cells,
            capacity: options.queue_capacity,
            run_queue: RunQueue::default(),
            aborted: AtomicBool::new(false),
        });
        let handles = (0..options.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let reply = reply_tx.clone();
                std::thread::spawn(move || worker_loop(worker, &shared, &reply))
            })
            .collect();
        ShardRuntime { shared, handles, workers: options.workers, panicked: false }
    }

    /// Logical shard count.
    pub(crate) fn shards(&self) -> usize {
        self.shared.cells.len()
    }

    /// Deliver `msg` to `shard`'s FIFO, blocking (with a backpressure
    /// count) while the queue is full. `Err` means the shard can no longer
    /// accept messages — the runtime was shut down, or a worker died while
    /// the queue was full.
    pub(crate) fn post(&mut self, shard: usize, msg: ShardMsg) -> Result<(), ()> {
        if self.handles.is_empty() {
            return Err(()); // already shut down
        }
        let cell = &self.shared.cells[shard];
        let schedule = {
            let mut mb = cell.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            if mb.queue.len() >= self.shared.capacity {
                note_backpressure(shard);
                // Cooperative wait for a worker to drain room. The timeout
                // tick only bounds lost wakeups and abort latency; a full
                // queue implies a live run token, so progress is a worker
                // away unless the runtime aborted.
                while mb.queue.len() >= self.shared.capacity {
                    if self.shared.aborted.load(Ordering::Acquire) {
                        return Err(());
                    }
                    let (guard, _timeout) = cell
                        .vacant
                        .wait_timeout(mb, WAIT_TICK)
                        .unwrap_or_else(PoisonError::into_inner);
                    mb = guard;
                }
            }
            mb.queue.push_back(msg);
            !std::mem::replace(&mut mb.scheduled, true)
        };
        if schedule {
            self.shared.run_queue.push(Task::Run(shard));
        }
        Ok(())
    }

    /// Drain every shard, stop every worker thread and join them.
    /// Idempotent, and deliberately panic-free even when a worker
    /// panicked — the engine's drop path must be able to call this during
    /// unwinding. The panic is recorded instead ([`ShardRuntime::panicked`]).
    pub(crate) fn shutdown(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Quiesce: wait until every mailbox is empty and descheduled (all
        // run tokens retired), so no worker is mid-shard when the Stop
        // tokens go out. An abort breaks the wait — a dead worker's shard
        // may never drain.
        for cell in &self.shared.cells {
            let mut mb = cell.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            while (!mb.queue.is_empty() || mb.scheduled)
                && !self.shared.aborted.load(Ordering::Acquire)
            {
                let (guard, _timeout) =
                    cell.vacant.wait_timeout(mb, WAIT_TICK).unwrap_or_else(PoisonError::into_inner);
                mb = guard;
            }
        }
        for _ in 0..self.handles.len() {
            self.shared.run_queue.push(Task::Stop);
        }
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                self.panicked = true;
            }
        }
    }

    /// Whether any worker thread panicked (observable after [`shutdown`]).
    ///
    /// [`shutdown`]: ShardRuntime::shutdown
    pub(crate) fn panicked(&self) -> bool {
        self.panicked
    }
}

impl std::fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.shared.cells.len())
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// A worker's reusable buffers, lent to every shard it runs: the batch a
/// turn drains from a mailbox, the replies the batch produced, and the
/// query scratch. A turn empties the batch and the replies before it ends,
/// so only their capacity carries from one shard to the next, and queries
/// reuse one scoring kernel per thread however many logical shards exist.
#[derive(Default)]
struct WorkerBuffers {
    batch: Vec<ShardMsg>,
    replies: Vec<ShardReply>,
    scratch: QueryScratch,
}

/// One worker: pull run tokens off the run queue, drain the named shard,
/// park when nothing is runnable. The worker owns one [`WorkerBuffers`]
/// and lends it to every shard it runs, so the loop allocates nothing per
/// turn once the buffers are warm. A panic anywhere in
/// message handling is caught per token: record the abort, wake every
/// waiter, send [`ShardReply::Aborted`] so the engine's snapshot barrier
/// fails fast instead of waiting forever for a dead shard's reply, then
/// re-raise so the shutdown join still observes it.
fn worker_loop(worker: usize, shared: &Shared, reply: &Sender<ShardReply>) {
    let mut buffers = WorkerBuffers::default();
    while let Task::Run(shard) = shared.run_queue.pop() {
        let turn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_shard(worker, shard, shared, reply, &mut buffers);
        }));
        if let Err(payload) = turn {
            let detail = panic_detail(payload.as_ref());
            record_abort(shared, reply, shard, detail);
            std::panic::resume_unwind(payload);
        }
    }
}

/// Drain `shard`'s mailbox in batches while holding its run token: apply
/// up to [`BATCH`] messages per mailbox lock, release the token when the
/// queue empties, or re-queue the shard after [`MAX_TURNS`] batches — the
/// cooperative yield point between ingest, query and snapshot work.
fn run_shard(
    worker: usize,
    shard: usize,
    shared: &Shared,
    reply: &Sender<ShardReply>,
    buffers: &mut WorkerBuffers,
) {
    let cell = &shared.cells[shard];
    let WorkerBuffers { batch, replies, scratch } = buffers;
    for _turn in 0..MAX_TURNS {
        let was_full = {
            let mut mb = cell.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            if mb.last_worker != worker {
                if mb.last_worker != usize::MAX {
                    pmr_obs::counter_add("serve.runtime.steals", 1);
                }
                mb.last_worker = worker;
            }
            let was_full = mb.queue.len() >= shared.capacity;
            let n = mb.queue.len().min(BATCH);
            batch.extend(mb.queue.drain(..n));
            was_full
        };
        if was_full {
            // The producer may be parked on the full mailbox; the drain
            // above freed room.
            cell.vacant.notify_all();
        }
        {
            let mut state = cell.state.lock().unwrap_or_else(PoisonError::into_inner);
            for msg in batch.drain(..) {
                state.apply(msg, replies, scratch);
            }
        }
        for r in replies.drain(..) {
            let _ = reply.send(r);
        }
        let idle = {
            let mut mb = cell.mailbox.lock().unwrap_or_else(PoisonError::into_inner);
            if mb.queue.is_empty() {
                mb.scheduled = false;
                true
            } else {
                false
            }
        };
        if idle {
            // Shutdown's quiescence loop watches for empty + descheduled.
            cell.vacant.notify_all();
            return;
        }
    }
    pmr_obs::counter_add("serve.runtime.yields", 1);
    shared.run_queue.push(Task::Run(shard));
}

/// A worker is dying: set the abort flag, tell the engine, and wake every
/// cooperative waiter so nothing stays parked on a shard whose run token
/// just died.
fn record_abort(shared: &Shared, reply: &Sender<ShardReply>, shard: usize, detail: String) {
    shared.aborted.store(true, Ordering::Release);
    let _ = reply.send(ShardReply::Aborted { shard, detail });
    for cell in &shared.cells {
        // Lock-then-notify: serializes with a waiter between its abort
        // check and its wait, so the wakeup cannot be lost (the wait tick
        // bounds the cost even if it were).
        drop(cell.mailbox.lock().unwrap_or_else(PoisonError::into_inner));
        cell.vacant.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_buckets_are_log4() {
        assert_eq!(shard_bucket(0), 0);
        assert_eq!(shard_bucket(1), 1);
        assert_eq!(shard_bucket(3), 1);
        assert_eq!(shard_bucket(4), 2);
        assert_eq!(shard_bucket(15), 2);
        assert_eq!(shard_bucket(16), 3);
        assert_eq!(shard_bucket(63), 3);
        assert_eq!(shard_bucket(64), 4);
        assert_eq!(shard_bucket(usize::MAX), SHARD_BUCKETS.len() - 1);
    }

    /// Whether `f` returns within a minute. It runs on its own thread, so a
    /// hang (a lost wakeup, a shutdown that never quiesces) fails the test
    /// instead of stalling the suite; a panic in `f` fails it too.
    fn returns_within_a_minute(f: impl FnOnce() + Send + 'static) -> bool {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        done_rx.recv_timeout(Duration::from_secs(60)).is_ok()
    }

    #[test]
    fn a_parked_worker_wakes_for_every_push() {
        const ROUNDS: usize = 50_000;
        assert!(returns_within_a_minute(|| {
            let queue = Arc::new(RunQueue::default());
            let (ack_tx, ack_rx) = std::sync::mpsc::channel();
            let worker = {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    while let Task::Run(round) = queue.pop() {
                        ack_tx.send(round).expect("the pusher waits for every ack");
                    }
                })
            };
            // One token at a time: the worker has acked the last one and
            // found the queue empty, so each push lands on a parked (or
            // parking) worker.
            for round in 0..ROUNDS {
                queue.push(Task::Run(round));
                assert_eq!(ack_rx.recv(), Ok(round));
            }
            queue.push(Task::Stop);
            worker.join().expect("the worker exits on Stop");
        }));
    }

    fn bag_runtime(workers: usize) -> (ShardRuntime, std::sync::mpsc::Receiver<ShardReply>) {
        let config = EngineConfig {
            model: crate::config::ServeModel::Bag {
                weighting: pmr_bag::WeightingScheme::TF,
                similarity: pmr_bag::BagSimilarity::Cosine,
                char_grams: false,
                n: 1,
                decay: 1.0,
            },
            window: 4,
        };
        let options =
            RuntimeOptions { shards: 4, workers, queue_capacity: 4, ..Default::default() };
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let partitions = (0..options.shards).map(|_| BTreeMap::new()).collect();
        (ShardRuntime::start(config, options, partitions, &reply_tx), reply_rx)
    }

    #[test]
    fn shutdown_returns_when_every_worker_is_parked() {
        assert!(returns_within_a_minute(|| {
            let (mut runtime, _replies) = bag_runtime(4);
            // Nothing was posted, so every worker finds the run queue empty
            // and parks. The pause only makes it likely that all of them
            // are waiting when the Stops go out; shutdown must return
            // whatever the interleaving.
            std::thread::sleep(Duration::from_millis(20));
            runtime.shutdown();
            assert!(!runtime.panicked());
        }));
    }

    #[test]
    fn shutdown_returns_after_a_poisoned_shard_aborts() {
        assert!(returns_within_a_minute(|| {
            let (mut runtime, replies) = bag_runtime(2);
            assert!(runtime.post(1, ShardMsg::Poison).is_ok());
            let abort = replies.recv().expect("the dying worker reports");
            assert!(matches!(abort, ShardReply::Aborted { shard: 1, .. }), "{abort:?}");
            runtime.shutdown();
            assert!(runtime.panicked());
        }));
    }
}
