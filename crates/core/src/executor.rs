//! Parallel sweep execution: the workspace's one work pool, which fans
//! independent `(configuration, source)` runs across CPU cores and runs
//! the nested sections inside each run.
//!
//! # Design
//!
//! [`run_tasks`] spawns `jobs` scoped workers over the task list. Each
//! worker claims the next task index from one shared `AtomicUsize` the
//! moment it finishes the previous task (natural load balancing — a cheap
//! TN run never waits behind an HDP run) and keeps each result under its
//! index, so results come back in input order with no channel and no
//! sort. Because each run derives all of its randomness from fixed seeds
//! (see the audit below), the output is **byte-identical regardless of
//! `jobs` or scheduling**, except for the wall-clock
//! `train_time`/`test_time` fields of each measurement.
//!
//! # Send/Sync audit
//!
//! The sweep closure captures `&ExperimentRunner` (which borrows
//! [`crate::prepare::PreparedCorpus`]) plus `&RunnerOptions`. All of these
//! are plain owned data — `Vec`s, `HashMap`s, strings, numbers — with no
//! interior mutability (`Cell`/`RefCell`) and no `Rc`, so they are `Sync`
//! and shared freely across workers. Every random decision inside a run
//! seeds a fresh `StdRng` from per-(user, document, configuration)
//! constants: per-document topic inference uses
//! `opts.seed ^ id.0 * 0x2545_F491_4F6C_DD1D`, per-user splits were fixed
//! at corpus preparation, and the random baseline seeds per user. Nothing
//! reads global mutable state, so concurrent runs cannot perturb each
//! other's scores.
//!
//! # Nested parallelism
//!
//! Runs also parallelize internally: per-user scoring and per-document θ
//! inference go through `nested_map`, the same claim loop at the
//! inner-thread budget [`inner_threads`]. To avoid `jobs × n_cpu`
//! oversubscription, [`inner_threads_for_jobs`] installs
//! `max(1, n_cpu / jobs)` as that budget for the duration of a sweep and
//! restores the previous one on drop. At budget 1 a nested map runs inline
//! on its caller's thread. Nested maps record no `executor.*` metric, so
//! those figures describe the outer pool alone.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// 0 = unset (fall back to [`default_jobs`]).
static INNER_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The inner-thread budget of nested maps, defaulting to [`default_jobs`].
pub fn inner_threads() -> usize {
    match INNER_THREADS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Scoped inner-thread budget: holds its budget until dropped, then
/// restores the previous one.
#[derive(Debug)]
pub struct InnerThreadsGuard {
    prev: usize,
}

impl InnerThreadsGuard {
    /// Install `budget` (0 = the default) until the guard drops.
    pub(crate) fn install(budget: usize) -> InnerThreadsGuard {
        InnerThreadsGuard { prev: INNER_THREADS.swap(budget, Ordering::Relaxed) }
    }
}

/// Install the inner-thread budget appropriate for an outer pool of `jobs`
/// workers, `max(1, n_cpu / jobs)`. Restores the previous budget when the
/// guard drops.
pub fn inner_threads_for_jobs(jobs: usize) -> InnerThreadsGuard {
    InnerThreadsGuard::install((default_jobs() / jobs.max(1)).max(1))
}

impl Drop for InnerThreadsGuard {
    fn drop(&mut self) {
        INNER_THREADS.store(self.prev, Ordering::Relaxed);
    }
}

/// A shared atomic progress counter that reports to stderr every `every`
/// completions (and on the final one). Safe to tick from any worker.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    every: usize,
    done: AtomicUsize,
    printed: AtomicBool,
    finished: AtomicBool,
    started: Instant,
}

impl Progress {
    /// A counter over `total` tasks reporting every `every` ticks.
    pub fn new(total: usize, every: usize) -> Progress {
        Progress {
            total,
            every: every.max(1),
            done: AtomicUsize::new(0),
            printed: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            // pmr-lint: allow(wall-clock): feeds the stderr progress line only, never a result artifact
            started: Instant::now(),
        }
    }

    /// Record one completed task; prints a carriage-return status line at
    /// the reporting interval. Returns the new completion count.
    pub fn tick(&self) -> usize {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.every) || done == self.total {
            self.printed.store(true, Ordering::Relaxed);
            eprint!(
                "\r  {done}/{} runs ({:.0}s elapsed)   ",
                self.total,
                self.started.elapsed().as_secs_f64()
            );
            let _ = std::io::stderr().flush();
        }
        done
    }

    /// Completed count so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Terminate the carriage-return status line. Idempotent, and a no-op
    /// when no status line was ever printed — a zero-task or
    /// silent-interval sweep must not emit a stray blank line.
    pub fn finish(&self) {
        if self.printed.load(Ordering::Relaxed) && !self.finished.swap(true, Ordering::Relaxed) {
            eprintln!();
            let _ = std::io::stderr().flush();
        }
    }
}

impl Drop for Progress {
    /// Terminate the status line even when the sweep unwinds mid-run, so a
    /// panic message never lands on the tail of a carriage-return line.
    fn drop(&mut self) {
        self.finish();
    }
}

/// The claim loop behind [`run_tasks`] and `nested_map`: run
/// `worker(w, claims)` on `workers` scoped threads, where every worker's
/// `claims` draws from one shared counter over `0..n`, and keep every
/// `(index, result)` a worker returns under its index. A worker claims its
/// next index the moment it finishes the previous one, so uneven costs
/// balance themselves, and the results come back in index order whichever
/// worker ran what. A panic in a worker re-raises on the caller once every
/// other worker has joined.
fn claim_loop<R, W>(n: usize, workers: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize, &mut dyn Iterator<Item = usize>) -> Vec<(usize, R)> + Sync,
{
    // Relaxed: the counter only hands out indices. Inputs reach a worker
    // through its spawn, and results come back through its join.
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let (worker, claim) = (&worker, &claim);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker(w, &mut std::iter::from_fn(claim))))
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for results in joined {
        for (i, r) in results.unwrap_or_else(|panic| std::panic::resume_unwind(panic)) {
            slots[i] = Some(r);
        }
    }
    slots.into_iter().flatten().collect()
}

/// Map `f` over `items` at the inner-thread budget ([`inner_threads`]) and
/// return the results in input order: the nested sections of one run
/// (per-user scoring, per-document θ inference) inside an outer
/// [`run_tasks`] worker. Runs inline when the budget is 1, and records no
/// `executor.*` metric.
pub(crate) fn nested_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = inner_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    claim_loop(items.len(), threads, |_, claims| claims.map(|i| (i, f(&items[i]))).collect())
}

/// Run `f(index, task)` for every task on a pool of `jobs` workers and
/// return the results **in input order**, regardless of which worker
/// finished which task when.
///
/// Workers claim task indices as they become free, so heterogeneous task
/// costs balance automatically. With `jobs <= 1` (or a single task) the
/// tasks run inline on the caller's thread — same results, no pool.
pub fn run_tasks<T, R, F>(tasks: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    let jobs = jobs.clamp(1, n.max(1));
    // Observability (no-ops unless a recorder is installed): publish the
    // pool shape and measure per-task / per-worker time on the injected
    // obs clock, never on wall-clock reads of our own.
    pmr_obs::gauge_set("executor.jobs", jobs as f64);
    pmr_obs::gauge_set("executor.inner_threads_hint", inner_threads() as f64);
    pmr_obs::counter_add("executor.tasks_submitted", n as u64);
    let pool_start = pmr_obs::now();
    let out: Vec<R> = if jobs == 1 {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let _timer = pmr_obs::timer("executor.task");
                f(i, t)
            })
            .collect()
    } else {
        // Each task waits in its slot until the worker that claims its
        // index takes it out.
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let take = |i: usize| slots[i].lock().unwrap_or_else(PoisonError::into_inner).take();
        claim_loop(n, jobs, |worker, claims| {
            let mut busy = Duration::ZERO;
            let mut results = Vec::new();
            for i in claims {
                // Claimed once, so the slot still holds its task.
                let Some(task) = take(i) else { continue };
                let picked = pmr_obs::now();
                if let (Some(t0), Some(t1)) = (pool_start, picked) {
                    // Every task is queued before the pool starts, so
                    // pickup − pool start is its queue wait.
                    pmr_obs::observe_duration("executor.queue_wait", t1.saturating_sub(t0));
                }
                pmr_obs::event(
                    "executor",
                    "task_start",
                    &[("task", i.into()), ("worker", worker.into())],
                );
                let out = f(i, task);
                if let (Some(t1), Some(t2)) = (picked, pmr_obs::now()) {
                    let took = t2.saturating_sub(t1);
                    busy += took;
                    pmr_obs::observe_duration("executor.task", took);
                }
                pmr_obs::event(
                    "executor",
                    "task_end",
                    &[("task", i.into()), ("worker", worker.into())],
                );
                results.push((i, out));
            }
            // Per-worker utilization: busy time over the pool's wall time
            // (compared offline against `executor.pool_wall`).
            pmr_obs::observe_duration("executor.worker_busy", busy);
            pmr_obs::event(
                "executor",
                "worker_done",
                &[("worker", worker.into()), ("tasks", results.len().into())],
            );
            results
        })
    };
    if let (Some(t0), Some(t1)) = (pool_start, pmr_obs::now()) {
        pmr_obs::observe_duration("executor.pool_wall", t1.saturating_sub(t0));
    }
    debug_assert_eq!(out.len(), n, "every task produces exactly one result");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serializes the tests that change the inner-thread budget or read the
    /// installed recorder's `executor.*` metrics, and with them every test
    /// of this crate that starts a pool.
    pub(crate) fn hint_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let _lock = hint_lock();
        let tasks: Vec<u64> = (0..97).collect();
        // Uneven task costs: make early tasks slow so a naive
        // completion-order collect would scramble the output.
        let out = run_tasks(tasks.clone(), 4, |i, t| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            t * 2
        });
        assert_eq!(out, tasks.iter().map(|t| t * 2).collect::<Vec<_>>());
        // More jobs than tasks: every task still lands in its own slot.
        let few: Vec<u64> = vec![5, 6, 7];
        let out = run_tasks(few.clone(), 8, |i, t| {
            std::thread::sleep(std::time::Duration::from_millis(3 * (3 - i as u64)));
            t * 2
        });
        assert_eq!(out, vec![10, 12, 14]);
    }

    #[test]
    fn jobs_one_matches_parallel() {
        let _lock = hint_lock();
        let tasks: Vec<u64> = (0..40).collect();
        let seq = run_tasks(tasks.clone(), 1, |i, t| t.wrapping_mul(i as u64 + 7));
        let par = run_tasks(tasks, 8, |i, t| t.wrapping_mul(i as u64 + 7));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let _lock = hint_lock();
        let out = run_tasks(Vec::<u32>::new(), 4, |_, t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn progress_counts_every_tick() {
        let _lock = hint_lock();
        let p = Progress::new(100, 1000); // interval > total: stays silent
        let ticks: Vec<u32> = (0..100).collect();
        run_tasks(ticks, 4, |_, _| {
            p.tick();
        });
        assert_eq!(p.done(), 100);
    }

    #[test]
    fn a_panicking_task_re_raises_on_the_caller_after_the_other_workers_join() {
        let _lock = hint_lock();
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks((0..40u32).collect(), 4, |i, t| {
                if i == 3 {
                    panic!("task 3 dies");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                finished.fetch_add(1, Ordering::Relaxed);
                t
            })
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 3 dies"), "the task's own payload");
        assert_eq!(finished.load(Ordering::Relaxed), 39, "every other task ran first");
    }

    #[test]
    fn inner_thread_hint_round_trips() {
        let _lock = hint_lock();
        let before = inner_threads();
        {
            let _guard = inner_threads_for_jobs(default_jobs());
            assert_eq!(inner_threads(), 1);
            let _inner = InnerThreadsGuard::install(0);
            assert_eq!(inner_threads(), default_jobs(), "0 falls back to the default");
        }
        assert_eq!(inner_threads(), before);
    }

    #[test]
    fn inner_thread_hint_restored_when_worker_panics() {
        let _lock = hint_lock();
        let before = inner_threads();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner_threads_for_jobs(4);
            run_tasks(vec![0u32, 1, 2, 3, 4, 5], 2, |i, t| {
                if i == 3 {
                    panic!("worker closure dies");
                }
                t
            });
        }));
        assert!(caught.is_err(), "the worker panic propagates out of the scope");
        assert_eq!(inner_threads(), before, "the drop guard restores the hint on unwind");
    }

    #[test]
    fn progress_finish_is_silent_and_idempotent_without_output() {
        // A zero-task sweep never prints a status line, so finish() (and
        // the Drop impl after it) must not emit a stray newline. We cannot
        // capture stderr here, but we can at least assert this path does
        // not panic and stays idempotent.
        let p = Progress::new(0, 25);
        p.finish();
        p.finish();
        drop(p);
    }
}
