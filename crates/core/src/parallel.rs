//! The planner's width and deterministic parallel evaluation, built on
//! the same bounded MPMC queue that feeds the serve worker pool (the
//! queue lives here so both the planner and `espresso-serve` share one
//! implementation; serve re-exports it).
//!
//! [`EvalPool::workers`] is the planner width: Algorithm 1 and the CPU
//! backfill run up to that many [`espresso_sim::DeltaSim`] evaluators,
//! one on the caller's thread and the rest on helper threads (see
//! `decision::stage`); plans on the process-wide pool share the width, so
//! concurrent plans add no helpers while every core is busy.
//! [`EvalPool::run`] fans a batch of [`PreparedEval`] units out across
//! up to that many threads and returns the results **merged by unit
//! index** — the robust selector's ensemble matrix. Each unit is a
//! self-contained plan (plus an optional fault plan) whose evaluation
//! touches only a per-worker scratch, so the value computed for unit `i`
//! is bitwise-identical no matter which worker ran it or in what order —
//! scheduling affects wall-clock only, never bytes.
//! The parallel-determinism property test pins this across worker counts
//! 1/2/8.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use espresso_sim::{EvalScratch, PreparedEval};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
///
/// Producers push with [`BoundedQueue::try_push`] — which *fails* rather
/// than blocks when the queue is full, so overload turns into immediate
/// backpressure (the serve accept loop answers 503) instead of an
/// unbounded backlog. Consumers block on [`BoundedQueue::pop`]. Closing
/// the queue wakes every consumer; they drain what was already queued
/// and then exit — the graceful-shutdown order both the server and the
/// planner pool want.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item`, or hands it back if the queue is full or closed.
    /// Never blocks.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the item was not enqueued, so the caller
    /// can shed it (e.g. answer 503).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: no further pushes succeed; blocked and future
    /// `pop`s drain the backlog and then return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The fewest simulated tasks per thread for [`EvalPool::run`] to fan a
/// batch out: below it, starting a thread costs more than its share of
/// the work. The robust ensemble matrix of a small job (LSTM or VGG16 on
/// 2×4, ~60 units of a few hundred tasks) stays inline; a paper model's
/// at 8×8 fans out.
const MIN_TASKS_PER_WORKER: usize = 20_000;

/// Threads planning on [`EvalPool::from_env`] pools in this process:
/// every stage's or batch's calling thread plus the helpers it holds.
static PLANNING: AtomicUsize = AtomicUsize::new(0);

/// The planner width: how many threads evaluate candidate strategies.
///
/// `workers == 1` (the `Default`) evaluates inline on the caller's thread
/// and spawns nothing; more workers spawn scoped threads per decision
/// stage (Algorithm 1, the backfill) or per [`EvalPool::run`] batch.
/// Either way results are folded in canonical candidate order, so the
/// selected strategy and every deterministic counter are bit-identical
/// at every width.
///
/// A pool from [`EvalPool::new`] is private: each stage gets its full
/// width. The pool from [`EvalPool::from_env`] is shared by every plan in
/// the process, so concurrent plans (serve workers, fleet replan workers)
/// spend only idle cores on helpers, and it lends them only to stages
/// large enough to repay a replica.
#[derive(Debug, Clone, Copy)]
pub struct EvalPool {
    workers: usize,
    /// The count of threads planning on this pool, when it is shared.
    busy: Option<&'static AtomicUsize>,
}

impl Default for EvalPool {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Threads leased from an [`EvalPool`] for one stage or batch, the
/// calling thread included; returned to the pool on drop.
pub(crate) struct Lease {
    threads: usize,
    busy: Option<&'static AtomicUsize>,
}

impl Lease {
    /// Threads granted, the caller included (≥ 1).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(busy) = self.busy {
            busy.fetch_sub(self.threads, Ordering::Relaxed);
        }
    }
}

impl EvalPool {
    /// A private pool of `workers` threads (clamped to ≥ 1; 1 = inline).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            busy: None,
        }
    }

    /// The process's shared planner pool. Its width comes from
    /// `ESPRESSO_PLANNER_THREADS`, defaulting to the host's cores
    /// (`std::thread::available_parallelism`, 1 if unknown); unset,
    /// unparsable or zero values take the default, and
    /// `ESPRESSO_PLANNER_THREADS=1` plans serially on the calling thread.
    /// Concurrent plans share the width: a plan adds helper threads only
    /// while fewer than that many threads plan in the process.
    pub fn from_env() -> Self {
        let workers = std::env::var("ESPRESSO_PLANNER_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self {
            workers,
            busy: Some(&PLANNING),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether this is the process's shared pool.
    pub(crate) fn is_shared(&self) -> bool {
        self.busy.is_some()
    }

    /// A shared pool of `workers` threads with its own count, so a test
    /// sees no other test's plans.
    #[cfg(test)]
    pub(crate) fn shared(workers: usize) -> Self {
        Self {
            workers,
            busy: Some(Box::leak(Box::new(AtomicUsize::new(0)))),
        }
    }

    /// Leases up to `want` threads (clamped to `1..=workers`), the
    /// calling thread included. A private pool grants them all. A shared
    /// pool always counts the caller and adds helpers only while fewer
    /// than `workers` threads plan on it, so all concurrent plans together
    /// hold at most `workers - 1` helpers, and a plan that starts while
    /// the cores are busy runs inline.
    pub(crate) fn lease(&self, want: usize) -> Lease {
        let want = want.clamp(1, self.workers);
        let Some(busy) = self.busy else {
            return Lease {
                threads: want,
                busy: None,
            };
        };
        let mut planning = busy.fetch_add(1, Ordering::Relaxed) + 1;
        let mut threads = 1;
        loop {
            let helpers = (want - 1).min(self.workers.saturating_sub(planning));
            if helpers == 0 {
                break;
            }
            match busy.compare_exchange_weak(
                planning,
                planning + helpers,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    threads += helpers;
                    break;
                }
                Err(now) => planning = now,
            }
        }
        Lease {
            threads,
            busy: Some(busy),
        }
    }

    /// Evaluates every unit and returns the iteration times in unit
    /// order. A batch runs on at most one thread per 20,000 simulated
    /// tasks, so small batches stay inline.
    pub fn run(&self, units: Vec<PreparedEval>) -> Vec<f64> {
        let tasks: usize = units.iter().map(PreparedEval::tasks).sum();
        let lease = self.lease(units.len().min(tasks / MIN_TASKS_PER_WORKER));
        if lease.threads() <= 1 {
            let mut scratch = EvalScratch::default();
            return units.iter().map(|u| u.run(&mut scratch)).collect();
        }
        let n = units.len();
        let queue = BoundedQueue::new(n);
        for item in units.into_iter().enumerate() {
            let _ = queue.try_push(item);
        }
        queue.close();
        let results = Mutex::new(vec![0.0f64; n]);
        let work = || {
            let mut scratch = EvalScratch::default();
            while let Some((i, unit)) = queue.pop() {
                let t = unit.run(&mut scratch);
                results.lock().unwrap_or_else(|e| e.into_inner())[i] = t;
            }
        };
        std::thread::scope(|s| {
            for _ in 1..lease.threads() {
                s.spawn(work);
            }
            work();
        });
        results.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::{Cluster, CommPattern};
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_sim::{Job, SimConfig, Simulator};
    use espresso_strategy::{OptionSpace, Strategy};

    #[test]
    fn overflow_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn a_shared_pool_lends_helpers_only_to_idle_cores() {
        let pool = EvalPool::shared(3);
        let first = pool.lease(8);
        assert_eq!(first.threads(), 3, "an idle pool grants its full width");
        let second = pool.lease(3);
        assert_eq!(second.threads(), 1, "a busy pool runs the caller inline");
        drop(first);
        let third = pool.lease(2);
        assert_eq!(third.threads(), 2);
        assert_eq!(pool.lease(3).threads(), 1);
        drop((second, third));
        assert_eq!(pool.lease(3).threads(), 3, "leases return every thread");
        let private = EvalPool::new(3).lease(8);
        assert_eq!(private.threads(), 3, "a private pool is not shared");
        assert_eq!(pool.lease(0).threads(), 1);
    }

    #[test]
    fn pool_results_are_identical_across_worker_counts() {
        // Large enough that the batch fans out at every width tested.
        let job = Job::new(
            Model::ResNet101.profile(),
            Cluster::pcie_25g(2, 4),
            GcAlgorithm::randomk_1pct(),
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let base = Strategy::uncompressed(job.num_tensors(), CommPattern::Hierarchical, &job.cluster);
        let build = || -> Vec<PreparedEval> {
            space
                .gpu_compressed()
                .iter()
                .map(|opt| {
                    let mut s = base.clone();
                    s.set_option(0, opt.clone());
                    sim.prepare(&s)
                })
                .collect()
        };
        let tasks: usize = build().iter().map(PreparedEval::tasks).sum();
        assert!(tasks / MIN_TASKS_PER_WORKER >= 2, "the batch must fan out");
        let serial = EvalPool::new(1).run(build());
        for workers in [2, 8] {
            let parallel = EvalPool::new(workers).run(build());
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "worker count changed a result");
            }
        }
        // And the values are the true iteration times.
        for (opt, t) in space.gpu_compressed().iter().zip(&serial) {
            let mut s = base.clone();
            s.set_option(0, opt.clone());
            assert_eq!(t.to_bits(), sim.iteration_time(&s).to_bits());
        }
    }
}
