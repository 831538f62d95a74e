//! Deterministic parallel execution of independent simulation tasks.
//!
//! Every evaluation artifact of the reproduction — fleet A/B experiments,
//! figure regeneration, multi-seed averages — is a set of *independent*
//! units of work: one workload replica or one fleet cell, each running its
//! own `Tcmalloc` + sim-os instance from its own seed. This crate shards
//! those units across OS threads without giving up the workspace's core
//! contract that results are bit-identical given a seed:
//!
//! 1. **Seeds are derived, never shared.** Each task carries a
//!    [`wsc_prng::derive_seed`]-produced child seed fixed at submission
//!    time, so no task's stream depends on which thread runs it or when.
//! 2. **Merge order is canonical.** Workers claim leaves of the task index
//!    space from a shared cursor, but completed leaves are reduced in
//!    leaf order before anything is returned. `threads = 1` and
//!    `threads = N` produce byte-identical output.
//! 3. **Panics are captured, not propagated.** A panicking task poisons the
//!    run: workers stop claiming work, every spawned thread is joined (the
//!    pool is scoped — threads cannot leak), and the caller receives a
//!    structured [`TaskError`] naming the failing task's index, seed, and
//!    label instead of a hung run or an opaque abort.
//!
//! The pool is a scoped-thread fork-join with self-scheduling (workers
//! claim contiguous leaves of the index space from a shared cursor), which
//! is work-stealing in the only sense that matters for coarse simulation
//! tasks: a fast worker drains leaves a slow worker never reached. There
//! is one such loop; [`Engine::run`] and [`Engine::fold_seeded`] differ
//! only in the accumulator they hand it. No external dependencies.
//!
//! # Streaming folds (the two-level shard tree)
//!
//! [`Engine::run`] collects one result per task — O(tasks) memory, its
//! accumulator being a `Vec` that merges by appending. For fleet-scale
//! work (10⁵ cells) the caller brings a constant-size accumulator:
//! [`Engine::fold_seeded`] partitions the index space into at most
//! [`MAX_FOLD_LEAVES`] contiguous **leaves** (a pure function of the total
//! count, never of thread or shard count), workers claim whole leaves and
//! fold them locally into a fresh accumulator, and a streaming reducer
//! merges completed leaf accumulators in canonical leaf order. Memory is
//! O(workers + pending leaves) accumulators, independent of the index
//! count, and the merge sequence is the same left fold over leaves at any
//! thread count — byte-identical to serial for *any* merge function.
//!
//! The same leaf tree extends across **processes**: [`proc`] assigns each
//! shard a leaf-aligned sub-span ([`process_shard_span`]) and streams the
//! folded accumulator back over a pipe. A parent that merges shard blocks
//! in shard order performs the identical leaf-order reduction, provided the
//! merge is associative — which the integer telemetry summaries
//! (`wsc_telemetry::summary`) guarantee exactly, not just approximately.
//!
//! # Two halves of one run
//!
//! [`pipeline`] splits one sequential computation whose second half only
//! consumes what the first emits (the driver's allocator and its simulated
//! LLC/dTLB) across two cores, when a core is spare and the caller is not
//! itself an engine task. The engine marks its worker threads (and, for
//! the serial engine, its caller for the duration of the run), and
//! [`stream`] keeps both halves on the calling thread under that mark.
//!
//! # Example
//!
//! ```
//! use wsc_parallel::{Engine, Task};
//!
//! let engine = Engine::new(4);
//! let tasks: Vec<Task<u64>> = (0..8)
//!     .map(|i| Task { seed: i, label: format!("unit {i}"), payload: i })
//!     .collect();
//! let out = engine
//!     .run(&tasks, |task, _| task.payload * 2)
//!     .expect("no task panics");
//! assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
//! // Identical at any thread count:
//! let serial = Engine::new(1).run(&tasks, |task, _| task.payload * 2).unwrap();
//! assert_eq!(out, serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// lint:lock-order(reduced, error) — canonical acquisition order for this
// file's mutexes: workers submit finished leaves to `reduced` while
// running, and `error` is only ever taken on the failure path or after the
// scope join. Nothing may hold `error` while acquiring `reduced`.
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod crc;
pub mod proc;
pub mod stream;
pub mod supervisor;

pub use stream::{pipeline, Emit, Producer};

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "WSC_THREADS";

/// One schedulable unit: a payload plus the identity the engine reports it
/// under (seed and label).
#[derive(Clone, Debug)]
pub struct Task<T> {
    /// The task's private seed; all stochastic behaviour inside the task
    /// must derive from it.
    pub seed: u64,
    /// Human-readable identity used in error reports ("machine 3 binary 1").
    pub label: String,
    /// Caller data handed to the task body.
    pub payload: T,
}

/// Structured abort: the first (lowest-index) task that panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskError {
    /// Canonical index of the failing task.
    pub index: usize,
    /// The failing task's seed — enough to replay it in isolation.
    pub seed: u64,
    /// The failing task's label.
    pub label: String,
    /// The panic payload, if it was a string (the common case).
    pub message: String,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} ({}, seed {:#018x}) panicked: {}",
            self.index, self.label, self.seed, self.message
        )
    }
}

impl std::error::Error for TaskError {}

/// A deterministic fork-join execution engine with a fixed thread budget.
///
/// The engine is a value, not a resource: it holds no threads between
/// calls. Each [`run`](Engine::run) spawns a scoped pool, executes, joins,
/// and returns — so dropping an `Engine` can never leak workers, and an
/// `Engine` can be freely cloned into configuration structs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine running `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded engine (the serial reference execution).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Thread count from the `WSC_THREADS` environment variable, falling
    /// back to the machine's available parallelism. Invalid or zero values
    /// fall back too.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        Self::new(threads)
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every task and returns the results in task-index
    /// order, regardless of which thread computed what.
    ///
    /// `f` receives the task and its canonical index. If any task panics,
    /// the run is poisoned (no new work is claimed), all workers are
    /// joined, and the lowest-index captured failure is returned as a
    /// [`TaskError`] carrying that task's own seed and label.
    pub fn run<T, R, F>(&self, tasks: &[Task<T>], f: F) -> Result<Vec<R>, TaskError>
    where
        T: Sync,
        R: Send,
        F: Fn(&Task<T>, usize) -> R + Sync,
    {
        self.run_with(tasks, || (), |(), task, index| f(task, index))
    }

    /// [`run`](Engine::run) with worker-held state: each worker builds one
    /// `W` with `worker()` when it starts and hands it to `f` for every task
    /// it runs, in the order it claims them, until the call ends. A task
    /// must compute the same result whatever an earlier task left in the
    /// state — the state carries storage, not results — so the output is
    /// still identical at any thread count.
    ///
    /// # Errors
    ///
    /// As [`run`](Engine::run).
    pub fn run_with<T, W, R, F>(
        &self,
        tasks: &[Task<T>],
        worker: impl Fn() -> W + Sync,
        f: F,
    ) -> Result<Vec<R>, TaskError>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut W, &Task<T>, usize) -> R + Sync,
    {
        self.fold_leaves(
            &span_leaves(FoldSpan::all(tasks.len())),
            worker,
            Vec::new,
            |w, out: &mut Vec<R>, index| out.push(f(w, &tasks[index], index)),
            |out, mut leaf| out.append(&mut leaf),
            |index| (tasks[index].seed, tasks[index].label.clone()),
        )
    }
}

/// Maximum leaves in the fold shard tree. The leaf partition is a pure
/// function of the index count alone, so serial, threaded, and
/// process-sharded folds all reduce the *same* leaves in the same order.
/// 256 bounds reducer memory (≤ 256 pending accumulators worst case) while
/// leaving enough leaves for every realistic worker count to stay busy.
pub const MAX_FOLD_LEAVES: usize = 256;

/// Number of leaves the fold tree uses for `total` indices: one per index
/// up to [`MAX_FOLD_LEAVES`], then fixed.
pub fn fold_leaf_count(total: usize) -> usize {
    total.min(MAX_FOLD_LEAVES)
}

/// Half-open index range `[lo, hi)` of leaf `leaf` for `total` indices.
/// Leaves partition `0..total` contiguously and near-evenly.
pub fn fold_leaf_bounds(total: usize, leaf: usize) -> (usize, usize) {
    let s = fold_leaf_count(total).max(1);
    (leaf * total / s, (leaf + 1) * total / s)
}

/// Leaf-aligned sub-span of the fold tree owned by `shard` of `shards`
/// processes: shard `s` owns leaf group `[s·S/P, (s+1)·S/P)`. Because shard
/// boundaries coincide with leaf boundaries, a parent that merges shard
/// accumulators in shard order reproduces the exact leaf-order reduction a
/// single process performs (given an associative merge).
pub fn process_shard_span(total: usize, shard: usize, shards: usize) -> FoldSpan {
    let s = fold_leaf_count(total);
    let p = shards.max(1);
    let first = shard.min(p) * s / p;
    let last = (shard + 1).min(p) * s / p;
    let lo = fold_leaf_bounds(total, first).0;
    let hi = fold_leaf_bounds(total, last).0;
    FoldSpan { total, lo, hi }
}

/// A contiguous slice `[lo, hi)` of a fold's global index space `0..total`.
/// The *global* total travels with the span so every process computes the
/// same leaf partition (and the same derived seeds) regardless of which
/// slice it folds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldSpan {
    /// Global index count of the whole fold.
    pub total: usize,
    /// First index (inclusive) this span folds.
    pub lo: usize,
    /// End index (exclusive) this span folds.
    pub hi: usize,
}

impl FoldSpan {
    /// The full span `[0, total)`.
    pub fn all(total: usize) -> Self {
        Self {
            total,
            lo: 0,
            hi: total,
        }
    }

    /// Does this span cover no indices?
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// The leaves of the global fold tree restricted to `span`, in leaf order.
/// Leaf order is global, so a sub-span reduces its leaves in the same
/// relative order the full fold would.
fn span_leaves(span: FoldSpan) -> Vec<(usize, usize)> {
    let lo = span.lo.min(span.total);
    let hi = span.hi.min(span.total);
    (0..fold_leaf_count(span.total))
        .map(|leaf| fold_leaf_bounds(span.total, leaf))
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect()
}

/// Streaming reducer state: completed leaf accumulators are merged into
/// `acc` as soon as they arrive in canonical order; out-of-order leaves
/// wait in `pending` (bounded by the leaf count).
struct FoldState<A> {
    next: usize,
    acc: Option<A>,
    pending: BTreeMap<usize, A>,
}

impl Engine {
    /// Folds `span`'s indices into a single accumulator across this
    /// engine's workers: the streaming counterpart of
    /// [`run`](Engine::run), with O(workers + pending leaves) memory
    /// instead of O(tasks).
    ///
    /// `step(state, acc, index, seed)` folds one index into a leaf
    /// accumulator; `seed` is `derive_seed(master, index)`, a function of
    /// the *global* index, so process shards folding sub-spans see
    /// identical seeds. `state` is the worker's own: each worker builds one
    /// with `worker()` when it starts and hands it to every step it runs,
    /// across all the leaves it claims, until the call ends — a fleet fold
    /// keeps one simulated machine there and renews it per cell. A step
    /// must fold the same value whatever an earlier step left in the state
    /// (the state carries storage, not results). `merge` combines two leaf
    /// accumulators; `label_of` names an index for error reports (only
    /// invoked on failure).
    ///
    /// Determinism contract: the leaf partition depends only on
    /// `span.total`, and completed leaves are merged in ascending leaf
    /// order, so the result is byte-identical at any thread count for any
    /// (even non-associative, non-commutative) `merge`. Splitting a fold
    /// across *processes* via [`process_shard_span`] additionally requires
    /// `merge` to be associative — exact for the integer summaries in
    /// `wsc_telemetry::summary`.
    ///
    /// # Errors
    ///
    /// Returns the [`TaskError`] naming the lowest-index failing unit if
    /// any `step` panics.
    #[allow(clippy::too_many_arguments)]
    pub fn fold_seeded<A, W, E, S, M, L>(
        &self,
        master: u64,
        span: FoldSpan,
        worker: impl Fn() -> W + Sync,
        empty: E,
        step: S,
        merge: M,
        label_of: L,
    ) -> Result<A, TaskError>
    where
        A: Send,
        E: Fn() -> A + Sync,
        S: Fn(&mut W, &mut A, usize, u64) + Sync,
        M: Fn(&mut A, A) + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let seed_of = |index: usize| wsc_prng::derive_seed(master, index as u64);
        self.fold_leaves(
            &span_leaves(span),
            worker,
            empty,
            |w, acc, index| step(w, acc, index, seed_of(index)),
            merge,
            |index| (seed_of(index), label_of(index)),
        )
    }

    /// The scheduling loop under both [`run_with`](Engine::run_with) and
    /// [`fold_seeded`](Engine::fold_seeded): each worker builds
    /// its state with `worker()`, claims `leaves` (index ranges, in
    /// canonical order) from one cursor, folds each into a fresh `empty()`
    /// with `step(state, acc, index)`, and a streaming reducer merges
    /// finished leaves in leaf order. A panicking `step` poisons the run;
    /// `describe(index)` supplies the `(seed, label)` the [`TaskError`]
    /// reports and is only invoked on that path.
    fn fold_leaves<A, W, E, S, M, D>(
        &self,
        leaves: &[(usize, usize)],
        worker_state: impl Fn() -> W + Sync,
        empty: E,
        step: S,
        merge: M,
        describe: D,
    ) -> Result<A, TaskError>
    where
        A: Send,
        E: Fn() -> A + Sync,
        S: Fn(&mut W, &mut A, usize) + Sync,
        M: Fn(&mut A, A) + Sync,
        D: Fn(usize) -> (u64, String) + Sync,
    {
        if leaves.is_empty() {
            return Ok(empty());
        }
        let workers = self.threads.min(leaves.len());
        let cursor = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let error: Mutex<Option<TaskError>> = Mutex::new(None);
        let reduced: Mutex<FoldState<A>> = Mutex::new(FoldState {
            next: 0,
            acc: None,
            pending: BTreeMap::new(),
        });

        let worker = || {
            // A `pipeline` inside this run keeps both halves on this
            // thread: the engine already has the threads it was given.
            let _mark = stream::EngineMark::enter();
            let mut state = worker_state();
            // lint:allow(atomic-ordering) Acquire pairs with the Release
            // store in record_failure: seeing the flag implies the error
            // slot write is visible.
            'claim: while !poisoned.load(Ordering::Acquire) {
                // lint:allow(atomic-ordering) Relaxed: the claim cursor
                // guards no data, only leaf uniqueness, which fetch_add
                // gives under any ordering.
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= leaves.len() {
                    break;
                }
                let (leaf_lo, leaf_hi) = leaves[k];
                let mut acc = empty();
                for index in leaf_lo..leaf_hi {
                    // lint:allow(atomic-ordering) Acquire: same pairing as
                    // the claim-loop check above.
                    if poisoned.load(Ordering::Acquire) {
                        break 'claim;
                    }
                    let fold_one =
                        catch_unwind(AssertUnwindSafe(|| step(&mut state, &mut acc, index)));
                    if let Err(payload) = fold_one {
                        let (seed, label) = describe(index);
                        record_failure(&error, &poisoned, index, seed, label, payload);
                        break 'claim;
                    }
                }
                // Submit the completed leaf and drain everything that is
                // now ready, in canonical leaf order. Lock poisoning is
                // unreachable: step panics are caught above, and `merge` /
                // `empty` are required not to panic (a panic here would
                // abort the process, never deadlock it — the lock is not
                // reacquired on the unwind path).
                let mut st = reduced.lock().expect("reduce lock");
                st.pending.insert(k, acc);
                while let Some(block) = {
                    let next = st.next;
                    st.pending.remove(&next)
                } {
                    match st.acc.as_mut() {
                        None => st.acc = Some(block),
                        Some(root) => merge(root, block),
                    }
                    st.next += 1;
                }
            }
        };

        if workers == 1 {
            // Serial reference path: claims leaves in ascending order, so
            // the reducer never buffers more than one block.
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        if let Some(err) = error.lock().expect("error lock").take() {
            return Err(err);
        }
        let st = reduced.into_inner().expect("reduce lock");
        debug_assert!(
            st.pending.is_empty() && st.next == leaves.len(),
            "every leaf reduced on the Ok path"
        );
        Ok(st.acc.unwrap_or_else(empty))
    }
}

/// Records a captured panic, keeping the lowest unit index seen so the
/// reported error is as deterministic as an aborted run can be.
fn record_failure(
    error: &Mutex<Option<TaskError>>,
    poisoned: &AtomicBool,
    index: usize,
    seed: u64,
    label: String,
    payload: Box<dyn std::any::Any + Send>,
) {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    let mut slot = error.lock().expect("error lock");
    if slot.as_ref().is_none_or(|e| index < e.index) {
        *slot = Some(TaskError {
            index,
            seed,
            label,
            message,
        });
    }
    // lint:allow(atomic-ordering) Release publishes the error-slot write
    // above to the Acquire loads in the claim loop.
    poisoned.store(true, Ordering::Release);
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tasks(n: usize) -> Vec<Task<usize>> {
        (0..n)
            .map(|i| Task {
                seed: wsc_prng::derive_seed(7, i as u64),
                label: format!("t{i}"),
                payload: i,
            })
            .collect()
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<u64> = Engine::new(4).run(&tasks(0), |t, _| t.seed).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn results_in_task_order_at_any_thread_count() {
        let ts = tasks(100);
        let reference: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = Engine::new(threads)
                .run(&ts, |t, _| t.payload * t.payload)
                .unwrap();
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn seeds_form_derivation_tree() {
        let ts = tasks(5);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(t.seed, wsc_prng::derive_seed(7, i as u64));
        }
        // Distinct children.
        let mut seeds: Vec<u64> = ts.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5);
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = Engine::new(32)
            .run(&tasks(3), |t, i| (i, t.payload))
            .unwrap();
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn panic_yields_structured_error() {
        let ts = tasks(10);
        let err = Engine::new(4)
            .run(&ts, |t, _| {
                if t.payload == 6 {
                    panic!("injected fault in unit {}", t.payload);
                }
                t.payload
            })
            .unwrap_err();
        assert_eq!(err.index, 6);
        assert_eq!(err.seed, wsc_prng::derive_seed(7, 6));
        assert_eq!(err.label, "t6");
        assert!(err.message.contains("injected fault in unit 6"));
        let shown = err.to_string();
        assert!(shown.contains("task 6"), "{shown}");
        assert!(shown.contains("t6"), "{shown}");
    }

    #[test]
    fn serial_error_is_lowest_index() {
        // With one worker the claiming order is the task order, so the
        // reported failure is exactly the first failing task.
        let ts = tasks(10);
        let err = Engine::serial()
            .run(&ts, |t, _| {
                assert!(t.payload % 3 != 2, "fault {}", t.payload);
                t.payload
            })
            .unwrap_err();
        assert_eq!(err.index, 2);
    }

    #[test]
    fn engine_is_reusable_after_error() {
        let engine = Engine::new(4);
        let ts = tasks(8);
        assert!(engine
            .run(&ts, |t, _| {
                assert!(t.payload != 0, "boom");
                t.payload
            })
            .is_err());
        let ok = engine.run(&ts, |t, _| t.payload).unwrap();
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn run_is_ordered_and_names_the_lower_fault_on_both_sides_of_the_leaf_cap() {
        // Up to MAX_FOLD_LEAVES tasks each task is its own leaf; past it a
        // leaf holds several. Results must come back in task order and a
        // failure must carry the failing task's own seed and label (not a
        // derivation from the index) either way.
        for n in [0usize, 1, 255, 256, 257, 1000] {
            let ts: Vec<Task<usize>> = (0..n)
                .map(|i| Task {
                    seed: 0xabc0_0000 + 7 * i as u64,
                    label: format!("job {i}"),
                    payload: i,
                })
                .collect();
            for threads in [1, 3, 8] {
                let engine = Engine::new(threads);
                let out = engine.run(&ts, |t, i| (i, t.payload * 3)).unwrap();
                let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3)).collect();
                assert_eq!(out, want, "n = {n}, threads = {threads}");
                if n < 2 {
                    continue;
                }
                // Two faults. The higher one holds its panic until the lower
                // task is running, so both are captured whatever the
                // schedule: the lower leaf is always claimed first.
                let (low, high) = (n / 3, n - 1);
                let low_reached = AtomicBool::new(false);
                let err = engine
                    .run(&ts, |_, i| {
                        if i == low {
                            // lint:allow(atomic-ordering) SeqCst: the flag is
                            // the test's gate and publishes nothing else.
                            low_reached.store(true, Ordering::SeqCst);
                            panic!("fault at {i}");
                        }
                        if i == high {
                            // lint:allow(atomic-ordering) SeqCst: as above.
                            while !low_reached.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            panic!("fault at {i}");
                        }
                    })
                    .unwrap_err();
                let ctx = format!("n = {n}, threads = {threads}");
                assert_eq!(err.index, low, "{ctx}");
                assert_eq!(err.seed, ts[low].seed, "{ctx}");
                assert_eq!(err.label, ts[low].label, "{ctx}");
                assert_eq!(err.message, format!("fault at {low}"), "{ctx}");
            }
        }
    }

    #[test]
    fn from_env_clamps_to_one() {
        assert!(Engine::from_env().threads() >= 1);
        assert_eq!(Engine::new(0).threads(), 1);
    }

    /// Folds indices into a Vec with a deliberately non-commutative merge
    /// (concatenation): any reordering of the reduction would show.
    fn concat_fold(engine: &Engine, span: FoldSpan) -> Vec<(usize, u64)> {
        engine
            .fold_seeded(
                9,
                span,
                || (),
                Vec::new,
                |(), acc, i, seed| acc.push((i, seed)),
                |a, mut b| a.append(&mut b),
                |i| format!("unit {i}"),
            )
            .unwrap()
    }

    #[test]
    fn fold_is_thread_count_invariant_even_for_ordered_merges() {
        let reference: Vec<(usize, u64)> = (0..500)
            .map(|i| (i, wsc_prng::derive_seed(9, i as u64)))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = concat_fold(&Engine::new(threads), FoldSpan::all(500));
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn fold_leaf_partition_is_a_function_of_total_alone() {
        for total in [1usize, 7, 255, 256, 257, 100_000] {
            let s = fold_leaf_count(total);
            assert!((1..=MAX_FOLD_LEAVES).contains(&s));
            assert_eq!(fold_leaf_bounds(total, 0).0, 0);
            assert_eq!(fold_leaf_bounds(total, s - 1).1, total);
            for leaf in 1..s {
                assert_eq!(
                    fold_leaf_bounds(total, leaf - 1).1,
                    fold_leaf_bounds(total, leaf).0,
                    "leaves tile 0..{total}"
                );
            }
        }
    }

    #[test]
    fn fold_over_shard_spans_composes_to_the_full_fold() {
        // Concatenation is associative (though not commutative), so
        // merging leaf-aligned shard spans in shard order must reproduce
        // the full fold exactly — the process-shard contract, in-process.
        let full = concat_fold(&Engine::new(4), FoldSpan::all(351));
        for shards in [1usize, 2, 3, 4] {
            let mut merged = Vec::new();
            for s in 0..shards {
                let span = process_shard_span(351, s, shards);
                let mut part = concat_fold(&Engine::new(2), span);
                merged.append(&mut part);
            }
            assert_eq!(merged, full, "shards = {shards}");
        }
    }

    #[test]
    fn fold_empty_span_returns_identity() {
        let out = concat_fold(&Engine::new(4), FoldSpan::all(0));
        assert!(out.is_empty());
        let out = concat_fold(
            &Engine::new(4),
            FoldSpan {
                total: 10,
                lo: 4,
                hi: 4,
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn a_worker_keeps_its_state_across_the_leaves_it_claims() {
        // Each step records how many steps its worker's state has seen: one
        // state per worker for the whole call, not one per leaf, so the
        // counts a serial fold records run 0..n across all 300 leaves.
        let steps_seen = |engine: &Engine| {
            engine
                .fold_seeded(
                    3,
                    FoldSpan::all(600),
                    || 0usize,
                    Vec::new,
                    |seen, acc: &mut Vec<usize>, _, _| {
                        acc.push(*seen);
                        *seen += 1;
                    },
                    |a, mut b| a.append(&mut b),
                    |i| format!("unit {i}"),
                )
                .unwrap()
        };
        assert_eq!(steps_seen(&Engine::serial()), (0..600).collect::<Vec<_>>());
        // Threaded, a state starts at 0 once per worker that claims a leaf.
        let threaded = steps_seen(&Engine::new(3));
        let fresh_states = threaded.iter().filter(|&&n| n == 0).count();
        assert!((1..=3).contains(&fresh_states), "{fresh_states} states");
    }

    #[test]
    fn fold_panic_yields_structured_error() {
        let err = Engine::new(4)
            .fold_seeded(
                7,
                FoldSpan::all(40),
                || (),
                || 0u64,
                |(), acc, i, _| {
                    assert!(i != 23, "injected fault in unit {i}");
                    *acc += 1;
                },
                |a, b| *a += b,
                |i| format!("cell {i}"),
            )
            .unwrap_err();
        assert_eq!(err.index, 23);
        assert_eq!(err.seed, wsc_prng::derive_seed(7, 23));
        assert_eq!(err.label, "cell 23");
        assert!(err.message.contains("injected fault in unit 23"));
    }

    #[test]
    fn fold_memory_is_bounded_by_leaves_not_tasks() {
        // 10⁵ units fold into one u64: the accumulator count the reducer
        // ever holds is bounded by the leaf count, not the unit count.
        let sum = Engine::new(8)
            .fold_seeded(
                1,
                FoldSpan::all(100_000),
                || (),
                || 0u64,
                |(), acc, i, _| *acc += i as u64,
                |a, b| *a += b,
                |i| format!("unit {i}"),
            )
            .unwrap();
        assert_eq!(sum, 100_000u64 * 99_999 / 2);
    }
}
