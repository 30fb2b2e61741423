//! Parallel batch execution.
//!
//! Quorum's ensemble groups are "embarrassingly parallel" (paper §IV-F):
//! every group is independent. This module provides a work-stealing batch
//! runner over any [`Backend`] plus the resident [`WorkerPool`] that
//! executes it: parked OS threads that live for the whole process, so a
//! streaming workload (one scored panel after another) pays thread spawn
//! and join once instead of per panel — and, because the workers are the
//! *same* threads every panel, every `thread_local` scratch buffer of
//! the scoring engines (e.g. the Exact engine's amplitude blocks) stays
//! warm across panels instead of being torn down with the scope.
//!
//! Work distribution is an atomic claim counter over item indices, so
//! which worker runs which item is scheduling-dependent — callers that
//! need thread-count-independent *results* make each item's output a pure
//! function of its index (fixed block boundaries), which every caller in
//! this codebase does. The pool never changes what is computed, only who
//! computes it.

use crate::circuit::Circuit;
use crate::error::QsimError;
use crate::simulator::{Backend, OutcomeDistribution};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment knob naming the resident pool's total participant count
/// (dispatching caller + parked workers). Unset or unparsable, the pool
/// sizes itself to `std::thread::available_parallelism()`.
pub const POOL_THREADS_ENV: &str = "QUORUM_POOL_THREADS";

/// `std::thread::available_parallelism()` (1 when it cannot be read),
/// probed once per process. The probe is not free — on Linux it re-reads
/// the cgroup CPU quota files, tens of microseconds per call — and every
/// scored panel needs the figure, so it is cached; the process-wide pool
/// sizes itself from the same value.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// A resident, parked worker pool for borrowed (non-`'static`) jobs.
///
/// Jobs are dispatched by reference: the caller hands the pool a
/// `&(dyn Fn() + Sync)` task, each participating worker invokes it once
/// (the task body claims items off a shared atomic counter), the caller
/// itself runs the task too, and the dispatch does not return until
/// every participating worker has left the task — so the borrow is
/// confined and the closure may capture stack data freely.
///
/// A worker that panics inside a task survives: the payload is parked,
/// the worker returns to its parked loop, and the *caller* re-raises the
/// panic after every participant has finished — the same observable
/// behavior as the `std::thread::scope` path the pool replaces.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a new job generation.
    work_cv: Condvar,
    /// The dispatching caller parks here waiting for workers to drain.
    done_cv: Condvar,
}

struct PoolState {
    /// Bumped once per dispatched job so parked workers can tell a fresh
    /// job from the one they already ran.
    generation: u64,
    /// The in-flight borrowed task, if any (one job at a time; a second
    /// concurrent dispatch reports "busy" and the caller falls back to a
    /// scoped spawn).
    job: Option<TaskPtr>,
    /// Worker entries not yet picked up. The caller zeroes this after
    /// running its own share so sleepy workers never touch a job whose
    /// borrow is about to end.
    unclaimed: usize,
    /// Workers currently inside the task body.
    running: usize,
    /// First panic payload raised inside the task, re-raised by the caller.
    panic_payload: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// Lifetime-erased pointer to the borrowed task. Confined: the dispatch
/// protocol guarantees no worker dereferences it after `run` returns.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared invocation is sound) and the
// dispatch protocol bounds every dereference inside the caller's borrow.
unsafe impl Send for TaskPtr {}

/// Erases the borrow lifetime of a task reference so it can sit in the
/// pool's job slot.
///
/// # Safety
///
/// The caller must guarantee no worker dereferences the pointer after the
/// original borrow ends — [`WorkerPool::run`] does, by cancelling
/// unclaimed entries and draining running workers before it returns.
unsafe fn erase_task_lifetime<'a>(
    task: &'a (dyn Fn() + Sync + 'a),
) -> *const (dyn Fn() + Sync + 'static) {
    // SAFETY: fat pointers to the same trait differ only in the erased
    // lifetime bound; see the function contract above.
    unsafe {
        std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), &'static (dyn Fn() + Sync + 'static)>(
            task,
        )
    }
}

thread_local! {
    /// Set while the current thread is a pool worker running a task, so a
    /// nested parallel call falls back to a scoped spawn instead of
    /// deadlocking on its own pool.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn lock_state(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    // A panicking task is caught before it can poison anything observable;
    // recover rather than wedge a resident server on a poisoned mutex.
    shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl WorkerPool {
    /// Spawns a pool with `workers` resident parked threads. A dispatch
    /// additionally runs on the calling thread, so `WorkerPool::new(3)`
    /// yields up to four participants per job.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                unclaimed: 0,
                running: 0,
                panic_payload: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("quorum-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool, created on first use. Sized by
    /// [`POOL_THREADS_ENV`] (total participants) when set, otherwise by
    /// `available_parallelism()`; one participant is the dispatching
    /// caller, so the resident worker count is one less.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let participants = std::env::var(POOL_THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(available_cores);
            WorkerPool::new(participants.saturating_sub(1))
        })
    }

    /// Resident worker count (excluding the dispatching caller).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// True when the current thread is a pool worker mid-task — callers
    /// use this to avoid dispatching nested jobs into their own pool.
    pub fn on_pool_worker() -> bool {
        IN_POOL_WORKER.with(Cell::get)
    }

    /// Runs `task` on the calling thread plus up to `extra` resident
    /// workers, returning only after every participant has left the task.
    /// Returns `false` without running anything when another job is
    /// already in flight (the caller should fall back to a scoped spawn).
    ///
    /// Panics raised inside the task (on any participant) are re-raised
    /// here after all participants finish.
    pub fn run(&self, extra: usize, task: &(dyn Fn() + Sync)) -> bool {
        let extra = extra.min(self.workers());
        if extra > 0 {
            let mut st = lock_state(&self.shared);
            if st.job.is_some() {
                return false;
            }
            // SAFETY: erases the borrow's lifetime; `unclaimed` is zeroed
            // and `running` drained below before this function returns,
            // so no worker touches the pointer after the borrow ends.
            let ptr = TaskPtr(unsafe { erase_task_lifetime(task) });
            st.generation += 1;
            st.job = Some(ptr);
            st.unclaimed = extra;
            drop(st);
            self.shared.work_cv.notify_all();
        }
        let caller_panic = panic::catch_unwind(AssertUnwindSafe(task)).err();
        let pool_panic = if extra > 0 {
            let mut st = lock_state(&self.shared);
            // Entries nobody picked up are cancelled — the work they would
            // have claimed was already drained by the faster participants.
            st.unclaimed = 0;
            while st.running > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            st.job = None;
            st.panic_payload.take()
        } else {
            None
        };
        if let Some(payload) = caller_panic.or(pool_panic) {
            panic::resume_unwind(payload);
        }
        true
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_generation = 0u64;
    loop {
        let task = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > seen_generation {
                    seen_generation = st.generation;
                    if st.unclaimed > 0 {
                        st.unclaimed -= 1;
                        st.running += 1;
                        break st.job.expect("unclaimed entries imply a job");
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // SAFETY: claimed under the lock while `unclaimed > 0`, so the
        // dispatching caller is still inside `run` and the borrow is live.
        let task_ref = unsafe { &*task.0 };
        IN_POOL_WORKER.with(|flag| flag.set(true));
        let outcome = panic::catch_unwind(AssertUnwindSafe(task_ref));
        IN_POOL_WORKER.with(|flag| flag.set(false));
        let mut st = lock_state(shared);
        st.running -= 1;
        if let Err(payload) = outcome {
            // Keep the first payload; the caller re-raises it. The worker
            // itself survives and goes back to parking.
            st.panic_payload.get_or_insert(payload);
        }
        if st.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Computes the exact outcome distribution of every circuit, fanning work
/// out over `threads` OS threads (1 = sequential). Result order matches
/// input order.
///
/// # Examples
///
/// ```
/// use qsim::circuit::Circuit;
/// use qsim::parallel::run_batch;
/// use qsim::simulator::StatevectorBackend;
///
/// let mut qc = Circuit::with_clbits(1, 1);
/// qc.h(0).measure(0, 0);
/// let circuits = vec![qc.clone(), qc];
/// let results = run_batch(&StatevectorBackend::new(), &circuits, 2);
/// assert_eq!(results.len(), 2);
/// assert!(results[0].as_ref().unwrap().marginal_one(0) > 0.49);
/// ```
pub fn run_batch<B: Backend>(
    backend: &B,
    circuits: &[Circuit],
    threads: usize,
) -> Vec<Result<OutcomeDistribution, QsimError>> {
    map_indexed(circuits.len(), threads, |idx| {
        backend.probabilities(&circuits[idx])
    })
}

/// Runs a closure over indexed work items in parallel, collecting outputs
/// in input order. Generic helper for ensemble-level parallelism where the
/// work is not a single circuit (e.g. a whole Quorum ensemble group).
pub fn map_indexed<T, F>(num_items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(num_items, threads, || (), |(), idx| f(idx))
}

/// [`map_indexed`] with per-worker scratch state: `init` runs once on each
/// worker thread (and once for the sequential path) and the resulting
/// value is threaded through every item that worker claims. This is how
/// the structured noisy engine reuses its panel buffers across its
/// fixed-width column blocks instead of reallocating per block — each
/// worker pays for one scratch allocation per call, however many blocks
/// it processes. Items are claimed off one atomic counter, so
/// distribution is work-stealing-ish; callers that need
/// thread-count-independent *results* make each item's output a pure
/// function of its index (fixed block boundaries), as that engine does.
pub fn map_indexed_with<S, T, I, F>(num_items: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(num_items.max(1));
    if threads == 1 {
        let mut scratch = init();
        return (0..num_items).map(|idx| f(&mut scratch, idx)).collect();
    }
    let mut results: Vec<Option<T>> = (0..num_items).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let cell = MapCell::new(&mut results);

    // One participant's share of the job: fresh scratch, then drain the
    // claim counter. Identical for pool workers, scoped threads, and the
    // dispatching caller — and item `idx`'s output never depends on who
    // ran it.
    let participate = || {
        let mut scratch = init();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= num_items {
                break;
            }
            cell.set(idx, f(&mut scratch, idx));
        }
    };

    // The resident pool first: persistent workers keep kernel-layer
    // `thread_local` scratch warm across panels and skip the per-call
    // spawn/join. Fall back to a scoped spawn when the pool is already
    // running a job or when this thread *is* a pool worker (a nested
    // dispatch would deadlock on the single job slot).
    let pooled =
        !WorkerPool::on_pool_worker() && WorkerPool::global().run(threads - 1, &participate);
    if !pooled {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(participate);
            }
        });
    }

    results
        .into_iter()
        .map(|r| r.expect("every index was claimed"))
        .collect()
}

/// Runs `f(index, chunk)` once for every `chunk_len`-element chunk of
/// `data` (the last one may be shorter), fanned out like [`map_indexed`]:
/// how parallel participants fill disjoint ranges of one buffer. The
/// chunks come off one shared `chunks_mut` iterator behind a mutex, held
/// only to take the next chunk, so each chunk goes to exactly one call
/// without `unsafe`. A chunk's contents depend only on its index, never
/// on which participant wrote it. Returns the error of the
/// lowest-indexed chunk that failed, whatever order the chunks ran in;
/// nothing is allocated per chunk.
///
/// # Panics
///
/// Panics if `chunk_len` is zero. A panic inside `f` reaches the caller,
/// as in [`map_indexed`].
pub fn try_for_each_chunk_mut<T, E, F>(
    data: &mut [T],
    chunk_len: usize,
    threads: usize,
    f: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut [T]) -> Result<(), E> + Sync,
{
    assert!(chunk_len > 0, "chunks must hold at least one element");
    let count = data.len().div_ceil(chunk_len);
    // Neither lock is held while `f` runs, and each critical section is
    // one step that leaves its data valid, so a poisoned lock is
    // recovered rather than propagated.
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    map_indexed(count, threads, |_| {
        // One claimed item, one chunk: the iterator yields exactly
        // `count` chunks, so no claim ever comes back empty.
        let next = chunks.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((index, chunk)) = next else { return };
        if let Err(e) = f(index, chunk) {
            let mut slot = first_error.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.as_ref().is_none_or(|&(first, _)| index < first) {
                *slot = Some((index, e));
            }
        }
    });
    match first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// The result slots of one [`map_indexed_with`] call, shared by every
/// participant. Each participant writes only the indices it claims off
/// the call's `fetch_add` counter. The cell holds the slice's mutable
/// borrow for its whole life, so nothing reads the slots until every
/// participant is done with it.
struct MapCell<'a, T> {
    slots: *mut Option<T>,
    len: usize,
    _borrow: PhantomData<&'a mut [Option<T>]>,
}

// SAFETY: `slots` and `len` are never changed after construction, and
// the only access through `slots` is `set`'s write. Sharing the cell is
// sound because of the claim-once invariant: every index comes off one
// atomic `fetch_add` counter, so each slot is written by exactly one
// participant and no two threads ever touch the same slot. `T: Send`
// because each value is produced on a participant thread and read, or
// dropped, on the caller's.
unsafe impl<T: Send> Sync for MapCell<'_, T> {}

impl<'a, T> MapCell<'a, T> {
    fn new(slots: &'a mut [Option<T>]) -> Self {
        MapCell {
            slots: slots.as_mut_ptr(),
            len: slots.len(),
            _borrow: PhantomData,
        }
    }

    /// Stores `value` in slot `idx`, which the caller claimed off the
    /// shared counter.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    fn set(&self, idx: usize, value: T) {
        assert!(
            idx < self.len,
            "slot {idx} out of range for {} items",
            self.len
        );
        // SAFETY: `idx` is in bounds (checked above) and was claimed once,
        // so this thread is the slot's only writer; the pointer comes from
        // the `&mut` slice the cell borrows for its whole life.
        unsafe { *self.slots.add(idx) = Some(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::StatevectorBackend;

    fn sample_circuit(theta: f64) -> Circuit {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.ry(theta, 0).cx(0, 1).measure(1, 0);
        qc
    }

    #[test]
    fn batch_results_preserve_order() {
        let circuits: Vec<Circuit> = (0..16).map(|i| sample_circuit(i as f64 * 0.2)).collect();
        let backend = StatevectorBackend::new();
        let seq = run_batch(&backend, &circuits, 1);
        let par = run_batch(&backend, &circuits, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!((a.marginal_one(0) - b.marginal_one(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_handles_more_threads_than_work() {
        let circuits = vec![sample_circuit(0.3)];
        let out = run_batch(&StatevectorBackend::new(), &circuits, 64);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_ok());
    }

    #[test]
    fn batch_handles_empty_input() {
        let out = run_batch(&StatevectorBackend::new(), &[], 4);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_propagates_errors_per_item() {
        let good = sample_circuit(0.5);
        let mut bad = Circuit::with_clbits(2, 1);
        // Valid circuit object but will exceed the branch cap at runtime.
        bad.h(0).h(1);
        for _ in 0..15 {
            bad.reset(0);
            bad.h(0);
        }
        bad.measure(0, 0);
        let backend = StatevectorBackend::new().with_max_branches(4);
        let out = run_batch(&backend, &[good, bad], 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let seq = map_indexed(100, 1, |i| i * i);
        let par = map_indexed(100, 8, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 49);
    }

    #[test]
    fn map_indexed_empty() {
        let out: Vec<usize> = map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_reuses_worker_threads_across_panels() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        let mut panels: Vec<HashSet<std::thread::ThreadId>> = Vec::new();
        for _ in 0..5 {
            let ids = Mutex::new(HashSet::new());
            // All four participants (caller + 3 residents) must enter the
            // task before any may leave, so every panel records the full
            // worker set.
            let barrier = Barrier::new(4);
            let ran = pool.run(3, &|| {
                ids.lock().unwrap().insert(std::thread::current().id());
                barrier.wait();
            });
            assert!(ran, "private pool must never be busy");
            let mut ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), 4);
            assert!(ids.remove(&caller));
            panels.push(ids);
        }
        for window in panels.windows(2) {
            assert_eq!(
                window[0], window[1],
                "resident workers must be the same threads panel after panel"
            );
        }
    }

    #[test]
    fn pool_survives_panicked_job() {
        let pool = WorkerPool::new(2);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|| panic!("poisoned job"));
        }));
        assert!(boom.is_err(), "the job's panic must reach the caller");
        // The workers themselves survive the poisoned job: the next panel
        // dispatches and completes normally on the same pool.
        for _ in 0..3 {
            let count = AtomicUsize::new(0);
            let barrier = std::sync::Barrier::new(3);
            let ran = pool.run(2, &|| {
                count.fetch_add(1, Ordering::Relaxed);
                barrier.wait();
            });
            assert!(ran);
            assert_eq!(count.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn map_indexed_propagates_worker_panics() {
        let boom = std::panic::catch_unwind(|| {
            map_indexed(16, 4, |i| {
                if i == 7 {
                    panic!("item 7 poisoned");
                }
                i
            })
        });
        assert!(boom.is_err());
        // And the global pool still serves the next call.
        let out = map_indexed(16, 4, |i| i * 2);
        assert_eq!(out[8], 16);
    }

    #[test]
    fn map_indexed_with_claims_every_index_exactly_once() {
        // The claim-once invariant `MapCell::set` rests on: with more
        // items than workers, every index runs exactly once and its
        // result lands in its own slot, in index order.
        const ITEMS: usize = 101;
        for threads in [2usize, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
            let out = map_indexed_with(
                ITEMS,
                threads,
                || (),
                |(), idx| {
                    runs[idx].fetch_add(1, Ordering::Relaxed);
                    vec![idx; 3]
                },
            );
            assert_eq!(out.len(), ITEMS);
            for (idx, (value, count)) in out.iter().zip(&runs).enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "threads {threads} index {idx}"
                );
                assert_eq!(value, &vec![idx; 3], "threads {threads}");
            }
        }
    }

    #[test]
    fn chunks_are_filled_exactly_once_and_report_the_lowest_error() {
        // Every chunk, the short tail included, goes to exactly one call
        // that sees its own index, at every thread count.
        for threads in [1usize, 2, 3, 8] {
            let mut data = vec![0usize; 103];
            let calls = AtomicUsize::new(0);
            let ok: Result<(), ()> =
                try_for_each_chunk_mut(&mut data, 10, threads, |index, chunk| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(chunk.len(), if index == 10 { 3 } else { 10 });
                    for slot in chunk.iter_mut() {
                        *slot += index + 1;
                    }
                    Ok(())
                });
            assert_eq!(ok, Ok(()));
            assert_eq!(calls.load(Ordering::Relaxed), 11, "threads {threads}");
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i / 10 + 1, "threads {threads} element {i}");
            }
            // Several failing chunks: the lowest index wins, however the
            // chunks were scheduled.
            let err = try_for_each_chunk_mut(&mut data, 10, threads, |index, _| {
                if index % 4 == 3 {
                    Err(index)
                } else {
                    Ok(())
                }
            });
            assert_eq!(err, Err(3), "threads {threads}");
        }
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(
            try_for_each_chunk_mut(&mut empty, 4, 4, |_, _| Err::<(), _>(())),
            Ok(())
        );
    }

    #[test]
    fn map_indexed_with_reuses_scratch_per_worker() {
        use std::sync::atomic::AtomicUsize;
        // Each worker's scratch counts the items it processed; `init` runs
        // once per worker, so the number of inits never exceeds the thread
        // count and every item is claimed exactly once.
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 4] {
            inits.store(0, Ordering::Relaxed);
            let out = map_indexed_with(
                37,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, idx| {
                    *seen += 1;
                    (idx, *seen)
                },
            );
            assert_eq!(out.len(), 37);
            let total: usize = out.iter().map(|&(idx, _)| idx).sum();
            assert_eq!(total, 37 * 36 / 2, "threads {threads}");
            assert!(inits.load(Ordering::Relaxed) <= threads.max(1));
            // Scratch persistence: the per-item counters across all
            // workers account for every item exactly once.
            let max_seen: usize = out.iter().map(|&(_, s)| s).sum();
            assert!(max_seen >= 37);
        }
    }
}
