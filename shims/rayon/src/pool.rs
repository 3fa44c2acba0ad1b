//! Persistent work-stealing executor backing every parallel pipeline in the
//! workspace.
//!
//! The seed shim spawned fresh `std::thread::scope` threads on *every*
//! parallel call — a cost paid once per kernel launch, i.e. several times
//! per BSP superstep. This module replaces that with a process-wide pool:
//!
//! * **Lazy, grow-only initialisation** — no threads exist until the first
//!   parallel call; the pool then grows to the requested width (from
//!   `GALA_THREADS` or [`std::thread::available_parallelism`]) and is
//!   reused for the rest of the process lifetime.
//! * **Chunk deques + stealing** — a job pre-splits its chunk indices over
//!   one deque per participant; each participant pops its own deque from
//!   the front and steals from the back of a victim's when empty, so an
//!   uneven kernel (power-law degrees) rebalances without a central queue
//!   bottleneck.
//! * **Panic-propagating join** — a panicking chunk poisons the job;
//!   remaining chunks are drained without running and the submitting
//!   thread re-panics once every claimed chunk has settled, exactly like
//!   `std::thread::scope`.
//!
//! The submitting thread always participates in its own job (it is never
//! blocked while work remains), and a parallel call issued from *inside* a
//! worker runs inline — nested parallelism degrades to sequential instead
//! of deadlocking.

#![allow(unsafe_code)] // two audited blocks: lifetime erasure + Vec::set_len

use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default threshold below which pipelines run sequentially: dispatching to
/// the pool costs more than the work it would parallelise. Override with
/// the `GALA_MIN_PAR_LEN` environment variable.
const DEFAULT_MIN_PAR_LEN: usize = 1024;

/// Chunks handed out per participant: >1 so stealing can rebalance uneven
/// items, small enough that per-chunk bookkeeping stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// Upper bound on pool width, a guard against absurd `GALA_THREADS` values.
const MAX_THREADS: usize = 256;

/// Parallelism level configured for the process: the `GALA_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. Read once and cached.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let from_env = std::env::var("GALA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        from_env
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .min(MAX_THREADS)
    })
}

/// Sequential-fallback threshold: `GALA_MIN_PAR_LEN` when set, else
/// [`DEFAULT_MIN_PAR_LEN`]. Read once and cached.
pub fn min_par_len() -> usize {
    static MIN: OnceLock<usize> = OnceLock::new();
    *MIN.get_or_init(|| {
        std::env::var("GALA_MIN_PAR_LEN")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_MIN_PAR_LEN)
    })
}

thread_local! {
    /// Per-thread parallelism override (see [`with_parallelism`]).
    static PAR_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on pool workers so nested parallel calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parallelism level in effect on the current thread: the innermost
/// [`with_parallelism`] override, else [`configured_threads`].
pub fn current_parallelism() -> usize {
    PAR_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
}

/// Runs `f` with the parallelism level forced to `level` on this thread:
/// chunk fan-out and the sequential-fallback decision behave as if
/// `GALA_THREADS=level`, while the persistent pool (shared by all levels)
/// grows to at least `level - 1` workers. A level of 1 runs every pipeline
/// sequentially. Used by `bench_host`'s thread sweep and by the
/// executor-equivalence tests.
pub fn with_parallelism<R>(level: usize, f: impl FnOnce() -> R) -> R {
    let level = level.clamp(1, MAX_THREADS);
    let prev = PAR_OVERRIDE.with(|c| c.replace(Some(level)));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PAR_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// One parallel call: `num_chunks` chunk indices to run through a shared
/// closure, pre-dealt across per-participant deques.
struct Job {
    /// The chunk closure, lifetime-erased (see [`execute`] for the safety
    /// argument).
    task: Task,
    /// One deque of chunk indices per participant; slot 0 belongs to the
    /// submitting thread.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Chunks not yet finished running.
    pending: AtomicUsize,
    /// Set once a participant finds every deque empty: the job needs no
    /// more workers and can leave the pool queue.
    drained: AtomicBool,
    /// Set when any chunk panicked; [`Job::wait`] re-panics.
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Lifetime-erased reference to the chunk closure of a [`Job`].
struct Task(&'static (dyn Fn(usize) + Sync));

impl Job {
    fn new(num_chunks: usize, slots: usize, task: Task) -> Self {
        // Deal chunks contiguously: slot s starts with a run of neighboring
        // chunk ids, so un-stolen work keeps the cache-friendly order.
        let per = num_chunks.div_ceil(slots);
        let mut deques = Vec::with_capacity(slots);
        for s in 0..slots {
            let lo = (s * per).min(num_chunks);
            let hi = ((s + 1) * per).min(num_chunks);
            deques.push(Mutex::new((lo..hi).collect::<VecDeque<usize>>()));
        }
        Self {
            task,
            deques,
            pending: AtomicUsize::new(num_chunks),
            drained: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Claims a chunk: own deque first (front), then steal from the back of
    /// the next non-empty victim. Returns `None` — and flags the job
    /// drained — when every deque is empty.
    fn claim(&self, slot: usize) -> Option<usize> {
        if let Some(c) = self.deques[slot]
            .lock()
            .expect("deque poisoned")
            .pop_front()
        {
            return Some(c);
        }
        let k = self.deques.len();
        for i in 1..k {
            let victim = (slot + i) % k;
            if let Some(c) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_back()
            {
                return Some(c);
            }
        }
        self.drained.store(true, Ordering::Release);
        None
    }

    /// Claims and runs chunks until none are left to claim.
    fn participate(&self, slot: usize) {
        while let Some(chunk) = self.claim(slot % self.deques.len()) {
            // After a panic the remaining chunks are drained without
            // running: their outputs would be discarded anyway.
            if !self.panicked.load(Ordering::Relaxed)
                && catch_unwind(AssertUnwindSafe(|| (self.task.0)(chunk))).is_err()
            {
                self.panicked.store(true, Ordering::Release);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("done flag poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every chunk has settled, then propagates any panic.
    fn wait(&self) {
        let mut done = self.done.lock().expect("done flag poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("done flag poisoned");
        }
        if self.panicked.load(Ordering::Acquire) {
            panic!("parallel worker panicked");
        }
    }
}

/// Pool shared state: the job queue plus the worker census.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    /// Worker threads spawned so far (grow-only).
    workers: AtomicUsize,
    /// Serialises growth so two callers don't over-spawn.
    grow: Mutex<()>,
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers: AtomicUsize::new(0),
            grow: Mutex::new(()),
        })
    })
}

/// Number of live worker threads (the submitting thread is extra).
pub fn pool_workers() -> usize {
    shared().workers.load(Ordering::Relaxed)
}

/// Grows the pool to at least `target` workers. Threads are spawned once
/// and parked on the job-queue condvar between calls.
fn ensure_workers(target: usize) {
    let sh = shared();
    if sh.workers.load(Ordering::Acquire) >= target {
        return;
    }
    let _guard = sh.grow.lock().expect("grow lock poisoned");
    while sh.workers.load(Ordering::Acquire) < target {
        let id = sh.workers.load(Ordering::Acquire);
        let arc = Arc::clone(sh);
        std::thread::Builder::new()
            .name(format!("gala-worker-{id}"))
            .spawn(move || worker_main(arc, id))
            .expect("failed to spawn pool worker");
        sh.workers.fetch_add(1, Ordering::Release);
    }
}

fn worker_main(sh: Arc<Shared>, id: usize) {
    IN_WORKER.with(|c| c.set(true));
    loop {
        let job = {
            let mut queue = sh.queue.lock().expect("job queue poisoned");
            loop {
                queue.retain(|j| !j.drained.load(Ordering::Acquire));
                if let Some(job) = queue.iter().find(|j| !j.drained.load(Ordering::Acquire)) {
                    break Arc::clone(job);
                }
                queue = sh.available.wait(queue).expect("job queue poisoned");
            }
        };
        // Slot 0 is the submitter's; workers map onto the remaining slots.
        job.participate(1 + id % (job.deques.len() - 1).max(1));
        let mut queue = sh.queue.lock().expect("job queue poisoned");
        queue.retain(|j| !j.drained.load(Ordering::Acquire));
    }
}

/// Runs `task(c)` for every chunk index `c` in `0..num_chunks` across the
/// persistent pool, blocking until all chunks have completed. The calling
/// thread participates; a panic in any chunk is re-raised here after every
/// claimed chunk has settled.
///
/// Runs inline (sequentially) when there is a single chunk, the effective
/// parallelism is 1, or the caller is itself a pool worker (nested
/// parallelism).
pub fn execute(num_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    if num_chunks == 0 {
        return;
    }
    let width = current_parallelism();
    if num_chunks == 1 || width <= 1 || IN_WORKER.with(Cell::get) {
        for c in 0..num_chunks {
            task(c);
        }
        return;
    }
    ensure_workers(width - 1);
    // SAFETY (lifetime erasure): the `'static` on the erased reference is a
    // lie confined to this function. `Job` is dropped or idle by the time
    // we return, and `wait()` only returns once `pending == 0`, i.e. after
    // the last invocation of `task` has finished on every thread — so no
    // worker dereferences the closure after this stack frame (which owns
    // the real borrow) unwinds. Workers touch `task` only between claiming
    // a chunk and decrementing `pending`.
    let task: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
    let slots = width.min(num_chunks);
    let job = Arc::new(Job::new(num_chunks, slots, Task(task)));
    {
        let mut queue = shared().queue.lock().expect("job queue poisoned");
        queue.push_back(Arc::clone(&job));
    }
    shared().available.notify_all();
    job.participate(0);
    {
        let mut queue = shared().queue.lock().expect("job queue poisoned");
        queue.retain(|j| !Arc::ptr_eq(j, &job));
    }
    job.wait();
}

/// Chunk length for `len` items at the current parallelism level: about
/// [`CHUNKS_PER_THREAD`] chunks per participant, never smaller than 32
/// items so scheduling stays a rounding error.
pub(crate) fn chunk_len_for(len: usize) -> usize {
    let width = current_parallelism().max(1);
    len.div_ceil(width * CHUNKS_PER_THREAD).max(32)
}

/// Whether a pipeline over `len` items should run sequentially.
pub(crate) fn run_sequential(len: usize) -> bool {
    len < min_par_len() || current_parallelism() <= 1 || IN_WORKER.with(Cell::get)
}

/// Clears `out` and refills it with `produce(i, acc)` for `i` in `0..len`,
/// in order. Each chunk threads a private accumulator (from `make_acc`)
/// through its `produce` calls; the accumulators come back in chunk order
/// (a single accumulator when the pipeline ran sequentially).
///
/// The sequential path is a plain loop over the caller's closures,
/// statically dispatched: for small inputs and single-thread runs the
/// per-item indirect call of [`par_produce_accum`]'s `dyn Fn` interface
/// would be the dominant cost.
pub(crate) fn produce_accum_into<R, A, M, P>(
    len: usize,
    out: &mut Vec<R>,
    make_acc: M,
    produce: P,
) -> Vec<A>
where
    R: Send,
    A: Send,
    M: Fn() -> A + Sync,
    P: Fn(usize, &mut A) -> R + Sync,
{
    if run_sequential(len) {
        out.clear();
        out.reserve(len);
        let mut acc = make_acc();
        out.extend((0..len).map(|i| produce(i, &mut acc)));
        return vec![acc];
    }
    par_produce_accum(len, out, &make_acc, &produce)
}

/// The parallel half of [`produce_accum_into`]: every result is written
/// **directly into its final slot** — no per-chunk buffers, no
/// reallocation, no output copying.
///
/// Safety: each worker takes exclusive ownership of its chunk's `&mut`
/// sub-slice through a take-once slot, and `MaybeUninit::write` needs no
/// `unsafe`; the one `unsafe` is the final `set_len`, reached only after
/// `execute` returns without panicking, i.e. after every slot in `0..len`
/// was written. On a panic `out` stays empty (written slots leak, which is
/// safe).
fn par_produce_accum<R: Send, A: Send>(
    len: usize,
    out: &mut Vec<R>,
    make_acc: &(dyn Fn() -> A + Sync),
    produce: &(dyn Fn(usize, &mut A) -> R + Sync),
) -> Vec<A> {
    /// Take-once slot handing a chunk's base index and its uninitialised
    /// output sub-slice to whichever worker claims it.
    type FillSlot<'a, R> = Mutex<Option<(usize, &'a mut [MaybeUninit<R>])>>;
    out.clear();
    out.reserve(len);
    let chunk_len = chunk_len_for(len);
    let spare = &mut out.spare_capacity_mut()[..len];
    let slots: Vec<FillSlot<'_, R>> = spare
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(c, s)| Mutex::new(Some((c * chunk_len, s))))
        .collect();
    let accs: Vec<Mutex<Option<A>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    execute(slots.len(), &|c| {
        let (base, chunk) = slots[c]
            .lock()
            .expect("fill slot poisoned")
            .take()
            .expect("fill chunk claimed twice");
        let mut acc = make_acc();
        for (j, slot) in chunk.iter_mut().enumerate() {
            slot.write(produce(base + j, &mut acc));
        }
        *accs[c].lock().expect("accumulator slot poisoned") = Some(acc);
    });
    // SAFETY: `execute` returned normally (a chunk panic propagates before
    // this line), so all `len` slots are initialised.
    unsafe { out.set_len(len) };
    accs.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("accumulator slot poisoned")
                .expect("chunk finished without storing its accumulator")
        })
        .collect()
}

/// Collects `produce(i)` for `0..len` into a fresh `Vec` via
/// [`produce_accum_into`].
pub(crate) fn par_collect_indexed<R: Send>(
    len: usize,
    produce: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::new();
    produce_accum_into(len, &mut out, || (), |i, _| produce(i));
    out
}

/// Runs `f(i)` for every `i` in `0..len` across the pool (sequentially
/// below the parallel threshold).
pub(crate) fn par_for_each_index(len: usize, f: &(dyn Fn(usize) + Sync)) {
    if run_sequential(len) {
        for i in 0..len {
            f(i);
        }
        return;
    }
    let chunk_len = chunk_len_for(len);
    execute(len.div_ceil(chunk_len), &|c| {
        let lo = c * chunk_len;
        let hi = ((c + 1) * chunk_len).min(len);
        for i in lo..hi {
            f(i);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_chunk_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        with_parallelism(4, || {
            execute(hits.len(), &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_threads_persist_across_calls() {
        with_parallelism(3, || execute(8, &|_| {}));
        let after_first = pool_workers();
        assert!(after_first >= 2, "pool never grew: {after_first}");
        for _ in 0..50 {
            with_parallelism(3, || execute(8, &|_| {}));
        }
        assert_eq!(pool_workers(), after_first, "pool grew per call");
    }

    #[test]
    fn pool_grows_to_widest_request() {
        with_parallelism(2, || execute(4, &|_| {}));
        with_parallelism(6, || execute(24, &|_| {}));
        assert!(pool_workers() >= 5);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            with_parallelism(4, || {
                execute(64, &|c| {
                    if c == 13 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(result.is_err(), "worker panic was swallowed");
        // The pool is still usable afterwards.
        let total = AtomicU64::new(0);
        with_parallelism(4, || {
            execute(32, &|c| {
                total.fetch_add(c as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..32).sum::<usize>() as u64);
    }

    #[test]
    fn nested_execute_runs_inline() {
        let total = AtomicU64::new(0);
        with_parallelism(4, || {
            execute(8, &|_| {
                // Nested call: must not deadlock.
                execute(8, &|c| {
                    total.fetch_add(c as u64, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            8 * (0..8).sum::<usize>() as u64
        );
    }

    #[test]
    fn with_parallelism_restores_on_unwind() {
        let before = current_parallelism();
        let _ = std::panic::catch_unwind(|| {
            with_parallelism(7, || panic!("x"));
        });
        assert_eq!(current_parallelism(), before);
    }

    #[test]
    fn par_collect_indexed_matches_sequential() {
        let out = with_parallelism(8, || par_collect_indexed(10_000, |i| i * 3));
        assert_eq!(out.len(), 10_000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn par_collect_indexed_empty_and_tiny() {
        assert_eq!(par_collect_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_collect_indexed(1, |i| i + 41), vec![41]);
    }
}
