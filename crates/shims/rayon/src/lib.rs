//! Minimal vendored stand-in for the `rayon` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of the rayon API it actually uses:
//! `into_par_iter()` over ranges and vectors, `par_chunks` on slices,
//! `for_each` / `for_each_init` / `map` / `fold` / `reduce` / `zip` /
//! `collect`, plus `current_num_threads` / `current_thread_index`.
//!
//! # Execution model
//!
//! Each parallel call splits its items into at most
//! `current_num_threads()` contiguous chunks. Chunk boundaries are a pure
//! function of item count and thread count, each chunk iterates in index
//! order, and `fold` partials come back in chunk order, so fold/reduce
//! results are deterministic for a fixed thread count no matter which
//! thread runs which chunk. While a thread runs chunk `w`,
//! `current_thread_index()` is `Some(w)`, so per-worker storage indexed
//! by it (lkk-kokkos' duplicated `ScatterView`) is keyed by chunk.
//!
//! Chunks run on persistent workers. The first parallel call a thread
//! makes spawns `current_num_threads() - 1` workers owned by that thread;
//! they are joined when the thread exits, so none outlives it. A call
//! publishes its chunks by bumping the pool's epoch, runs chunk 0 on the
//! calling thread, then claims any chunk no worker has taken yet, and
//! returns once every chunk has finished. A panic in a chunk is re-raised
//! on the caller only then, because the chunks borrow the caller's stack.
//! Idle workers spin for a bounded number of iterations, then park on a
//! condvar until the next epoch.
//!
//! The workers form one machine-wide budget: a call first borrows
//! `chunks - 1` of the `current_num_threads() - 1` lendable workers. A
//! call that finds them lent (another thread is mid-call) or that is
//! nested inside a chunk runs its chunks inline instead, in chunk order
//! and with the same `current_thread_index()` values: the same bits, no
//! deadlock and no oversubscription. Setting `LKK_SEQUENTIAL=1` at
//! process start collapses the pool to the caller alone for bit-stable
//! runs (the perf-smoke harness additionally forces sequential dispatch
//! inside `lkk-kokkos`).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::hint::spin_loop;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParRange, ParallelSlice};
}

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Workers currently lent to a parallel call, summed over every thread's
/// pool. A budget counter that publishes no data, hence `Relaxed`.
static LENT: AtomicUsize = AtomicUsize::new(0);

/// Iterations an idle worker (or a caller waiting for the last chunks)
/// spins before it parks. Counted rather than timed: about 0.4 ms at the
/// ~25 ns `pause` of recent Intel Xeons, less where `pause` is shorter.
/// Miri runs a short spin, which also sends it down the parking paths.
const SPIN: u32 = if cfg!(miri) { 16 } else { 1 << 14 };

thread_local! {
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    static POOL: Pool = Pool::spawn(current_num_threads() - 1);
}

/// Number of worker threads parallel calls may use.
pub fn current_num_threads() -> usize {
    let cached = NUM_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = if std::env::var_os("LKK_SEQUENTIAL").is_some_and(|v| v == "1") {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    NUM_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Index of the chunk the current thread is running inside a parallel
/// call, if any.
pub fn current_thread_index() -> Option<usize> {
    THREAD_INDEX.with(|t| t.get())
}

/// Makes `current_thread_index()` read `Some(w)` until dropped, then
/// restores the previous value (also when the chunk unwinds).
struct ChunkIndex(Option<usize>);

impl ChunkIndex {
    fn enter(w: usize) -> ChunkIndex {
        ChunkIndex(THREAD_INDEX.with(|t| t.replace(Some(w))))
    }
}

impl Drop for ChunkIndex {
    fn drop(&mut self) {
        THREAD_INDEX.with(|t| t.set(self.0));
    }
}

/// The body of a parallel call: `job(w)` runs chunk `w`.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// Run `job(w)` for every `w` in `0..nchunks`, each with
/// `current_thread_index() == Some(w)`, and return once all have
/// finished. `nchunks` is at most `current_num_threads()`.
fn dispatch(nchunks: usize, job: &Job<'_>) {
    let helpers = nchunks.saturating_sub(1);
    if helpers == 0 || current_thread_index().is_some() || !borrow_workers(helpers) {
        return run_inline(nchunks, job);
    }
    let _lease = Lease(helpers);
    // `try_with` fails only once this thread's pool has been destroyed,
    // i.e. for a call from another thread-local's destructor.
    if POOL.try_with(|pool| pool.run(nchunks, job)).is_err() {
        run_inline(nchunks, job);
    }
}

fn run_inline(nchunks: usize, job: &Job<'_>) {
    for w in 0..nchunks {
        let _index = ChunkIndex::enter(w);
        job(w);
    }
}

/// Borrow `k` workers from the machine-wide budget, if that many are free.
fn borrow_workers(k: usize) -> bool {
    let cap = current_num_threads() - 1;
    LENT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |lent| {
        (lent + k <= cap).then_some(lent + k)
    })
    .is_ok()
}

/// Returns borrowed workers to the budget when the call ends.
struct Lease(usize);

impl Drop for Lease {
    fn drop(&mut self) {
        LENT.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// The guarded data is `()`, so a poisoned lock is still consistent.
fn lock(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pack a claim ticket: epoch in bits 32..64, chunk count in bits 16..32,
/// next unclaimed chunk in bits 0..16. One word, so a claim (one CAS)
/// validates all three at once. Claims stop at the chunk count, so
/// `next` never carries into it.
fn ticket(epoch: u32, nchunks: usize, next: usize) -> u64 {
    assert!(
        nchunks < 1 << 16 && next <= nchunks,
        "chunk count fits the ticket"
    );
    (u64::from(epoch) << 32) | ((nchunks as u64) << 16) | next as u64
}

fn ticket_epoch(t: u64) -> u32 {
    (t >> 32) as u32
}

/// A thread's persistent workers (see the module docs).
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Epoch of the latest call; only the owning thread bumps it.
    epoch: Cell<u32>,
}

/// State the owning thread shares with its workers.
struct Shared {
    /// The current call's claim ticket (see [`ticket`]).
    ticket: AtomicU64,
    /// The current call's job, lifetime-erased; `None` between calls.
    job: UnsafeCell<Option<*const Job<'static>>>,
    /// Chunks of the current call not yet finished.
    pending: AtomicUsize,
    /// The lowest-numbered chunk that panicked in the current call, with
    /// its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Guards parking only (`wake`, `done`); protects no data.
    lock: Mutex<()>,
    /// Parked workers wait here for a new epoch or shutdown.
    wake: Condvar,
    /// A parked caller waits here for `pending == 0`.
    done: Condvar,
    /// Workers parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    /// The caller is parked (or about to park) on `done`.
    caller_parked: AtomicBool,
    shutdown: AtomicBool,
}

// SAFETY: every field but `job` is `Sync`. `job` is written only by the
// owning thread inside `Pool::run`: before the epoch is published (the
// `SeqCst` store of `ticket` releases it to every claimant, whose CAS
// acquires it) and after `pending` has been seen at 0 (acquiring every
// chunk's decrement). It is read only in `run_chunk`, by a thread that
// holds a claimed, unfinished chunk, i.e. between those two writes. The
// pointee is `Sync`, so sharing it across threads is sound.
unsafe impl Sync for Shared {}
// SAFETY: as above; the raw pointer in `job` is the only non-`Send` field
// and is only dereferenced under that protocol.
unsafe impl Send for Shared {}

impl Pool {
    /// Spawn up to `nworkers` workers. A worker that fails to spawn only
    /// costs parallelism: the caller claims whatever no worker takes.
    fn spawn(nworkers: usize) -> Pool {
        let shared = Arc::new(Shared {
            ticket: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            done: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            caller_parked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..=nworkers)
            .filter_map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{k}"))
                    .spawn(move || shared.work())
                    .ok()
            })
            .collect();
        Pool {
            shared,
            workers,
            epoch: Cell::new(0),
        }
    }

    fn run(&self, nchunks: usize, job: &Job<'_>) {
        let s = &*self.shared;
        let epoch = self.epoch.get().wrapping_add(1);
        self.epoch.set(epoch);
        // SAFETY: erases the borrow's lifetime only. The pointer is
        // dereferenced by chunks of this call alone, and this function
        // returns (or unwinds) only after `wait_done` has seen all of them
        // finish; it clears the slot before returning.
        let erased = unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(job) };
        // SAFETY: the previous call saw `pending == 0`, so no thread holds
        // a claimed chunk, and none reads `job` before claiming a chunk of
        // the epoch published below.
        unsafe { *s.job.get() = Some(erased) };
        s.pending.store(nchunks, Ordering::Relaxed);
        // Chunk 0 is the caller's; workers claim from chunk 1.
        s.ticket.store(ticket(epoch, nchunks, 1), Ordering::SeqCst);
        if s.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = lock(&s.lock);
            s.wake.notify_all();
        }
        s.run_chunk(0);
        s.claim_chunks(epoch);
        s.wait_done();
        // SAFETY: every chunk has finished; see above.
        unsafe { *s.job.get() = None };
        let panicked = s
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((_, payload)) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = lock(&self.shared.lock);
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A worker catches every chunk panic, so its loop cannot
            // panic; there is no error to report.
            let _ = worker.join();
        }
    }
}

impl Shared {
    /// A worker's loop: wait for each new epoch and claim its chunks.
    fn work(&self) {
        let mut seen = 0;
        while let Some(epoch) = self.next_epoch(seen) {
            seen = epoch;
            self.claim_chunks(epoch);
        }
    }

    /// Wait, spinning then parked, for an epoch other than `seen`; `None`
    /// once the pool shuts down.
    fn next_epoch(&self, seen: u32) -> Option<u32> {
        for _ in 0..SPIN {
            let epoch = ticket_epoch(self.ticket.load(Ordering::Acquire));
            if epoch != seen {
                return Some(epoch);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            spin_loop();
        }
        let mut g = lock(&self.lock);
        // `sleepers` and `ticket` are a Dekker pair with `Pool::run`
        // (all `SeqCst`): either the caller sees this sleeper and
        // notifies under the lock, or this load sees its new epoch.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let epoch = loop {
            let epoch = ticket_epoch(self.ticket.load(Ordering::SeqCst));
            if epoch != seen || self.shutdown.load(Ordering::SeqCst) {
                break epoch;
            }
            g = self.wake.wait(g).unwrap_or_else(PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        (!self.shutdown.load(Ordering::SeqCst)).then_some(epoch)
    }

    /// Claim and run chunks of `epoch` until none is left unclaimed.
    fn claim_chunks(&self, epoch: u32) {
        let mut t = self.ticket.load(Ordering::Acquire);
        loop {
            let nchunks = (t >> 16) as u16 as usize;
            let next = t as u16 as usize;
            if ticket_epoch(t) != epoch || next >= nchunks {
                return;
            }
            match self
                .ticket
                .compare_exchange_weak(t, t + 1, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => {
                    self.run_chunk(next);
                    t = self.ticket.load(Ordering::Acquire);
                }
                Err(now) => t = now,
            }
        }
    }

    /// Run claimed chunk `w` of the current call and count it finished.
    fn run_chunk(&self, w: usize) {
        // SAFETY: this thread holds chunk `w` of the current call, claimed
        // and not yet finished, so the owning thread is inside
        // `Pool::run`, which keeps `job` set and its pointee alive until
        // this chunk's decrement of `pending` below.
        let job = unsafe { &*(*self.job.get()).expect("a published call has a job") };
        let result = {
            let _index = ChunkIndex::enter(w);
            panic::catch_unwind(AssertUnwindSafe(|| job(w)))
        };
        if let Err(payload) = result {
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            if first.as_ref().is_none_or(|(v, _)| w < *v) {
                *first = Some((w, payload));
            }
        }
        // `pending` and `caller_parked` are a Dekker pair with
        // `wait_done` (all `SeqCst`).
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.caller_parked.load(Ordering::SeqCst)
        {
            let _g = lock(&self.lock);
            self.done.notify_all();
        }
    }

    /// Wait, spinning then parked, until every chunk of the current call
    /// has finished.
    fn wait_done(&self) {
        for _ in 0..SPIN {
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            spin_loop();
        }
        let mut g = lock(&self.lock);
        self.caller_parked.store(true, Ordering::SeqCst);
        while self.pending.load(Ordering::SeqCst) != 0 {
            g = self.done.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.caller_parked.store(false, Ordering::SeqCst);
    }
}

/// How `0..n` splits into contiguous chunks: at most
/// `current_num_threads()` of them, each `ceil(n / chunks)` items long
/// except the last. Returns the chunk count and chunk `w`'s range.
fn chunks(n: usize) -> (usize, impl Fn(usize) -> Range<usize>) {
    let len = n.div_ceil(current_num_threads().min(n).max(1)).max(1);
    (n.div_ceil(len), move |w| w * len..((w + 1) * len).min(n))
}

/// Run `run(range)` for each chunk of `0..n`.
fn for_ranges(n: usize, run: impl Fn(Range<usize>) + Sync) {
    let (count, range) = chunks(n);
    dispatch(count, &|w| run(range(w)));
}

/// The chunks of `0..n`, in order.
fn ranges(n: usize) -> Vec<Range<usize>> {
    let (count, range) = chunks(n);
    (0..count).map(range).collect()
}

/// `items` cut into the same chunks, in order.
fn split<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let mut rest = items.into_iter();
    ranges(rest.len())
        .into_iter()
        .map(|r| rest.by_ref().take(r.len()).collect())
        .collect()
}

/// Run `run(parts[w])` as chunk `w`; the results come back in chunk order.
fn map_parts<S: Send, R: Send>(parts: Vec<S>, run: impl Fn(S) -> R + Sync) -> Vec<R> {
    const POISON: &str = "a chunk slot is never locked across a panic";
    let parts: Vec<Mutex<Option<S>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let out: Vec<Mutex<Option<R>>> = parts.iter().map(|_| Mutex::new(None)).collect();
    dispatch(parts.len(), &|w| {
        let part = parts[w].lock().expect(POISON).take();
        let r = run(part.expect("each chunk runs once"));
        *out[w].lock().expect(POISON) = Some(r);
    });
    out.into_iter()
        .map(|r| r.into_inner().expect(POISON).expect("every chunk ran"))
        .collect()
}

/// A materialized parallel iterator: items are distributed over worker
/// threads by contiguous chunks.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

/// A lazy parallel iterator over a `usize` range (no index
/// materialization).
pub struct ParRange {
    range: Range<usize>,
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

/// `par_chunks` on slices.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

impl ParRange {
    pub fn for_each<F: Fn(usize) + Sync + Send>(self, f: F) {
        let base = self.range.start;
        for_ranges(self.range.len(), |r| {
            for i in r {
                f(base + i);
            }
        });
    }

    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, usize) + Sync + Send,
    {
        let base = self.range.start;
        for_ranges(self.range.len(), |r| {
            let mut state = init();
            for i in r {
                f(&mut state, base + i);
            }
        });
    }

    /// Per-chunk fold; the partial accumulators form a new (small)
    /// parallel iterator, exactly like rayon's `fold`.
    pub fn fold<Acc, ID, F>(self, identity: ID, fold: F) -> ParIter<Acc>
    where
        Acc: Send,
        ID: Fn() -> Acc + Sync + Send,
        F: Fn(Acc, usize) -> Acc + Sync + Send,
    {
        let base = self.range.start;
        ParIter {
            items: map_parts(ranges(self.range.len()), |r| {
                r.fold(identity(), |acc, i| fold(acc, base + i))
            }),
        }
    }

    pub fn map<U: Send, F: Fn(usize) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let base = self.range.start;
        let parts = map_parts(ranges(self.range.len()), |r| {
            r.map(|i| f(base + i)).collect::<Vec<U>>()
        });
        ParIter {
            items: parts.into_iter().flatten().collect(),
        }
    }

    pub fn zip<I>(self, other: I) -> ParIter<(usize, <I as IntoParallelIterator>::Item)>
    where
        I: IntoParallelIterator,
        <I as IntoParallelIterator>::Iter: IntoItems<Item = <I as IntoParallelIterator>::Item>,
    {
        let rhs = other.into_par_iter().into_items();
        ParIter {
            items: self.range.zip(rhs).collect(),
        }
    }

    pub fn collect<B: FromIterator<usize>>(self) -> B {
        self.range.collect()
    }
}

impl<T: Send> ParIter<T> {
    pub fn for_each<F: Fn(T) + Sync + Send>(self, f: F) {
        map_parts(split(self.items), |part| part.into_iter().for_each(&f));
    }

    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, T) + Sync + Send,
    {
        map_parts(split(self.items), |part| {
            let mut state = init();
            for x in part {
                f(&mut state, x);
            }
        });
    }

    pub fn map<U: Send, F: Fn(T) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let parts = map_parts(split(self.items), |part| {
            part.into_iter().map(&f).collect::<Vec<U>>()
        });
        ParIter {
            items: parts.into_iter().flatten().collect(),
        }
    }

    pub fn fold<Acc, ID, F>(self, identity: ID, fold: F) -> ParIter<Acc>
    where
        Acc: Send,
        ID: Fn() -> Acc + Sync + Send,
        F: Fn(Acc, T) -> Acc + Sync + Send,
    {
        ParIter {
            items: map_parts(split(self.items), |part| {
                part.into_iter().fold(identity(), &fold)
            }),
        }
    }

    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    pub fn zip<I>(self, other: I) -> ParIter<(T, <I as IntoParallelIterator>::Item)>
    where
        I: IntoParallelIterator,
        <I as IntoParallelIterator>::Iter: IntoItems<Item = <I as IntoParallelIterator>::Item>,
    {
        let rhs = other.into_par_iter().into_items();
        ParIter {
            items: self.items.into_iter().zip(rhs).collect(),
        }
    }

    pub fn collect<B: FromIterator<T>>(self) -> B {
        self.items.into_iter().collect()
    }
}

/// Internal: extract the materialized items of an iterator type (used
/// by `zip`).
pub trait IntoItems {
    type Item: Send;
    fn into_items(self) -> Vec<Self::Item>;
}

impl<T: Send> IntoItems for ParIter<T> {
    type Item = T;
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl IntoItems for ParRange {
    type Item = usize;
    fn into_items(self) -> Vec<usize> {
        self.range.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::{current_num_threads, current_thread_index};
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier, Mutex, MutexGuard, PoisonError};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Every test holds this lock: the ones that assert how chunks are
    /// placed on threads need the worker budget to themselves.
    static PLACEMENT: Mutex<()> = Mutex::new(());

    fn placement() -> MutexGuard<'static, ()> {
        // Miri reports one CPU, which would run every call inline; give
        // the pool two workers there so the Miri lane exercises it.
        if cfg!(miri) {
            crate::NUM_THREADS.store(3, Ordering::Relaxed);
        }
        PLACEMENT.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Item counts around the chunking edges. Miri drops the largest.
    fn sizes() -> Vec<usize> {
        let t = current_num_threads();
        let mut n = vec![1, t, t + 1, 2047, 2048, 32768];
        if cfg!(miri) {
            n.pop();
        }
        n
    }

    /// Terms of mixed sign and magnitude: their f64 sum depends on order.
    fn term(i: usize) -> f64 {
        (i as f64 * 0.7).sin() * 10f64.powi((i % 17) as i32 - 8)
    }

    /// The chunked sum written out sequentially: contiguous chunks of
    /// `ceil(n / min(threads, n))` items, partials added in chunk order.
    fn chunked_oracle(n: usize) -> f64 {
        let chunk = n.div_ceil(current_num_threads().min(n).max(1)).max(1);
        (0..n)
            .step_by(chunk)
            .map(|lo| (lo..(lo + chunk).min(n)).fold(0.0, |acc, i| acc + term(i)))
            .fold(0.0, |a, b| a + b)
    }

    fn range_sum(n: usize) -> f64 {
        (0..n)
            .into_par_iter()
            .fold(|| 0.0, |acc, i| acc + term(i))
            .reduce(|| 0.0, |a, b| a + b)
    }

    fn vec_sum(n: usize) -> f64 {
        (0..n)
            .map(term)
            .collect::<Vec<f64>>()
            .into_par_iter()
            .fold(|| 0.0, |acc, x| acc + x)
            .reduce(|| 0.0, |a, b| a + b)
    }

    /// Run `f` inside chunk 0 of an outer parallel call, which makes every
    /// parallel call in `f` run inline on this thread.
    fn nested<R: Send>(f: impl Fn() -> R + Sync + Send) -> R {
        (0..1usize)
            .into_par_iter()
            .map(|_| f())
            .collect::<Vec<R>>()
            .pop()
            .expect("one item")
    }

    #[test]
    fn pooled_and_inline_reductions_are_bitwise_equal() {
        let _serial = placement();
        for n in sizes() {
            let want = chunked_oracle(n).to_bits();
            assert_eq!(range_sum(n).to_bits(), want, "pooled range, n = {n}");
            assert_eq!(vec_sum(n).to_bits(), want, "pooled vec, n = {n}");
            assert_eq!(
                nested(|| range_sum(n)).to_bits(),
                want,
                "inline range, n = {n}"
            );
            assert_eq!(nested(|| vec_sum(n)).to_bits(), want, "inline vec, n = {n}");
        }
    }

    #[test]
    fn nested_calls_run_inline_on_the_calling_thread() {
        let _serial = placement();
        let ids = nested(|| {
            let ids = Mutex::new(Vec::new());
            (0..2048usize).into_par_iter().for_each(|_| {
                let id = std::thread::current().id();
                let mut ids = ids.lock().unwrap();
                if !ids.contains(&id) {
                    ids.push(id);
                }
            });
            (ids.into_inner().unwrap(), std::thread::current().id())
        });
        assert_eq!(ids.0, vec![ids.1]);
    }

    #[test]
    fn chunk_w_runs_with_thread_index_w() {
        let _serial = placement();
        for n in sizes() {
            let chunk = n.div_ceil(current_num_threads().min(n));
            let check = || {
                let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
                (0..n).into_par_iter().for_each(|i| {
                    seen[i].store(current_thread_index().unwrap(), Ordering::Relaxed);
                });
                assert!(
                    seen.iter()
                        .enumerate()
                        .all(|(i, w)| w.load(Ordering::Relaxed) == i / chunk),
                    "n = {n}"
                );
            };
            check();
            nested(check);
            assert_eq!(current_thread_index(), None);
        }
    }

    #[test]
    fn dispatch_nested_in_every_chunk_completes_and_matches() {
        let _serial = placement();
        let want = chunked_oracle(2048).to_bits();
        let t = current_num_threads();
        let inner: Vec<u64> = (0..t)
            .into_par_iter()
            .map(|_| range_sum(2048).to_bits())
            .collect();
        assert_eq!(inner, vec![want; t]);
    }

    #[test]
    fn chunk_panic_is_raised_after_siblings_finish_and_pool_recovers() {
        let _serial = placement();
        let t = current_num_threads();
        if t < 2 {
            return; // One thread: every call is inline, no sibling runs.
        }
        // Chunk `panicking` fails once chunk `held` has started, and
        // `held` then waits on a barrier that a helper opens only after
        // the dispatch has returned, or after a timeout. With the caller
        // still inside chunk 0 when `held` starts, (0, 1) puts `held` on
        // a worker: a pool that re-raised before every chunk had
        // finished would return while `held` still waits.
        for (panicking, held) in [(1, 0), (0, 1)] {
            let gate = Barrier::new(2);
            let held_done = AtomicBool::new(false);
            let (started, wait_for_start) = mpsc::channel::<()>();
            let (started, wait_for_start) = (Mutex::new(started), Mutex::new(wait_for_start));
            let (returned, wait_for_return) = mpsc::channel::<()>();
            let (result, done_at_return) = std::thread::scope(|s| {
                let gate = &gate;
                s.spawn(move || {
                    let _ = wait_for_return.recv_timeout(Duration::from_millis(200));
                    gate.wait();
                });
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    (0..t).into_par_iter().for_each(|i| {
                        if i == panicking {
                            let wait = wait_for_start.lock().unwrap();
                            let _ = wait.recv_timeout(Duration::from_secs(2));
                            panic!("chunk {i} fails");
                        }
                        if i == held {
                            started.lock().unwrap().send(()).unwrap();
                            gate.wait();
                            held_done.store(true, Ordering::SeqCst);
                        }
                    })
                }));
                let done_at_return = held_done.load(Ordering::SeqCst);
                let _ = returned.send(()); // The helper may have timed out.
                (result, done_at_return)
            });
            let payload = result.expect_err("the chunk panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("chunk {panicking} fails").as_str())
            );
            assert!(
                done_at_return,
                "panic {panicking}: raised before chunk {held} finished"
            );
            assert_eq!(range_sum(2048).to_bits(), chunked_oracle(2048).to_bits());
        }
    }

    thread_local! {
        static CALLER: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn concurrent_callers_share_one_worker_budget() {
        let _serial = placement();
        let t = current_num_threads();
        let callers = t + 2;
        let start = Barrier::new(callers);
        let (lent_now, lent_max) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (rounds, n) = if cfg!(miri) { (2, 2048) } else { (20, 32768) };
        let want = chunked_oracle(n).to_bits();
        let sums: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|_| {
                    s.spawn(|| {
                        CALLER.with(|c| c.set(true));
                        start.wait();
                        (0..rounds)
                            .map(|_| {
                                (0..n)
                                    .into_par_iter()
                                    .fold(
                                        || 0.0,
                                        |acc, i| {
                                            if i % 1024 == 0 && !CALLER.with(|c| c.get()) {
                                                let now =
                                                    lent_now.fetch_add(1, Ordering::SeqCst) + 1;
                                                lent_max.fetch_max(now, Ordering::SeqCst);
                                                std::thread::yield_now();
                                                lent_now.fetch_sub(1, Ordering::SeqCst);
                                            }
                                            acc + term(i)
                                        },
                                    )
                                    .reduce(|| 0.0, |a, b| a + b)
                                    .to_bits()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(sums.iter().flatten().all(|&s| s == want));
        // Each caller runs chunks itself; beyond the callers, no more
        // than `t - 1` lent workers ever run chunks at once, so the
        // callers never fork `t` threads each.
        assert!(
            lent_max.load(Ordering::SeqCst) < t,
            "{lent_max:?} lent workers at once"
        );
    }

    /// Median seconds of one call of `f`, over `samples` calls. With
    /// `idle`, each call follows a pause long enough for the workers to
    /// park, so it pays their wake-up.
    #[allow(clippy::disallowed_methods)] // Wall-clock probe; prints only.
    fn median_secs(samples: usize, idle: bool, mut f: impl FnMut()) -> f64 {
        let mut t: Vec<f64> = (0..samples)
            .map(|_| {
                if idle {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[samples / 2]
    }

    /// Timing probe, not a gate: where a threaded call starts to beat the
    /// serial loop, for an integrate-sized `for_each` body (a velocity-
    /// Verlet half-kick and drift of one atom) and a kinetic-energy-sized
    /// reduction. lkk-kokkos' `PAR_THRESHOLD` is set from this table
    /// (docs/performance.md, "Host dispatch: persistent workers"). Run:
    /// `cargo test --release -p rayon -- --ignored --nocapture crossover`.
    #[test]
    #[ignore]
    fn crossover_probe() {
        use std::hint::black_box;
        use std::sync::atomic::AtomicU64;
        let _serial = placement();
        let cell = |x: f64| AtomicU64::new(x.to_bits());
        let get = |a: &AtomicU64| f64::from_bits(a.load(Ordering::Relaxed));
        let n_max = 32768;
        let x: Vec<AtomicU64> = (0..3 * n_max).map(|i| cell(i as f64)).collect();
        let v: Vec<AtomicU64> = (0..3 * n_max).map(|i| cell(term(i))).collect();
        let f: Vec<f64> = (0..3 * n_max).map(|i| term(i + 1)).collect();
        let kick = |i: usize| {
            for k in 3 * i..3 * i + 3 {
                let vk = get(&v[k]) + 0.0025 * f[k];
                v[k].store(vk.to_bits(), Ordering::Relaxed);
                x[k].store((get(&x[k]) + 0.005 * vk).to_bits(), Ordering::Relaxed);
            }
        };
        let ke = |i: usize| {
            (3 * i..3 * i + 3)
                .map(|k| get(&v[k]) * get(&v[k]))
                .sum::<f64>()
        };
        println!("threads = {}; median µs per call", current_num_threads());
        println!("pool: back-to-back calls; parked: each call after a 2 ms pause");
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "n", "for 1t", "pool", "parked", "red 1t", "pool", "parked"
        );
        for n in [128, 256, 512, 1024, 2048, 4096, 8192, 32768] {
            let for_pool = |idle| {
                median_secs(if idle { 301 } else { 2001 }, idle, || {
                    (0..n).into_par_iter().for_each(kick)
                })
            };
            let red_pool = |idle| {
                median_secs(if idle { 301 } else { 2001 }, idle, || {
                    black_box(
                        (0..n)
                            .into_par_iter()
                            .fold(|| 0.0, |acc, i| acc + ke(i))
                            .reduce(|| 0.0, |a, b| a + b),
                    );
                })
            };
            let row = [
                median_secs(2001, false, || (0..n).for_each(kick)),
                for_pool(false),
                for_pool(true),
                median_secs(2001, false, || {
                    black_box((0..n).fold(0.0, |acc, i| acc + ke(i)));
                }),
                red_pool(false),
                red_pool(true),
            ];
            print!("{n:>6}");
            for secs in row {
                print!(" {:>8.2}", 1e6 * secs);
            }
            println!();
        }
    }

    #[test]
    fn a_thousand_calls_reuse_the_same_threads() {
        let _serial = placement();
        let ids: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let n = if cfg!(miri) { 64 } else { 4096 };
        for _ in 0..1000 {
            (0..n).into_par_iter().for_each(|i| {
                if i % 16 == 0 {
                    let id = std::thread::current().id();
                    let mut ids = ids.lock().unwrap();
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            });
        }
        let ids = ids.into_inner().unwrap();
        assert!(ids.len() <= current_num_threads(), "{} threads", ids.len());
    }

    #[test]
    fn range_for_each_visits_all() {
        let _serial = placement();
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        (0..hits.len()).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn fold_reduce_deterministic_sum() {
        let _serial = placement();
        let a = (0..100_000usize)
            .into_par_iter()
            .fold(|| 0u64, |acc, i| acc + i as u64)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(a, 100_000 * 99_999 / 2);
    }

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        let _serial = placement();
        let data: Vec<usize> = (0..1000).collect();
        let sums: Vec<usize> = data.par_chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 10);
        assert_eq!(sums[0], (0..100).sum::<usize>());
        assert_eq!(sums[9], (900..1000).sum::<usize>());
    }

    #[test]
    fn vec_map_preserves_order() {
        let _serial = placement();
        let data: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = data.into_par_iter().map(|x| 2 * x).collect();
        assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn zip_pairs_in_order() {
        let _serial = placement();
        let a: Vec<usize> = (0..50).collect();
        let b: Vec<usize> = (100..150).collect();
        let pairs: Vec<(usize, usize)> = a.into_par_iter().zip(b).collect();
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|(x, y)| y - x == 100));
    }

    #[test]
    fn thread_index_in_bounds() {
        let _serial = placement();
        let max = std::sync::Mutex::new(0usize);
        (0..10_000usize).into_par_iter().for_each(|_| {
            let idx = crate::current_thread_index().unwrap_or(0);
            let mut m = max.lock().unwrap();
            *m = (*m).max(idx);
        });
        assert!(*max.lock().unwrap() < crate::current_num_threads());
    }

    #[test]
    fn for_each_init_reuses_state_per_chunk() {
        let _serial = placement();
        let inits = AtomicUsize::new(0);
        (0..10_000usize).into_par_iter().for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 16]
            },
            |s, _| {
                s[0] = s[0].wrapping_add(1);
            },
        );
        assert!(inits.load(Ordering::Relaxed) <= crate::current_num_threads());
    }
}
