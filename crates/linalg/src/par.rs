//! A tiny scoped thread pool for row-parallel kernels.
//!
//! Hand-rolled on `std::thread` because the build environment has no
//! registry access (no rayon). Worker threads are spawned lazily on first
//! use and park on a condvar between jobs, so a `parallel_for` call costs a
//! lock + notify rather than a thread spawn.
//!
//! Pool size is `PITOT_THREADS` when set (values `0` and `1` both disable
//! parallelism) and `std::thread::available_parallelism()` otherwise. The
//! size is read once, at first use.
//!
//! Kernels built on this module split work by *output rows*, and every
//! output element is accumulated by exactly one thread in the same order the
//! serial kernel would use — results are therefore bitwise identical across
//! thread counts, which keeps the workspace's fixed-seed training tests
//! deterministic no matter how CI is configured.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

struct Pool {
    /// Total parallelism including the calling thread.
    threads: usize,
    state: &'static State,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let state: &'static State = Box::leak(Box::new(State {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        }));
        // The calling thread participates, so spawn `threads − 1` workers.
        for i in 1..threads {
            std::thread::Builder::new()
                .name(format!("pitot-linalg-{i}"))
                .spawn(move || worker(state))
                .expect("spawning pool worker");
        }
        Pool { threads, state }
    })
}

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("PITOT_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => eprintln!("pitot-linalg: ignoring unparsable PITOT_THREADS={v:?}"),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    /// Set inside pool workers so nested `parallel_for` calls run inline
    /// instead of deadlocking on a saturated pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker(state: &'static State) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        let job = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = state.job_ready.wait(queue).unwrap();
            }
        };
        // Jobs catch their own panics (see `parallel_for`), so a failing
        // kernel body never takes a worker down with it.
        job();
    }
}

/// Countdown latch: `parallel_for` blocks on it until every queued chunk has
/// run, which is what makes lending stack borrows to the workers sound.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    poisoned: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn arrive(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap();
        }
    }
}

/// Number of threads the kernels may use (including the caller).
pub fn threads() -> usize {
    pool().threads
}

/// Runs `body` over disjoint sub-ranges of `0..total`, possibly in parallel.
///
/// `min_chunk` is the smallest range worth shipping to another thread; the
/// range is split into at most `threads()` chunks of at least that size, and
/// anything smaller runs inline on the caller. The caller always processes
/// the first chunk itself, so a pool of one thread never touches a lock.
///
/// # Panics
///
/// Propagates a panic from any chunk (after all chunks have finished, so no
/// borrow escapes).
pub fn parallel_for<F>(total: usize, min_chunk: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if total == 0 {
        return;
    }
    if IN_WORKER.with(std::cell::Cell::get) {
        body(0..total);
        return;
    }
    let pool = pool();
    let max_chunks = total.div_ceil(min_chunk.max(1));
    let chunks = pool.threads.min(max_chunks).max(1);
    if chunks == 1 {
        body(0..total);
        return;
    }

    let latch = Latch::new(chunks - 1);
    let body_ref: &(dyn Fn(Range<usize>) + Sync) = &body;
    let per = total / chunks;
    let rem = total % chunks;
    let mut start = per + usize::from(rem > 0); // chunk 0 runs on the caller
    {
        let mut queue = pool.state.queue.lock().unwrap();
        for c in 1..chunks {
            let len = per + usize::from(c < rem);
            let range = start..start + len;
            start += len;
            let latch_ref = &latch;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                if catch_unwind(AssertUnwindSafe(|| body_ref(range))).is_err() {
                    latch_ref.poisoned.store(true, Ordering::Release);
                }
                latch_ref.arrive();
            });
            // SAFETY: the job borrows `body` and `latch` from this stack
            // frame. We block on the latch below until every job has
            // finished, so the borrows never outlive the frame.
            let job: Job = unsafe { std::mem::transmute(job) };
            queue.push_back(job);
        }
    }
    pool.state.job_ready.notify_all();

    let own = catch_unwind(AssertUnwindSafe(|| body_ref(0..per + usize::from(rem > 0))));
    latch.wait();
    match own {
        Err(payload) => std::panic::resume_unwind(payload),
        Ok(()) if latch.poisoned.load(Ordering::Acquire) => {
            panic!("a pitot-linalg parallel kernel chunk panicked");
        }
        Ok(()) => {}
    }
}

/// Splits a flat row-major buffer into disjoint row-aligned chunks and runs
/// `body` over them, possibly in parallel.
///
/// `body(first_row, chunk)` receives the index of the chunk's first row and
/// a mutable window covering whole rows. This is the safe entry point other
/// crates use for row-parallel writes (batched prediction, score
/// computation) without touching `unsafe` themselves; every chunk covers a
/// disjoint window, so results are bitwise identical across `PITOT_THREADS`
/// whenever `body` computes rows independently.
///
/// # Panics
///
/// Panics if `row_width == 0` or the buffer length is not a whole number of
/// rows; propagates panics from `body`.
pub fn parallel_for_rows<F>(data: &mut [f32], row_width: usize, min_rows: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "row width must be positive");
    assert_eq!(
        data.len() % row_width,
        0,
        "buffer length {} is not a whole number of {row_width}-wide rows",
        data.len()
    );
    let total = data.len() / row_width;
    let ptr = SendPtr::new(data.as_mut_ptr());
    parallel_for(total, min_rows.max(1), |rows| {
        // SAFETY: `parallel_for` hands out disjoint row ranges, so each
        // chunk owns a disjoint window of the buffer.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(
                ptr.get().add(rows.start * row_width),
                rows.len() * row_width,
            )
        };
        body(rows.start, chunk);
    });
}

/// A raw pointer to a mutable slice that may be sent across the pool.
///
/// Used by kernels to hand each chunk its disjoint window of the output
/// buffer; soundness rests on the row ranges from [`parallel_for`] never
/// overlapping.
pub(crate) struct SendPtr(*mut f32);

// SAFETY: each chunk dereferences a disjoint sub-range of the allocation.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    pub(crate) fn new(ptr: *mut f32) -> Self {
        Self(ptr)
    }

    /// The wrapped pointer. A method (not field access) so closures capture
    /// the `Sync` wrapper rather than the raw pointer.
    pub(crate) fn get(&self) -> *mut f32 {
        self.0
    }
}

/// A multi-producer single-consumer event queue with blocking batch drain.
///
/// Hand-rolled on `Mutex<VecDeque>` + `Condvar` in the same spirit as the
/// pool above (no registry access, no crossbeam). Producers [`push`] from
/// any thread; the consumer parks in [`drain_into`] until at least one item
/// (or [`close`]) arrives, then takes *everything* pending in one swap —
/// that batch drain is the lane coalescing hook the concurrent
/// serving runtime builds on: the deeper the backlog, the bigger the batch
/// handed to the row-parallel predict path.
///
/// Per-producer FIFO holds trivially (a single mutex orders all pushes),
/// which is the property the serving twin-equivalence proofs lean on.
///
/// [`push`]: EventQueue::push
/// [`close`]: EventQueue::close
/// [`drain_into`]: EventQueue::drain_into
pub struct EventQueue<T> {
    inner: Mutex<EventQueueInner<T>>,
    ready: Condvar,
}

struct EventQueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(EventQueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`; returns `false` (dropping the item) if the queue is
    /// closed.
    pub fn push(&self, item: T) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return false;
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Closes the queue: future pushes are refused, and a parked consumer
    /// wakes to drain whatever is left.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Parks until at least one item is pending (or the queue is closed),
    /// then moves *all* pending items into `batch` (which is cleared first).
    ///
    /// Returns `false` iff the queue is closed and empty — the consumer's
    /// shutdown signal.
    pub fn drain_into(&self, batch: &mut Vec<T>) -> bool {
        batch.clear();
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.items.is_empty() {
                batch.extend(inner.items.drain(..));
                return true;
            }
            if inner.closed {
                return false;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Non-blocking variant of [`drain_into`](Self::drain_into): moves
    /// whatever is pending (possibly nothing) and returns the count.
    pub fn try_drain_into(&self, batch: &mut Vec<T>) -> usize {
        batch.clear();
        let mut inner = self.inner.lock().unwrap();
        batch.extend(inner.items.drain(..));
        batch.len()
    }

    /// Number of items currently pending.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether no items are currently pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A monotone counter a thread can park on — the barrier primitive the
/// concurrent serving runtime uses to wait for a lane to finish its backlog
/// ("wait until the worker has processed at least N commands").
///
/// Unlike the pool's internal one-shot latch this is reusable and counts
/// *up*: workers [`add`] as they retire commands, the coordinator
/// [`wait_at_least`]s a target. A worker that dies [`close`]s its gauge,
/// which releases every waiter short of its target.
///
/// [`add`]: Gauge::add
/// [`wait_at_least`]: Gauge::wait_at_least
/// [`close`]: Gauge::close
#[derive(Default)]
pub struct Gauge {
    state: Mutex<GaugeState>,
    moved: Condvar,
}

#[derive(Default)]
struct GaugeState {
    count: u64,
    closed: bool,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the gauge by `n` and wakes any waiters.
    pub fn add(&self, n: u64) {
        let mut state = self.state.lock().unwrap();
        state.count += n;
        drop(state);
        self.moved.notify_all();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.state.lock().unwrap().count
    }

    /// Marks the gauge as never moving again (its counting thread died) and
    /// wakes any waiters.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.moved.notify_all();
    }

    /// Parks until the gauge reaches at least `target` or is closed.
    /// Returns whether it reached `target`; `false` means it was closed
    /// short of it.
    #[must_use]
    pub fn wait_at_least(&self, target: u64) -> bool {
        let mut state = self.state.lock().unwrap();
        while state.count < target && !state.closed {
            state = self.moved.wait(state).unwrap();
        }
        state.count >= target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_every_index_exactly_once() {
        for total in [0usize, 1, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(total, 1, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn small_totals_run_inline() {
        // min_chunk larger than total ⇒ single inline chunk; the closure can
        // prove it by mutating through a non-Sync-unfriendly pattern safely.
        let mut touched = false;
        let cell = std::sync::Mutex::new(&mut touched);
        parallel_for(3, 100, |range| {
            assert_eq!(range, 0..3);
            **cell.lock().unwrap() = true;
        });
        assert!(touched);
    }

    #[test]
    fn panics_propagate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(8, 1, |range| {
                if range.contains(&0) {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn event_queue_drains_pending_batch_in_order() {
        let q = EventQueue::new();
        for i in 0..5 {
            assert!(q.push(i));
        }
        assert_eq!(q.len(), 5);
        let mut batch = vec![99]; // drain_into must clear stale contents
        assert!(q.drain_into(&mut batch));
        assert_eq!(batch, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_close_refuses_pushes_and_signals_shutdown() {
        let q = EventQueue::new();
        assert!(q.push(1));
        q.close();
        assert!(!q.push(2), "push after close must be refused");
        let mut batch = Vec::new();
        // The item enqueued before close is still delivered...
        assert!(q.drain_into(&mut batch));
        assert_eq!(batch, vec![1]);
        // ...and only then does the queue report shutdown.
        assert!(!q.drain_into(&mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn event_queue_try_drain_is_nonblocking() {
        let q: EventQueue<u32> = EventQueue::new();
        let mut batch = vec![7];
        assert_eq!(q.try_drain_into(&mut batch), 0);
        assert!(batch.is_empty());
        q.push(3);
        assert_eq!(q.try_drain_into(&mut batch), 1);
        assert_eq!(batch, vec![3]);
    }

    #[test]
    fn event_queue_wakes_parked_consumer() {
        let q = std::sync::Arc::new(EventQueue::new());
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                let mut seen = Vec::new();
                while q.drain_into(&mut batch) {
                    seen.append(&mut batch);
                }
                seen
            })
        };
        for i in 0u32..100 {
            assert!(q.push(i));
            if i % 17 == 0 {
                std::thread::yield_now(); // let the consumer park sometimes
            }
        }
        q.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    /// Oracle property: with N producers racing, the drained stream must be
    /// FIFO **per producer** — exactly the guarantee a `Vec` under the same
    /// mutex would give. Each producer tags items `(producer, seq)`; the
    /// consumer asserts per-producer sequence numbers arrive strictly
    /// ascending and that nothing is lost or duplicated.
    #[test]
    fn event_queue_is_fifo_per_producer_under_contention() {
        const PRODUCERS: usize = 4;
        const PER: u32 = 500;
        let q = std::sync::Arc::new(EventQueue::new());
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut batch: Vec<(usize, u32)> = Vec::new();
                let mut all = Vec::new();
                while q.drain_into(&mut batch) {
                    all.append(&mut batch);
                }
                all
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = std::sync::Arc::clone(&q);
                std::thread::spawn(move || {
                    for seq in 0..PER {
                        assert!(q.push((p, seq)));
                        if seq % 97 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        q.close();
        let all = consumer.join().unwrap();
        assert_eq!(all.len(), PRODUCERS * PER as usize, "no loss, no dupes");
        let mut next = [0u32; PRODUCERS];
        for (p, seq) in all {
            assert_eq!(seq, next[p], "producer {p} reordered");
            next[p] += 1;
        }
        assert!(next.iter().all(|&n| n == PER));
    }

    #[test]
    fn gauge_releases_waiter_at_target() {
        let g = std::sync::Arc::new(Gauge::new());
        assert_eq!(g.get(), 0);
        let waiter = {
            let g = std::sync::Arc::clone(&g);
            std::thread::spawn(move || {
                assert!(g.wait_at_least(10));
                g.get()
            })
        };
        for _ in 0..10 {
            g.add(1);
        }
        assert!(waiter.join().unwrap() >= 10);
        assert!(g.wait_at_least(5)); // already past: returns immediately
    }

    #[test]
    fn closing_a_gauge_releases_waiters_short_of_target() {
        let g = std::sync::Arc::new(Gauge::new());
        let waiter = {
            let g = std::sync::Arc::clone(&g);
            std::thread::spawn(move || g.wait_at_least(10))
        };
        g.add(3);
        g.close();
        assert!(!waiter.join().unwrap(), "closed at 3 of 10");
        assert!(g.wait_at_least(3), "a reached target still reports true");
        assert!(!g.wait_at_least(4));
    }
}
