//! The workspace's one parallel-execution substrate: a persistent
//! fork-join [`ThreadPool`].
//!
//! FlatDD launches `t` threads for *every* DMAV and every conversion
//! (Algorithms 1 and 2 say "parallel for i in [0, t)"). Spawning OS threads
//! per gate would dominate the runtime of shallow gates, so the pool keeps
//! `t` workers parked and hands them one closure per dispatch; [`run`]
//! blocks until all workers finish, which is exactly the fork-join shape of
//! the paper's kernels. The pool lives in `qarray` (the bottom of the crate
//! stack: `qdd` and `flatdd` both depend on it) so the array kernels, the DD
//! phase, the DMAV kernels and the converters all share one set of workers,
//! and [`for_each_part`] is the one place the shard-to-worker rule is
//! written down.
//!
//! [`run`]: ThreadPool::run
//! [`for_each_part`]: ThreadPool::for_each_part

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Type-erased job pointer. The pointed-to closure is guaranteed (by
/// `run` blocking) to outlive its execution.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));
// SAFETY: the closure behind the pointer is `Sync`, and `run` keeps it alive
// until every worker has finished with it (`runs_every_tid_once`).
unsafe impl Send for Job {}

struct State {
    job: Option<Job>,
    generation: u64,
    active: usize,
    shutdown: bool,
    panicked: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl Shared {
    /// Jobs run outside this lock (workers catch their panics before
    /// re-taking it) and every update under it is a plain field store, so a
    /// poisoned guard still holds a consistent `State`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Fixed-size fork-join thread pool.
pub struct ThreadPool {
    size: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Held across [`Self::run`]: a second dispatching thread waits here
    /// for the first instead of overwriting its job.
    dispatch: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool with `size` workers (>= 1). A size-1 pool runs jobs
    /// inline on the caller with no worker threads.
    ///
    /// # Panics
    /// When the OS refuses to spawn a worker thread; use [`Self::try_new`]
    /// to handle that as an error.
    pub fn new(size: usize) -> Self {
        Self::try_new(size).expect("failed to spawn pool worker")
    }

    /// Fallible [`Self::new`]: surfaces thread-spawn failure (resource
    /// exhaustion under a tight process limit) as an `io::Error` instead of
    /// panicking. Already-spawned workers are joined cleanly on failure.
    pub fn try_new(size: usize) -> std::io::Result<Self> {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                active: 0,
                shutdown: false,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut pool = ThreadPool {
            size,
            shared,
            workers: Vec::new(),
            dispatch: Mutex::new(()),
        };
        if size > 1 {
            for tid in 0..size {
                let shared = Arc::clone(&pool.shared);
                // On failure `pool` drops here, which shuts down and joins
                // the workers already started.
                let handle = std::thread::Builder::new()
                    .name(format!("flatdd-worker-{tid}"))
                    .spawn(move || worker_loop(tid, &shared))?;
                pool.workers.push(handle);
            }
        }
        Ok(pool)
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f(tid)` for every `tid in 0..size` and waits for completion. A
    /// job that panics on a worker is re-raised here, on the dispatcher;
    /// the pool stays usable.
    ///
    /// Two threads may dispatch on one pool: the second waits for the first
    /// to finish. Calling `run` from inside a running job of the same pool
    /// deadlocks.
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.size == 1 {
            f(0);
            return;
        }
        // The lock guards no data, so a poisoned one (a previous dispatch
        // re-raised a job panic while holding it) is as good as a clean one.
        let _dispatch = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        let local: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: `f` outlives this call, and this call does not return
        // before every worker has finished executing the job — so erasing
        // the lifetime of the trait object is sound
        // (`panicking_job_surfaces_on_the_dispatcher_and_the_pool_survives`,
        // `second_dispatcher_waits_for_the_first`).
        let ptr: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(local)
        };
        let mut st = self.shared.lock();
        assert_eq!(st.active, 0, "dispatch lock held with a job in flight");
        st.job = Some(Job(ptr));
        st.generation += 1;
        st.active = self.size;
        self.shared.work_cv.notify_all();
        while st.active > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panicked = std::mem::take(&mut st.panicked);
        drop(st);
        if panicked {
            panic!("a ThreadPool job panicked on a worker thread");
        }
    }

    /// Runs `f(part)` once for every item of `parts` and waits for
    /// completion. Part `s` is shard `s`: worker `tid` takes parts `tid,
    /// tid + T, tid + 2T, ...` (`T` = pool size), so a worker keeps
    /// operating on the shards it first-touched whether the shard count
    /// equals, exceeds or undershoots the pool size. This is the one way a
    /// parallel writer gets its output: the caller carves disjoint `&mut`
    /// pieces (or tuples of them) with safe slicing, so no two workers can
    /// reach one element. A size-1 pool, or a single part, runs inline on
    /// the caller and allocates nothing.
    pub fn for_each_part<P: Send>(&self, parts: impl IntoIterator<Item = P>, f: impl Fn(P) + Sync) {
        let mut parts = parts.into_iter();
        if self.size == 1 {
            return parts.for_each(f);
        }
        let Some(first) = parts.next() else {
            return;
        };
        let Some(second) = parts.next() else {
            return f(first);
        };
        let slots: Vec<Mutex<Option<P>>> = [first, second]
            .into_iter()
            .chain(parts)
            .map(|p| Mutex::new(Some(p)))
            .collect();
        let t = self.size;
        self.run(|tid| {
            for slot in slots.iter().skip(tid).step_by(t) {
                let part = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                f(part.expect("every part is handed out once"));
            }
        });
    }
}

fn worker_loop(tid: usize, shared: &Shared) {
    let mut seen_gen = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            while st.generation == seen_gen && !st.shutdown {
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if st.shutdown {
                return;
            }
            seen_gen = st.generation;
            st.job.expect("generation advanced without a job")
        };
        // SAFETY: the dispatcher keeps the closure alive until `active`
        // drops to zero, which happens strictly after this call returns.
        // A panicking job must still decrement `active`, or `run` would
        // deadlock; the panic is surfaced on the dispatcher side instead
        // (`panicking_job_surfaces_on_the_dispatcher_and_the_pool_survives`).
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(tid) }));
        let mut st = shared.lock();
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn runs_every_tid_once() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        pool.run(|tid| {
            hits.fetch_add(1, Ordering::Relaxed);
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn sequential_dispatches_reuse_workers() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = ThreadPool::new(1);
        let cell = AtomicUsize::new(0);
        pool.run(|tid| cell.store(tid + 99, Ordering::Relaxed));
        assert_eq!(cell.load(Ordering::Relaxed), 99);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(2);
        pool.run(|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn panicking_job_surfaces_on_the_dispatcher_and_the_pool_survives() {
        let pool = ThreadPool::new(2);
        for _ in 0..2 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.for_each_part(0..4, |s| assert_ne!(s, 1, "boom"));
            }));
            assert!(
                result.is_err(),
                "the dispatcher must re-raise the job panic"
            );
            let mut out = [0usize; 4];
            pool.for_each_part(out.iter_mut().enumerate(), |(s, o)| *o = s);
            assert_eq!(out, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn for_each_part_hands_out_every_part_exactly_once() {
        for size in 1..=4 {
            let pool = ThreadPool::new(size);
            for parts in [0usize, 1, 3, 8, 17] {
                let mut seen = vec![0u32; parts];
                pool.for_each_part(seen.iter_mut().enumerate(), |(s, hits)| {
                    *hits += 1 + s as u32;
                });
                let want: Vec<u32> = (1..=parts as u32).collect();
                assert_eq!(seen, want, "pool {size}, {parts} parts");
            }
        }
    }

    #[test]
    fn for_each_part_keeps_a_part_on_one_worker() {
        // Round-robin ownership: part `s` always runs on worker `s % T`.
        let pool = ThreadPool::new(2);
        let owner: Vec<Mutex<Option<std::thread::ThreadId>>> =
            (0..6).map(|_| Mutex::new(None)).collect();
        for _ in 0..3 {
            pool.for_each_part(0..6, |s| {
                let me = std::thread::current().id();
                let mut slot = owner[s].lock().unwrap();
                assert_eq!(*slot.get_or_insert(me), me, "part {s} changed worker");
            });
        }
        let id = |s: usize| owner[s].lock().unwrap().unwrap();
        assert_eq!(id(0), id(2));
        assert_eq!(id(1), id(5));
        assert_ne!(id(0), id(1));
    }

    #[test]
    fn size_one_pool_runs_parts_inline_in_order() {
        let pool = ThreadPool::new(1);
        let me = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.for_each_part(["a", "b", "c"], |p| {
            assert_eq!(std::thread::current().id(), me);
            seen.lock().unwrap().push(p);
        });
        assert_eq!(*seen.lock().unwrap(), ["a", "b", "c"]);
    }

    #[test]
    fn second_dispatcher_waits_for_the_first() {
        let pool = ThreadPool::new(2);
        // Both workers of the first job and the second dispatcher meet at
        // the barrier, so the second `run` starts while the first job is in
        // flight; the first job then lingers to keep that window open.
        let barrier = Barrier::new(3);
        let first_in_flight = AtomicUsize::new(0);
        let overlapped = AtomicBool::new(false);
        let second_ran = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run(|_| {
                    first_in_flight.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    first_in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            });
            s.spawn(|| {
                barrier.wait();
                pool.run(|_| {
                    if first_in_flight.load(Ordering::SeqCst) != 0 {
                        overlapped.store(true, Ordering::SeqCst);
                    }
                    second_ran.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(second_ran.load(Ordering::SeqCst), 2);
        assert!(!overlapped.load(Ordering::SeqCst));
    }
}
