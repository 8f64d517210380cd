//! Worker pools: an order-preserving parallel [`map`] over independent
//! jobs, and the synchronization primitives for the sharded parallel
//! engine.
//!
//! [`map`] is the one pool every independent-job fan-out uses (sweep
//! points, experiment jobs, served points): workers claim items by an
//! atomic index and the results come back in input order, so output never
//! depends on the thread count.
//!
//! The sharded cycle loop runs two phases per cycle on a persistent set
//! of workers, with the orchestrator doing serial work (stat merging,
//! workload polling, fault scripting) while every worker is parked. That
//! shape needs a *leader-observable* barrier rather than a symmetric one:
//! workers [`Gate::arrive_and_wait`] and stay parked until the leader —
//! who never blocks inside the gate — has observed full arrival
//! ([`Gate::wait_arrived`]), finished its serial work, and
//! [`Gate::release`]d the generation.
//!
//! Waits spin briefly and then yield to the scheduler, so the protocol
//! makes progress even when threads outnumber cores (including the
//! degenerate single-core host, where pure spinning would livelock the
//! whole pool).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Applies `f` to every item on a pool of up to `threads` scoped workers
/// and returns the results in input order.
///
/// The output equals `items.iter().map(f).collect()` for any thread
/// count. With `threads <= 1` (or fewer than two items) it *is* that
/// sequential map: no thread is spawned. A panic in `f` reaches the caller
/// as a panic once the other workers have drained the remaining items.
///
/// # Examples
///
/// ```
/// let squares = simkit::par::map(&[1, 2, 3, 4], 3, |x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
pub fn map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item was mapped"))
        .collect()
}

/// Iterations of busy-spinning before a waiter starts yielding.
const SPIN_LIMIT: u32 = 64;

/// One spin-then-yield backoff step.
#[inline]
fn backoff(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// A leader-observable generation gate.
///
/// Workers call [`Gate::arrive_and_wait`]; they block (spin-then-yield)
/// until the leader calls [`Gate::release`]. The leader polls
/// [`Gate::wait_arrived`] to learn that all `n` workers are parked — it
/// never blocks *in* the gate, so it is free to do serial work between
/// observing arrival and releasing.
///
/// # Examples
///
/// ```
/// use simkit::par::Gate;
/// use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
///
/// let gate = Gate::new();
/// let abort = AtomicBool::new(false);
/// let turns = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         gate.arrive_and_wait(&abort);
///         turns.fetch_add(1, Ordering::SeqCst);
///     });
///     assert!(gate.wait_arrived(1, &abort));
///     assert_eq!(turns.load(Ordering::SeqCst), 0); // still parked
///     gate.release();
/// });
/// assert_eq!(turns.load(Ordering::SeqCst), 1);
/// ```
#[derive(Debug, Default)]
pub struct Gate {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl Gate {
    /// Creates a gate at generation zero with no arrivals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker side: registers arrival and parks until the leader releases
    /// the current generation — or `cancel` becomes set, which returns
    /// immediately (the pool is shutting down; callers must check their
    /// stop flag after every wait).
    pub fn arrive_and_wait(&self, cancel: &AtomicBool) {
        let gen = self.generation.load(Ordering::Acquire);
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == gen {
            if cancel.load(Ordering::Acquire) {
                return;
            }
            backoff(&mut spins);
        }
    }

    /// Leader side: waits (spin-then-yield) until `n` workers are parked
    /// at the gate. Returns `false` — without consuming the arrivals — if
    /// `abort` becomes set first (a worker died; the pool must unwind
    /// instead of spinning forever).
    #[must_use]
    pub fn wait_arrived(&self, n: usize, abort: &AtomicBool) -> bool {
        let mut spins = 0;
        while self.arrived.load(Ordering::Acquire) < n {
            if abort.load(Ordering::Acquire) {
                return false;
            }
            backoff(&mut spins);
        }
        true
    }

    /// Leader side: resets the arrival count and advances the generation,
    /// unparking every waiter. Call only after [`Gate::wait_arrived`]
    /// observed full arrival (releasing early would strand late arrivals
    /// on the next generation).
    pub fn release(&self) {
        self.arrived.store(0, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// Sets a flag when dropped during a panic — wrap one around each
/// worker's body so the leader's [`Gate::wait_arrived`] can notice a
/// dead worker instead of waiting for an arrival that will never come.
#[derive(Debug)]
pub struct PanicSignal<'a>(pub &'a AtomicBool);

impl Drop for PanicSignal<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u32> = (0..37).collect();
        let expect: Vec<u32> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 5, 64] {
            let got = map(&items, threads, |x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_panic_reaches_the_caller() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            map(&items, 4, |&x| {
                assert_ne!(x, 5, "item 5 fails");
                x
            })
        });
        let panic = result.expect_err("the failing item panics the map");
        let message = panic.downcast_ref::<String>().map(String::as_str);
        assert!(
            message.is_some_and(|m| m.contains("item 5 fails")),
            "{message:?}"
        );
    }

    #[test]
    fn two_phase_protocol_orders_leader_and_workers() {
        // Leader increments the counter only while every worker is parked;
        // workers increment only between releases. Any overlap would break
        // the strict alternation the assertion checks.
        const CYCLES: u64 = 200;
        const WORKERS: usize = 3;
        let a = Gate::new();
        let b = Gate::new();
        let abort = AtomicBool::new(false);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    for _ in 0..CYCLES {
                        a.arrive_and_wait(&abort);
                        counter.fetch_add(1, Ordering::SeqCst);
                        b.arrive_and_wait(&abort);
                    }
                });
            }
            for cycle in 0..CYCLES {
                assert!(a.wait_arrived(WORKERS, &abort));
                // All workers parked: the counter is quiescent and exact.
                assert_eq!(counter.load(Ordering::SeqCst), cycle * WORKERS as u64);
                a.release();
                assert!(b.wait_arrived(WORKERS, &abort));
                assert_eq!(counter.load(Ordering::SeqCst), (cycle + 1) * WORKERS as u64);
                b.release();
            }
        });
    }

    #[test]
    fn abort_flag_breaks_the_leader_wait() {
        let gate = Gate::new();
        let abort = AtomicBool::new(true);
        // No worker ever arrives; without the abort this would hang.
        assert!(!gate.wait_arrived(1, &abort));
    }

    #[test]
    fn cancel_flag_breaks_the_worker_wait() {
        let gate = Gate::new();
        let cancel = AtomicBool::new(true);
        // No release ever comes; without the cancel this would hang.
        gate.arrive_and_wait(&cancel);
    }

    #[test]
    fn panic_signal_fires_only_on_panic() {
        let flag = AtomicBool::new(false);
        {
            let _guard = PanicSignal(&flag);
        }
        assert!(!flag.load(Ordering::Acquire));
        let flag = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = PanicSignal(&flag);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(flag.load(Ordering::Acquire));
    }
}
