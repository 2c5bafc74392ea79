//! The process-wide hardware-thread budget.
//!
//! Two things in the simulator want a second hardware thread: the
//! `snic-sim` worker pool, which fans independent runs (or the tenants
//! of one sharded run) across workers, and the engine, whose private-L1
//! fronts can run on a helper thread beside the shared-hierarchy
//! scheduler ([`crate::engine`]). Both draw from one budget of *spare*
//! threads — [`default_threads`] minus the caller's own — so a pool that
//! already occupies every core keeps the engine calls inside it inline,
//! and `SNIC_SIM_THREADS=1` leaves no spare thread for anyone. Threads
//! are taken without waiting: whoever finds the budget empty runs on the
//! thread it has.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::OnceLock;

/// Worker count the simulator sizes itself by: `SNIC_SIM_THREADS` when
/// set to a positive integer, else
/// [`std::thread::available_parallelism`], else 1.
pub fn default_threads() -> usize {
    std::env::var("SNIC_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// The spare threads left: `default_threads() - 1`, read once per
/// process.
fn spare() -> &'static AtomicUsize {
    static SPARE: OnceLock<AtomicUsize> = OnceLock::new();
    SPARE.get_or_init(|| AtomicUsize::new(default_threads() - 1))
}

/// Spare hardware threads taken from the budget; dropping the value
/// gives them back.
#[derive(Debug)]
#[must_use = "the threads go back to the budget when this is dropped"]
pub struct Threads {
    n: usize,
}

impl Threads {
    /// Take up to `want` spare threads without waiting — as many as the
    /// budget has left, possibly none.
    pub fn take(want: usize) -> Threads {
        let spare = spare();
        let mut left = spare.load(SeqCst);
        loop {
            let n = left.min(want);
            if n == 0 {
                return Threads { n: 0 };
            }
            match spare.compare_exchange_weak(left, left - n, SeqCst, SeqCst) {
                Ok(_) => return Threads { n },
                Err(now) => left = now,
            }
        }
    }

    /// How many threads were taken.
    pub fn count(&self) -> usize {
        self.n
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        if self.n > 0 {
            spare().fetch_add(self.n, SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taking_never_exceeds_the_spare_threads() {
        assert!(default_threads() >= 1);
        // Other tests of this binary may take and return threads
        // concurrently, so only the ceiling is pinned here; the
        // exhausted-budget case is `engine_differential`'s.
        let all = Threads::take(usize::MAX);
        assert!(all.count() < default_threads());
        assert_eq!(Threads::take(0).count(), 0);
    }
}
