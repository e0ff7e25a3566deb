//! Escalating backoff for waiting loops: spin → yield → block.
//!
//! The reproduction host may have very few cores (CI boxes often have 2),
//! so no waiting loop in the system may busy-wait: a component spinning on
//! an empty queue would starve the component doing real work and invert
//! every experiment's results. Every loop therefore starts with the same
//! short prelude — a few spins, then a few `yield_now`s, which is what
//! keeps a component *awake* across the sub-100µs gaps of a loaded system —
//! and only differs in how it blocks once the prelude is exhausted:
//!
//! * AC event loops and blocking inbox receives drive the prelude with
//!   [`Backoff::spin_or_yield`] and then sleep in
//!   `anydb_stream::inbox::Inbox::wait` until a sender wakes them — no
//!   timer on the transaction path;
//! * the remaining polling loops (links, stream consumers, the DBx1000
//!   baseline), which wait on a clock rather than on a sender, call
//!   [`Backoff::wait`], whose last step is a short timed sleep.

use std::time::Duration;

/// Escalating backoff: spin, then yield, then block.
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
    spin_limit: u32,
    yield_limit: u32,
    sleep: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Default tuning: 64 spins, 16 yields, then 50µs sleeps.
    pub fn new() -> Self {
        Self::with_limits(64, 16, Duration::from_micros(50))
    }

    /// Custom tuning.
    pub fn with_limits(spin_limit: u32, yield_limit: u32, sleep: Duration) -> Self {
        Self {
            step: 0,
            spin_limit,
            yield_limit,
            sleep,
        }
    }

    /// One step of the spin → yield prelude. Returns `false` without
    /// waiting once the prelude is exhausted: the caller must then block
    /// on whatever will wake it.
    #[inline]
    pub fn spin_or_yield(&mut self) -> bool {
        if self.step < self.spin_limit {
            std::hint::spin_loop();
        } else if !self.is_exhausted() {
            std::thread::yield_now();
        } else {
            return false;
        }
        self.step += 1;
        true
    }

    /// Waits one escalation step; past the prelude, a timed sleep.
    #[inline]
    pub fn wait(&mut self) {
        if !self.spin_or_yield() {
            std::thread::sleep(self.sleep);
        }
    }

    /// Resets after useful work was found.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// True once the spin → yield prelude is used up and every further
    /// wait blocks (useful for "still idle?" heuristics).
    pub fn is_exhausted(&self) -> bool {
        self.step >= self.spin_limit + self.yield_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_resets() {
        let mut b = Backoff::with_limits(2, 2, Duration::from_micros(1));
        assert!(!b.is_exhausted());
        for _ in 0..4 {
            assert!(b.spin_or_yield());
        }
        assert!(b.is_exhausted());
        assert!(!b.spin_or_yield(), "an exhausted prelude must not wait");
        b.reset();
        assert!(!b.is_exhausted());
    }

    #[test]
    fn exhausted_backoff_sleeps() {
        let mut b = Backoff::with_limits(0, 0, Duration::from_millis(2));
        let start = std::time::Instant::now();
        b.wait();
        assert!(start.elapsed() >= Duration::from_millis(1));
    }
}
