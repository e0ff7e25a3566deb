//! Lightweight performance metrics: event counters, flat counter
//! snapshots, and throughput windows.
//!
//! The benchmark harnesses (Figures 1, 5, 6) read these to print the same
//! series the paper reports. Everything is lock-free so that recording a
//! commit from inside an AC's hot loop costs one relaxed atomic increment.
//! Latency distributions are not kept here: the benchmark records exact
//! samples, because power-of-two buckets cannot resolve a 10 % change.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone event counter (e.g. committed transactions).
#[derive(Debug, Default)]
pub struct Counter {
    count: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }
}

/// Generates a flat counter-snapshot struct: every field a `u64`, with
/// saturating [`merge`], declaration-ordered [`fields`], and a one-line
/// non-zero [`report`]. [`RobustSnapshot`] (fault/replication/2PC
/// counters) and [`LoadSnapshot`] (the morph controller's load signals)
/// are both instances, so tests and reports treat them uniformly.
macro_rules! counter_snapshot {
    (
        $(#[$sdoc:meta])*
        $name:ident { $($(#[$doc:meta])* $field:ident,)* }
    ) => {
        $(#[$sdoc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// Accumulates `other` into `self`, field by field (saturating,
            /// so merged reports can never wrap).
            pub fn merge(&mut self, other: &$name) {
                $(self.$field = self.$field.saturating_add(other.$field);)*
            }

            /// Every field as a `(name, value)` pair, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),*]
            }

            /// A compact one-line report of the non-zero counters, e.g.
            /// `"frames_dropped=12 retry_attempts=3"`. Empty string when
            /// nothing fired.
            pub fn report(&self) -> String {
                self.fields()
                    .into_iter()
                    .filter(|&(_, v)| v != 0)
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        }
    };
}

counter_snapshot! {
    /// A uniform snapshot of every robustness counter in the system:
    /// link fault injection, remote-scan serving and retry, WAL
    /// replication, and two-phase commit. Each subsystem converts its
    /// own metrics type into one of these (`FaultStats::snapshot`,
    /// `ReplMetrics::snapshot`, ...); chaos tests [`merge`] them and
    /// assert on one struct instead of plumbing several.
    ///
    /// [`merge`]: RobustSnapshot::merge
    RobustSnapshot {
    /// Frames a faulty link delivered (possibly delayed).
    frames_delivered,
    /// Frames a faulty link silently dropped.
    frames_dropped,
    /// Frames a faulty link delayed by an injected spike.
    frames_delayed,
    /// Sends refused by a cut link.
    sends_refused,
    /// Scan replies served by a storage AC.
    scans_served,
    /// Scan reply frames dropped server-side before sending.
    scan_frames_dropped,
    /// Scan error replies sent instead of data.
    scan_error_replies,
    /// Remote-scan request attempts issued (first tries + retries).
    retry_attempts,
    /// Remote-scan attempts that hit the per-attempt deadline.
    retry_timeouts,
    /// Remote-scan attempts abandoned mid-stream (torn reply set).
    retry_incomplete,
    /// Remote-scan requests that exhausted every attempt.
    retries_exhausted,
    /// Transactions committed through a replicated primary.
    repl_commits,
    /// WAL record batches shipped primary → follower.
    repl_batches_shipped,
    /// Follower acks processed by a primary.
    repl_acks,
    /// Heartbeats sent by primaries.
    repl_heartbeats,
    /// Catch-up requests served (joins, rejoins, gap repairs).
    repl_catchups,
    /// LSN gaps a follower detected on its ship link.
    repl_gaps,
    /// Corrupt replication frames rejected by a follower.
    repl_corrupt_frames,
    /// Follower promotions (lease expiries acted on).
    repl_promotions,
    /// 2PC prepares sent by coordinators.
    twopc_prepares,
    /// 2PC no-votes received (staging refused somewhere).
    twopc_votes_no,
    /// 2PC commit decisions logged.
    twopc_commits,
    /// 2PC abort decisions logged.
    twopc_aborts,
    /// 2PC protocol frames retransmitted (lost or unacked).
    twopc_retransmits,
    /// Decision queries answered for in-doubt participants.
    twopc_decide_queries,
    /// In-doubt transactions resolved by the presumed-abort rule.
    twopc_presumed_aborts,
    /// Corrupt 2PC frames rejected by a shard node.
    twopc_corrupt_frames,
    }
}

counter_snapshot! {
    /// One observation window of the load signals the system already
    /// collects — queue-depth mirrors, completion counts, the OLTP/OLAP
    /// mix — in the same flat-counter shape as [`RobustSnapshot`], so
    /// windows [`merge`] into longer horizons and report uniformly.
    ///
    /// Drivers build one per transaction window and feed it to the morph
    /// controller (`anydb_core::morph`); derived signals like
    /// [`hot_share`] and [`olap_fraction`] are computed on the merged
    /// counters, never sampled separately, so a snapshot carried across a
    /// thread or merged over a phase cannot disagree with itself.
    ///
    /// [`merge`]: LoadSnapshot::merge
    /// [`hot_share`]: LoadSnapshot::hot_share
    /// [`olap_fraction`]: LoadSnapshot::olap_fraction
    LoadSnapshot {
    /// Transactions committed during the window.
    oltp_committed,
    /// OLAP queries completed during the window.
    olap_completed,
    /// OLAP queries admitted (sent into an admission window).
    olap_admitted,
    /// Transaction windows this snapshot covers.
    windows,
    /// Queue-depth sampling rounds taken (one round reads every AC's
    /// depth mirror once).
    depth_samples,
    /// Backlog attributable to the hottest home partition, summed over
    /// sampling rounds. Under home-warehouse routing this is just the
    /// deepest single-AC queue; samplers running decomposed strategies
    /// attribute the (stage-spread) backlog back to home partitions so
    /// the skew signal stays comparable across execution strategies.
    depth_hot,
    /// Backlog across all ACs, summed over sampling rounds.
    depth_total,
    }
}

impl LoadSnapshot {
    /// The hottest AC's share of the total queued backlog, the skew
    /// signal: ~1.0 when one AC owns every queued event (a skewed phase
    /// routed shared-nothing), ~1/n under uniform routing. `None` when no
    /// backlog was observed — an empty queue says the current plan keeps
    /// up, not that the load is uniform.
    pub fn hot_share(&self) -> Option<f64> {
        if self.depth_total == 0 {
            None
        } else {
            Some(self.depth_hot as f64 / self.depth_total as f64)
        }
    }

    /// Fraction of completed work that was analytical, in `[0, 1]`; 0.0
    /// when nothing completed.
    pub fn olap_fraction(&self) -> f64 {
        let total = self.olap_completed + self.oltp_committed;
        if total == 0 {
            0.0
        } else {
            self.olap_completed as f64 / total as f64
        }
    }

    /// Mean total backlog per sampling round; 0.0 with no samples.
    pub fn mean_backlog(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_total as f64 / self.depth_samples as f64
        }
    }
}

/// Measures throughput over a window: `tx/s = taken / elapsed`.
#[derive(Debug)]
pub struct ThroughputWindow {
    started: Instant,
}

impl Default for ThroughputWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputWindow {
    /// Opens a window starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Closes the window: given an event count, returns events/second and
    /// restarts the window.
    pub fn rate(&mut self, events: u64) -> f64 {
        let elapsed = self.started.elapsed();
        self.started = Instant::now();
        if elapsed.is_zero() {
            return 0.0;
        }
        events as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn throughput_window_produces_positive_rate() {
        let mut w = ThroughputWindow::new();
        std::thread::sleep(Duration::from_millis(5));
        let r = w.rate(100);
        assert!(r > 0.0);
        assert!(r < 100.0 / 0.004);
    }

    #[test]
    fn robust_snapshot_merge_and_report() {
        let mut a = RobustSnapshot {
            frames_dropped: 2,
            retry_attempts: 1,
            ..Default::default()
        };
        let b = RobustSnapshot {
            frames_dropped: 3,
            twopc_presumed_aborts: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frames_dropped, 5);
        assert_eq!(a.retry_attempts, 1);
        assert_eq!(a.twopc_presumed_aborts, 1);
        assert_eq!(
            a.report(),
            "frames_dropped=5 retry_attempts=1 twopc_presumed_aborts=1"
        );
        assert_eq!(RobustSnapshot::default().report(), "");
    }

    #[test]
    fn robust_snapshot_merge_saturates() {
        let mut a = RobustSnapshot {
            repl_commits: u64::MAX - 1,
            ..Default::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.repl_commits, u64::MAX);
    }

    #[test]
    fn load_snapshot_merge_and_report() {
        let mut a = LoadSnapshot {
            oltp_committed: 100,
            depth_samples: 1,
            depth_hot: 8,
            depth_total: 8,
            windows: 1,
            ..Default::default()
        };
        let b = LoadSnapshot {
            oltp_committed: 50,
            olap_completed: 10,
            depth_samples: 1,
            depth_hot: 2,
            depth_total: 8,
            windows: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.oltp_committed, 150);
        assert_eq!(a.olap_completed, 10);
        assert_eq!(a.depth_samples, 2);
        assert_eq!(a.depth_hot, 10);
        assert_eq!(a.depth_total, 16);
        assert_eq!(
            a.report(),
            "oltp_committed=150 olap_completed=10 windows=2 \
             depth_samples=2 depth_hot=10 depth_total=16"
        );
        assert_eq!(LoadSnapshot::default().report(), "");
    }

    #[test]
    fn load_snapshot_merge_saturates() {
        let mut a = LoadSnapshot {
            depth_total: u64::MAX - 1,
            ..Default::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.depth_total, u64::MAX);
    }

    #[test]
    fn load_snapshot_derived_signals() {
        // No backlog observed: the skew signal is absent, not zero.
        assert_eq!(LoadSnapshot::default().hot_share(), None);
        assert_eq!(LoadSnapshot::default().olap_fraction(), 0.0);
        assert_eq!(LoadSnapshot::default().mean_backlog(), 0.0);

        let skewed = LoadSnapshot {
            depth_hot: 32,
            depth_total: 32,
            depth_samples: 2,
            ..Default::default()
        };
        assert_eq!(skewed.hot_share(), Some(1.0));
        assert_eq!(skewed.mean_backlog(), 16.0);

        let uniform = LoadSnapshot {
            depth_hot: 8,
            depth_total: 32,
            depth_samples: 1,
            ..Default::default()
        };
        assert_eq!(uniform.hot_share(), Some(0.25));

        let htap = LoadSnapshot {
            oltp_committed: 75,
            olap_completed: 25,
            ..Default::default()
        };
        assert!((htap.olap_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counter_is_sync_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
