//! Operation histories and conflict-graph serializability checking.
//!
//! The storage layer gives every row a version counter; executors under
//! test record which version each read observed and which version each
//! write produced. From that, the exact conflict graph is reconstructed:
//!
//! * `ww`: the writer of version `v` precedes the writer of `v+1`,
//! * `wr`: the writer of version `v` precedes every reader of `v`,
//! * `rw`: a reader of version `v` precedes the writer of `v+1`.
//!
//! A history is (conflict-)serializable iff the graph is acyclic. Every CC
//! scheme in the repository — wait-die 2PL and the paper's streaming CC —
//! is property-tested against this checker.

use anydb_common::fxmap::FxHashMap;
use anydb_common::{Rid, TxnId};
use parking_lot::Mutex;

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A read that observed `version`.
    Read {
        /// Record read.
        rid: Rid,
        /// Version observed (0 = initial load).
        version: u64,
    },
    /// A write that produced `version` (always ≥ 1).
    Write {
        /// Record written.
        rid: Rid,
        /// Version created.
        version: u64,
    },
}

/// A thread-safe operation history.
#[derive(Debug, Default)]
pub struct History {
    ops: Mutex<Vec<(TxnId, Op)>>,
}

/// Why a history failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two distinct transactions produced the same version of one record:
    /// a lost update / racing write.
    ConflictingWrites {
        /// The record.
        rid: Rid,
        /// The duplicated version.
        version: u64,
    },
    /// The conflict graph has a cycle through these transactions.
    Cycle(Vec<TxnId>),
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read.
    pub fn record_read(&self, txn: TxnId, rid: Rid, version: u64) {
        self.ops.lock().push((txn, Op::Read { rid, version }));
    }

    /// Records a write.
    pub fn record_write(&self, txn: TxnId, rid: Rid, version: u64) {
        self.ops.lock().push((txn, Op::Write { rid, version }));
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convenience wrapper over [`History::check`].
    pub fn is_serializable(&self) -> bool {
        self.check().is_ok()
    }

    /// Checks conflict-serializability; returns the first violation found.
    pub fn check(&self) -> Result<(), Violation> {
        let ops = self.ops.lock().clone();

        // writer_of[(rid, version)] -> txn; readers_of[(rid, version)] -> txns
        let mut writer_of: FxHashMap<(u128, u64), TxnId> = FxHashMap::default();
        let mut readers_of: FxHashMap<(u128, u64), Vec<TxnId>> = FxHashMap::default();
        let mut max_version: FxHashMap<u128, u64> = FxHashMap::default();

        for (txn, op) in &ops {
            match op {
                Op::Write { rid, version } => {
                    let key = (rid.pack(), *version);
                    if let Some(prev) = writer_of.insert(key, *txn) {
                        if prev != *txn {
                            return Err(Violation::ConflictingWrites {
                                rid: *rid,
                                version: *version,
                            });
                        }
                    }
                    let m = max_version.entry(rid.pack()).or_insert(0);
                    *m = (*m).max(*version);
                }
                Op::Read { rid, version } => {
                    readers_of
                        .entry((rid.pack(), *version))
                        .or_default()
                        .push(*txn);
                }
            }
        }

        // Build adjacency.
        let mut edges: FxHashMap<TxnId, Vec<TxnId>> = FxHashMap::default();
        let mut add_edge = |from: TxnId, to: TxnId| {
            if from != to {
                edges.entry(from).or_default().push(to);
            }
        };

        for (&(rid, version), &writer) in &writer_of {
            // ww edge to the next version's writer.
            if let Some(&next_writer) = writer_of.get(&(rid, version + 1)) {
                add_edge(writer, next_writer);
            }
            // wr edges to readers of this version.
            if let Some(readers) = readers_of.get(&(rid, version)) {
                for &r in readers {
                    add_edge(writer, r);
                }
            }
        }
        for (&(rid, version), readers) in &readers_of {
            // rw anti-dependency to the overwriter.
            if let Some(&next_writer) = writer_of.get(&(rid, version + 1)) {
                for &r in readers {
                    add_edge(r, next_writer);
                }
            }
        }

        // Cycle detection: iterative three-color DFS.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut colors: FxHashMap<TxnId, Color> = FxHashMap::default();
        let nodes: Vec<TxnId> = edges.keys().copied().collect();
        for &start in &nodes {
            if colors.get(&start).copied().unwrap_or(Color::White) != Color::White {
                continue;
            }
            // Stack of (node, next child index).
            let mut stack: Vec<(TxnId, usize)> = vec![(start, 0)];
            colors.insert(start, Color::Gray);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let children = edges.get(&node).map(Vec::as_slice).unwrap_or(&[]);
                if *idx < children.len() {
                    let child = children[*idx];
                    *idx += 1;
                    match colors.get(&child).copied().unwrap_or(Color::White) {
                        Color::White => {
                            colors.insert(child, Color::Gray);
                            stack.push((child, 0));
                        }
                        Color::Gray => {
                            // Found a cycle: report the gray path suffix.
                            let mut cycle: Vec<TxnId> = stack
                                .iter()
                                .map(|(t, _)| *t)
                                .skip_while(|t| *t != child)
                                .collect();
                            cycle.push(child);
                            return Err(Violation::Cycle(cycle));
                        }
                        Color::Black => {}
                    }
                } else {
                    colors.insert(node, Color::Black);
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_common::{PartitionId, TableId};

    fn rid(slot: u32) -> Rid {
        Rid::new(TableId(0), PartitionId(0), slot)
    }

    #[test]
    fn empty_history_serializable() {
        assert!(History::new().is_serializable());
    }

    #[test]
    fn serial_execution_is_serializable() {
        let h = History::new();
        // T1: r(x,0) w(x,1); T2: r(x,1) w(x,2)
        h.record_read(TxnId(1), rid(0), 0);
        h.record_write(TxnId(1), rid(0), 1);
        h.record_read(TxnId(2), rid(0), 1);
        h.record_write(TxnId(2), rid(0), 2);
        assert!(h.is_serializable());
    }

    #[test]
    fn lost_update_cycle_detected() {
        let h = History::new();
        // Classic lost-update anomaly expressed through versions:
        // T1 reads v0 and writes v1; T2 also read v0 but writes v2.
        // T1 -> T2 (ww/wr chain) and T2 -> T1 (rw: T2 read v0, T1 wrote v1)
        h.record_read(TxnId(1), rid(0), 0);
        h.record_read(TxnId(2), rid(0), 0);
        h.record_write(TxnId(1), rid(0), 1);
        h.record_write(TxnId(2), rid(0), 2);
        let res = h.check();
        assert!(matches!(res, Err(Violation::Cycle(_))), "got {res:?}");
    }

    #[test]
    fn conflicting_writes_detected() {
        let h = History::new();
        h.record_write(TxnId(1), rid(0), 1);
        h.record_write(TxnId(2), rid(0), 1);
        assert_eq!(
            h.check(),
            Err(Violation::ConflictingWrites {
                rid: rid(0),
                version: 1
            })
        );
    }

    #[test]
    fn write_skew_style_cycle_detected() {
        let h = History::new();
        // T1 reads y (v0) then writes x (v1); T2 reads x (v0) then writes
        // y (v1). rw edges both ways -> cycle.
        h.record_read(TxnId(1), rid(1), 0);
        h.record_write(TxnId(1), rid(0), 1);
        h.record_read(TxnId(2), rid(0), 0);
        h.record_write(TxnId(2), rid(1), 1);
        assert!(!h.is_serializable());
    }

    #[test]
    fn disjoint_records_are_trivially_serializable() {
        let h = History::new();
        for t in 1..=8u64 {
            h.record_read(TxnId(t), rid(t as u32), 0);
            h.record_write(TxnId(t), rid(t as u32), 1);
        }
        assert!(h.is_serializable());
    }

    #[test]
    fn long_serial_chain_is_serializable() {
        let h = History::new();
        for t in 1..=100u64 {
            h.record_read(TxnId(t), rid(0), t - 1);
            h.record_write(TxnId(t), rid(0), t);
        }
        assert!(h.is_serializable());
        assert_eq!(h.len(), 200);
    }

    #[test]
    fn three_txn_cycle_detected() {
        let h = History::new();
        // T1 -> T2 on x, T2 -> T3 on y, T3 -> T1 on z.
        h.record_write(TxnId(1), rid(0), 1);
        h.record_read(TxnId(2), rid(0), 1); // T1 -> T2
        h.record_write(TxnId(2), rid(1), 1);
        h.record_read(TxnId(3), rid(1), 1); // T2 -> T3
        h.record_write(TxnId(3), rid(2), 1);
        // rw: T1 read z at v0 and T3 wrote z v1 gives T1 -> T3, which is
        // NOT a cycle (a genuine cycle needs T3 preceding T1; T3 reading
        // something T1 later overwrote is covered above via x). So this
        // particular chain is still acyclic:
        h.record_read(TxnId(1), rid(2), 0);
        assert!(h.is_serializable());

        // Now add the closing edge: T3 reads w v0, T1 writes w v1 -> T3->T1
        h.record_read(TxnId(3), rid(3), 0);
        h.record_write(TxnId(1), rid(3), 1);
        assert!(!h.is_serializable());
    }
}
