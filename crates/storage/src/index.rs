//! Hash and ordered indexes.
//!
//! * [`HashIndex`] — unique point-lookup index (primary keys),
//! * [`OrderedIndex`] — non-unique ordered index supporting range and
//!   prefix scans (e.g. the TPC-C customer last-name index).
//!
//! Indexes are sharded per partition by the owning [`crate::table::Table`],
//! so the locks here see contention only within one partition.

use anydb_common::fxmap::FxHashMap;
use anydb_common::{DbError, DbResult, Rid};
use parking_lot::RwLock;
use std::collections::BTreeMap;

use crate::key::IndexKey;

/// Declares a secondary index over a table.
#[derive(Debug, Clone)]
pub struct SecondaryIndexSpec {
    /// Name, for diagnostics (`cust_by_name`).
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Whether to build an ordered (BTree) index instead of a hash index.
    pub ordered: bool,
}

impl SecondaryIndexSpec {
    /// Hash secondary index.
    pub fn hash(name: impl Into<String>, columns: Vec<usize>) -> Self {
        Self {
            name: name.into(),
            columns,
            ordered: false,
        }
    }

    /// Ordered secondary index.
    pub fn ordered(name: impl Into<String>, columns: Vec<usize>) -> Self {
        Self {
            name: name.into(),
            columns,
            ordered: true,
        }
    }
}

/// A unique hash index.
#[derive(Default)]
pub struct HashIndex {
    map: RwLock<FxHashMap<IndexKey, Rid>>,
}

impl HashIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a unique mapping; duplicate keys are rejected.
    pub fn insert(&self, key: IndexKey, rid: Rid) -> DbResult<()> {
        let mut map = self.map.write();
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => Err(DbError::DuplicateKey(rid.table)),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(rid);
                Ok(())
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &IndexKey) -> Option<Rid> {
        self.map.read().get(key).copied()
    }

    /// Removes a mapping (index maintenance on key-changing updates).
    pub fn remove(&self, key: &IndexKey) -> Option<Rid> {
        self.map.write().remove(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A non-unique hash index (point lookups only).
#[derive(Default)]
pub struct MultiHashIndex {
    map: RwLock<FxHashMap<IndexKey, Vec<Rid>>>,
}

impl MultiHashIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a posting.
    pub fn insert(&self, key: IndexKey, rid: Rid) {
        self.map.write().entry(key).or_default().push(rid);
    }

    /// Removes one posting for `key` pointing at `rid`.
    pub fn remove(&self, key: &IndexKey, rid: Rid) -> bool {
        let mut map = self.map.write();
        if let Some(postings) = map.get_mut(key) {
            if let Some(pos) = postings.iter().position(|r| *r == rid) {
                postings.swap_remove(pos);
                if postings.is_empty() {
                    map.remove(key);
                }
                return true;
            }
        }
        false
    }

    /// All RIDs for exactly `key`.
    pub fn get(&self, key: &IndexKey) -> Vec<Rid> {
        self.map.read().get(key).cloned().unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }
}

/// A non-unique ordered index.
#[derive(Default)]
pub struct OrderedIndex {
    map: RwLock<BTreeMap<IndexKey, Vec<Rid>>>,
}

impl OrderedIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a posting.
    pub fn insert(&self, key: IndexKey, rid: Rid) {
        self.map.write().entry(key).or_default().push(rid);
    }

    /// Removes one posting for `key` pointing at `rid`.
    pub fn remove(&self, key: &IndexKey, rid: Rid) -> bool {
        let mut map = self.map.write();
        if let Some(postings) = map.get_mut(key) {
            if let Some(pos) = postings.iter().position(|r| *r == rid) {
                postings.swap_remove(pos);
                if postings.is_empty() {
                    map.remove(key);
                }
                return true;
            }
        }
        false
    }

    /// All RIDs for exactly `key`.
    pub fn get(&self, key: &IndexKey) -> Vec<Rid> {
        self.map.read().get(key).cloned().unwrap_or_default()
    }

    /// All RIDs in `[lo, hi]`, in key order.
    pub fn range(&self, lo: &IndexKey, hi: &IndexKey) -> Vec<Rid> {
        self.map
            .read()
            .range(lo.clone()..=hi.clone())
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{int_key, int_keys};
    use anydb_common::{PartitionId, TableId};

    fn rid(slot: u32) -> Rid {
        Rid::new(TableId(1), PartitionId(0), slot)
    }

    #[test]
    fn hash_index_unique() {
        let idx = HashIndex::new();
        idx.insert(int_key(1), rid(0)).unwrap();
        assert_eq!(idx.get(&int_key(1)), Some(rid(0)));
        assert_eq!(
            idx.insert(int_key(1), rid(1)),
            Err(DbError::DuplicateKey(TableId(1)))
        );
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(&int_key(1)), Some(rid(0)));
        assert!(idx.get(&int_key(1)).is_none());
    }

    #[test]
    fn hash_index_composite_keys() {
        let idx = HashIndex::new();
        idx.insert(int_keys(&[1, 2]), rid(0)).unwrap();
        idx.insert(int_keys(&[1, 3]), rid(1)).unwrap();
        assert_eq!(idx.get(&int_keys(&[1, 3])), Some(rid(1)));
        assert_eq!(idx.get(&int_keys(&[1, 4])), None);
    }

    #[test]
    fn ordered_index_postings() {
        let idx = OrderedIndex::new();
        idx.insert(int_key(5), rid(0));
        idx.insert(int_key(5), rid(1));
        idx.insert(int_key(7), rid(2));
        let mut got = idx.get(&int_key(5));
        got.sort();
        assert_eq!(got, vec![rid(0), rid(1)]);
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn ordered_index_range() {
        let idx = OrderedIndex::new();
        for i in 0..10 {
            idx.insert(int_key(i), rid(i as u32));
        }
        let got = idx.range(&int_key(3), &int_key(6));
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], rid(3));
        assert_eq!(got[3], rid(6));
    }

    #[test]
    fn ordered_index_remove() {
        let idx = OrderedIndex::new();
        idx.insert(int_key(1), rid(0));
        idx.insert(int_key(1), rid(1));
        assert!(idx.remove(&int_key(1), rid(0)));
        assert!(!idx.remove(&int_key(1), rid(0)));
        assert_eq!(idx.get(&int_key(1)), vec![rid(1)]);
        assert!(idx.remove(&int_key(1), rid(1)));
        assert_eq!(idx.key_count(), 0);
    }

    #[test]
    fn spec_constructors() {
        let h = SecondaryIndexSpec::hash("h", vec![1]);
        assert!(!h.ordered);
        let o = SecondaryIndexSpec::ordered("o", vec![1, 2]);
        assert!(o.ordered);
        assert_eq!(o.columns, vec![1, 2]);
    }
}
