//! Versioned rows.

use anydb_common::Tuple;

/// A stored row: the tuple plus a version counter bumped on every update.
///
/// Versions serve two purposes: serializability checking in tests
/// (`anydb_txn::history`) and cheap change detection for secondary-index
/// maintenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    tuple: Tuple,
    version: u64,
}

impl Row {
    /// A fresh row at version 0.
    pub fn new(tuple: Tuple) -> Self {
        Self { tuple, version: 0 }
    }

    /// The current tuple.
    #[inline]
    pub fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    /// The current version.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies a mutation, bumping the version. Returns the new version.
    pub fn update(&mut self, f: impl FnOnce(&mut Tuple)) -> u64 {
        f(&mut self.tuple);
        self.version += 1;
        self.version
    }

    /// Replaces the tuple wholesale (recovery replay), bumping the version.
    pub fn replace(&mut self, tuple: Tuple) -> u64 {
        self.tuple = tuple;
        self.version += 1;
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_common::Value;

    #[test]
    fn update_bumps_version() {
        let mut r = Row::new(Tuple::new(vec![Value::Int(1)]));
        assert_eq!(r.version(), 0);
        let v = r.update(|t| {
            t.set(0, Value::Int(2));
        });
        assert_eq!(v, 1);
        assert_eq!(r.tuple().get(0), &Value::Int(2));
    }

    #[test]
    fn replace_bumps_version() {
        let mut r = Row::new(Tuple::new(vec![Value::Int(1)]));
        r.replace(Tuple::new(vec![Value::Int(9)]));
        assert_eq!(r.version(), 1);
        assert_eq!(r.tuple().get(0), &Value::Int(9));
    }
}
