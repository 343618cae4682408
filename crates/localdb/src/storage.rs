//! In-memory storage with undo support.
//!
//! One [`Storage`] instance backs one site. Values are signed integers
//! (enough for the banking/inventory example domains while keeping
//! histories easy to assert on). Immediate-write protocols (2PL, TO, SGT)
//! write through and rely on per-transaction undo logs kept by the engine;
//! the optimistic protocol defers writes into buffers the engine applies at
//! commit.
//!
//! The items live in an [`IdHashMap`], so a read or a write is one hash
//! probe. Its keys are the workload's item ids, not input an adversary
//! chooses, which is the condition [`IdHasher`](mdbs_common::dense::IdHasher)
//! sets. Its order is never read: [`Storage::iter`] and the `Debug` output
//! sort by item, and [`Storage::data_total`] is a sum.

use mdbs_common::dense::IdHashMap;
use mdbs_common::ids::DataItemId;

/// The value type stored under every data item.
pub type Value = i64;

/// A site's database: a map from data item to value. Missing items read as
/// the default value `0`, so workloads need no explicit schema loading.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Storage {
    items: IdHashMap<DataItemId, Value>,
}

impl Storage {
    /// Empty storage (all items implicitly 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Read an item (0 if never written).
    pub fn read(&self, item: DataItemId) -> Value {
        self.items.get(&item).copied().unwrap_or(0)
    }

    /// Write an item, returning the previous value (for undo logs).
    pub fn write(&mut self, item: DataItemId, value: Value) -> Value {
        self.items.insert(item, value).unwrap_or(0)
    }

    /// Number of explicitly materialized items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff no item was ever written or pre-populated.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sum of all application values — used by invariant checks such as
    /// conservation of money across accounts. The ticket item is left
    /// out: its counter is concurrency-control plumbing, not data.
    pub fn data_total(&self) -> i128 {
        #[expect(
            clippy::disallowed_methods,
            reason = "an integer sum does not depend on the order it is taken in."
        )]
        self.items
            .iter()
            .filter(|(&item, _)| item != DataItemId::TICKET)
            .map(|(_, &v)| i128::from(v))
            .sum()
    }

    /// Iterate `(item, value)` pairs in item order. Collects and sorts, so
    /// it is for checks and reports, not for an operation's path.
    pub fn iter(&self) -> impl Iterator<Item = (DataItemId, Value)> + '_ {
        #[expect(clippy::disallowed_methods, reason = "collected, then sorted by item.")]
        let mut items: Vec<(DataItemId, Value)> =
            self.items.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        items.into_iter()
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_of_unwritten_item_is_zero() {
        let s = Storage::new();
        assert_eq!(s.read(DataItemId(42)), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn write_returns_previous() {
        let mut s = Storage::new();
        assert_eq!(s.write(DataItemId(1), 10), 0);
        assert_eq!(s.write(DataItemId(1), 20), 10);
        assert_eq!(s.read(DataItemId(1)), 20);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_ordered() {
        let mut s = Storage::new();
        s.write(DataItemId(5), 5);
        s.write(DataItemId(1), 1);
        let items: Vec<_> = s.iter().collect();
        assert_eq!(items, vec![(DataItemId(1), 1), (DataItemId(5), 5)]);
    }
}
