//! Strongly typed identifiers.
//!
//! The paper's model has sites `s_1 .. s_m`, global transactions `G_i`
//! (which execute subtransactions at several sites) and local transactions
//! (which execute at exactly one site, outside the GTM's knowledge). Each
//! gets its own newtype; [`TxnId`] is the sum type used wherever a local
//! DBMS does not care about the distinction — the paper's point being that
//! local DBMSs *cannot* distinguish global subtransactions from local
//! transactions.

use std::fmt;

/// Identifier of a local DBMS site (`s_k` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Index usable for dense per-site arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a global transaction (`G_i` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalTxnId(pub u64);

impl fmt::Debug for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl fmt::Display for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Identifier of a purely local transaction, unique within its site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalTxnId {
    /// Site the transaction runs at.
    pub site: SiteId,
    /// Per-site sequence number.
    pub seq: u64,
}

impl fmt::Debug for LocalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}@{}", self.seq, self.site)
    }
}

impl fmt::Display for LocalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}@{}", self.seq, self.site)
    }
}

/// A transaction as seen by a local DBMS: either the subtransaction of a
/// global transaction, or a purely local transaction.
///
/// Local DBMSs treat both identically (the paper's autonomy assumption); the
/// distinction only matters to the serializability *auditor*, which must
/// collapse all subtransactions of one global transaction into a single node
/// of the global serialization graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnId {
    /// Subtransaction of global transaction `G_i` (site is implied by the
    /// local DBMS holding the id).
    Global(GlobalTxnId),
    /// Purely local transaction.
    Local(LocalTxnId),
}

impl TxnId {
    /// Returns the global transaction id if this is a global subtransaction.
    #[inline]
    pub fn as_global(self) -> Option<GlobalTxnId> {
        match self {
            TxnId::Global(g) => Some(g),
            TxnId::Local(_) => None,
        }
    }

    /// True iff this is the subtransaction of a global transaction.
    #[inline]
    pub fn is_global(self) -> bool {
        matches!(self, TxnId::Global(_))
    }
}

impl From<GlobalTxnId> for TxnId {
    fn from(g: GlobalTxnId) -> Self {
        TxnId::Global(g)
    }
}

impl From<LocalTxnId> for TxnId {
    fn from(l: LocalTxnId) -> Self {
        TxnId::Local(l)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnId::Global(g) => write!(f, "{g:?}"),
            TxnId::Local(l) => write!(f, "{l:?}"),
        }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnId::Global(g) => write!(f, "{g}"),
            TxnId::Local(l) => write!(f, "{l}"),
        }
    }
}

/// Identifier of a data item within one site's database.
///
/// Data items are site-local in an MDBS: the same `DataItemId` at two
/// different sites names two unrelated items. Item 0 at every site is
/// reserved by convention for the *ticket* (Section 2.2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItemId(pub u64);

impl DataItemId {
    /// The distinguished ticket item used to force conflicts at sites whose
    /// protocol admits no natural serialization function (e.g. SGT).
    pub const TICKET: DataItemId = DataItemId(0);

    /// Index usable for dense per-item arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == DataItemId::TICKET {
            write!(f, "ticket")
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

impl fmt::Display for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::IdHasher;
    use std::collections::HashSet;
    use std::hash::BuildHasherDefault;

    #[test]
    fn txn_id_projections() {
        let g = GlobalTxnId(7);
        let l = LocalTxnId {
            site: SiteId(2),
            seq: 4,
        };
        let tg: TxnId = g.into();
        let tl: TxnId = l.into();
        assert_eq!(tg.as_global(), Some(g));
        assert_eq!(tl.as_global(), None);
        assert!(tg.is_global());
        assert!(!tl.is_global());
    }

    #[test]
    fn display_forms() {
        assert_eq!(SiteId(3).to_string(), "s3");
        assert_eq!(GlobalTxnId(12).to_string(), "G12");
        assert_eq!(
            LocalTxnId {
                site: SiteId(1),
                seq: 9
            }
            .to_string(),
            "L9@s1"
        );
        assert_eq!(DataItemId::TICKET.to_string(), "ticket");
        assert_eq!(DataItemId(5).to_string(), "x5");
    }

    #[test]
    fn ids_hash_distinctly() {
        let mut set: HashSet<TxnId, BuildHasherDefault<IdHasher>> = HashSet::default();
        set.insert(TxnId::from(GlobalTxnId(1)));
        set.insert(TxnId::from(LocalTxnId {
            site: SiteId(0),
            seq: 1,
        }));
        set.insert(TxnId::from(LocalTxnId {
            site: SiteId(1),
            seq: 1,
        }));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn ticket_is_item_zero() {
        assert_eq!(DataItemId::TICKET, DataItemId(0));
        assert_ne!(DataItemId::TICKET, DataItemId(1));
    }
}
