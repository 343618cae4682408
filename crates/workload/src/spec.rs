//! Workload specification.

use crate::distributions::AccessDistribution;
use mdbs_common::ids::{DataItemId, SiteId};
use mdbs_localdb::storage::Value;
use serde::{Deserialize, Serialize};

/// One operation of a purely local transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalOp {
    /// Read an item.
    Read(DataItemId),
    /// Write an item.
    Write(DataItemId, Value),
}

/// A purely local transaction's program. Local transactions are invisible
/// to the GTM (they enter through the local DBMS interface), which is
/// exactly how indirect conflicts arise.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalTxnProgram {
    /// Home site.
    pub site: SiteId,
    /// Operations (begin/commit implicit).
    pub ops: Vec<LocalOp>,
}

/// Declarative description of a randomized workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of sites (`m`).
    pub sites: usize,
    /// Number of global transactions to generate.
    pub global_txns: usize,
    /// Mean sites per global transaction (`d_av`).
    pub avg_sites_per_txn: f64,
    /// Accesses per subtransaction (per visited site).
    pub ops_per_subtxn: usize,
    /// Fraction of accesses that are reads.
    pub read_ratio: f64,
    /// Data items per site (excluding the ticket).
    pub items_per_site: u64,
    /// Access skew.
    pub distribution: AccessDistribution,
    /// Local transactions per site.
    pub local_txns_per_site: usize,
    /// Accesses per local transaction.
    pub ops_per_local_txn: usize,
    /// Seed for generation.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small, uniform default spec.
    pub fn small() -> Self {
        WorkloadSpec {
            sites: 4,
            global_txns: 16,
            avg_sites_per_txn: 2.0,
            ops_per_subtxn: 3,
            read_ratio: 0.5,
            items_per_site: 64,
            distribution: AccessDistribution::Uniform,
            local_txns_per_site: 8,
            ops_per_local_txn: 3,
            seed: 42,
        }
    }

    /// Validate the shape.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites == 0 {
            return Err("sites must be positive".into());
        }
        if !(1.0..=self.sites as f64).contains(&self.avg_sites_per_txn) {
            return Err("avg_sites_per_txn out of [1, sites]".into());
        }
        if self.items_per_site == 0 {
            return Err("items_per_site must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err("read_ratio out of [0,1]".into());
        }
        if self.ops_per_subtxn == 0 {
            return Err("ops_per_subtxn must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_is_valid() {
        assert_eq!(WorkloadSpec::small().validate(), Ok(()));
    }

    #[test]
    fn invalid_shapes_rejected() {
        let mut s = WorkloadSpec::small();
        s.sites = 0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::small();
        s.avg_sites_per_txn = 9.0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::small();
        s.read_ratio = 1.5;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::small();
        s.ops_per_subtxn = 0;
        assert!(s.validate().is_err());
    }
}
