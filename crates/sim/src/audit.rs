//! Global-serializability auditing of simulator runs.
//!
//! Thin wrapper over [`mdbs_schedule::global`]: collect every site's
//! recorded local schedule and check the quotient serialization graph.

use mdbs_localdb::engine::LocalDbms;
use mdbs_schedule::global::{check_global, GlobalSerializability};

/// Audit a set of local DBMSs for global serializability of everything
/// they executed.
pub fn audit_sites<'a>(sites: impl IntoIterator<Item = &'a LocalDbms>) -> GlobalSerializability {
    check_global(sites.into_iter().map(|db| (db.site(), db.history())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
    use mdbs_localdb::protocol::LocalProtocolKind;

    #[test]
    fn audit_empty_sites_serializable() {
        let sites = vec![LocalDbms::new(
            SiteId(0),
            LocalProtocolKind::TwoPhaseLocking,
        )];
        assert!(audit_sites(&sites).is_serializable());
    }

    #[test]
    fn audit_detects_cross_site_inversion() {
        let mut s0 = LocalDbms::new(SiteId(0), LocalProtocolKind::TwoPhaseLocking);
        let mut s1 = LocalDbms::new(SiteId(1), LocalProtocolKind::TwoPhaseLocking);
        let (g1, g2) = (GlobalTxnId(1), GlobalTxnId(2));
        let x = DataItemId(1);
        // Site 0: G1 before G2.
        s0.begin(g1.into()).unwrap();
        s0.submit_write(g1.into(), x, 1).unwrap();
        s0.submit_commit(g1.into()).unwrap();
        s0.begin(g2.into()).unwrap();
        s0.submit_read(g2.into(), x).unwrap();
        s0.submit_commit(g2.into()).unwrap();
        // Site 1: G2 before G1.
        s1.begin(g2.into()).unwrap();
        s1.submit_write(g2.into(), x, 2).unwrap();
        s1.submit_commit(g2.into()).unwrap();
        s1.begin(g1.into()).unwrap();
        s1.submit_read(g1.into(), x).unwrap();
        s1.submit_commit(g1.into()).unwrap();
        assert!(!audit_sites(&[s0, s1]).is_serializable());
    }
}
