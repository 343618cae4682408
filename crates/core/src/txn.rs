//! Global transactions and their per-site programs.

use mdbs_common::ids::{DataItemId, GlobalTxnId, SiteId};
use mdbs_localdb::storage::Value;

/// What a single step of a global transaction does at its target site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Begin the subtransaction at the site.
    Begin,
    /// Read a data item.
    Read(DataItemId),
    /// Write a data item.
    Write(DataItemId, Value),
    /// Add `delta` to a data item (read-modify-write). Used by example
    /// workloads (transfers, inventory decrements); GTM1 executes it as a
    /// read followed by a write of the adjusted value.
    Add(DataItemId, Value),
    /// Commit the subtransaction at the site.
    Commit,
}

/// One sequential step of a global transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Target site.
    pub site: SiteId,
    /// Action at that site.
    pub kind: StepKind,
}

impl Step {
    /// Convenience constructor.
    pub fn new(site: SiteId, kind: StepKind) -> Self {
        Step { site, kind }
    }
}

/// A global transaction: a totally ordered list of steps spanning one or
/// more sites. GTM1 executes the steps in order, one outstanding at a time
/// (the paper's submission rule), inserting serialization events where the
/// site's protocol requires them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalTransaction {
    /// Identifier.
    pub id: GlobalTxnId,
    /// The program.
    pub steps: Vec<Step>,
}

impl GlobalTransaction {
    /// Create a transaction, validating the program shape (see
    /// [`GlobalTransaction::validate`]).
    pub fn new(id: GlobalTxnId, steps: Vec<Step>) -> Result<Self, String> {
        let gt = GlobalTransaction { id, steps };
        gt.validate()?;
        Ok(gt)
    }

    /// Check the program shape: per site exactly one `Begin` (first step at
    /// that site) and one `Commit` (last step at that site), with accesses
    /// in between. The fields are public, so a program built as a struct
    /// literal skips [`GlobalTransaction::new`]; GTM1 checks again at
    /// admission.
    pub fn validate(&self) -> Result<(), String> {
        let id = self.id;
        if self.steps.is_empty() {
            return Err(format!("{id}: empty program"));
        }
        for (i, step) in self.steps.iter().enumerate() {
            // The site's phase is its previous step's: none yet (fresh), a
            // begin or an access (active), a commit (done). Programs are a
            // handful of steps, so the backward scan costs less than a map.
            let site = step.site;
            let before = self.steps.iter().take(i).rev().find(|s| s.site == site);
            let active = before.is_some_and(|s| s.kind != StepKind::Commit);
            match step.kind {
                StepKind::Begin if before.is_some() => {
                    return Err(format!("{id}: duplicate begin at {site}"));
                }
                StepKind::Read(_) | StepKind::Write(..) | StepKind::Add(..) if !active => {
                    return Err(format!("{id}: access outside begin/commit at {site}"));
                }
                StepKind::Commit if !active => {
                    return Err(format!("{id}: commit without begin at {site}"));
                }
                StepKind::Begin
                | StepKind::Read(_)
                | StepKind::Write(..)
                | StepKind::Add(..)
                | StepKind::Commit => {}
            }
        }
        // The lowest site whose last step is not its commit.
        let open = self
            .steps
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                s.kind != StepKind::Commit
                    && !self.steps.iter().skip(i + 1).any(|t| t.site == s.site)
            })
            .map(|(_, s)| s.site)
            .min();
        match open {
            Some(site) => Err(format!("{id}: subtransaction at {site} never commits")),
            None => Ok(()),
        }
    }

    /// Builder: start a program.
    pub fn builder(id: GlobalTxnId) -> GlobalTxnBuilder {
        GlobalTxnBuilder {
            id,
            steps: Vec::new(),
        }
    }

    /// The distinct sites this transaction executes at, ascending. This is
    /// the site set announced in `init_i` (the contents of `Ĝ_i`).
    pub fn sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self.steps.iter().map(|s| s.site).collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// `d_i` — the number of sites, i.e. the number of operations of `Ĝ_i`.
    pub fn degree(&self) -> usize {
        self.sites().len()
    }
}

/// Builder for [`GlobalTransaction`] programs that handles per-site
/// begin/commit bracketing automatically.
#[derive(Clone, Debug)]
pub struct GlobalTxnBuilder {
    id: GlobalTxnId,
    steps: Vec<Step>,
}

impl GlobalTxnBuilder {
    fn ensure_begun(&mut self, site: SiteId) {
        let begun = self.steps.iter().any(|s| s.site == site);
        if !begun {
            self.steps.push(Step::new(site, StepKind::Begin));
        }
    }

    /// Append a read at `site`.
    pub fn read(mut self, site: SiteId, item: DataItemId) -> Self {
        self.ensure_begun(site);
        self.steps.push(Step::new(site, StepKind::Read(item)));
        self
    }

    /// Append a write at `site`.
    pub fn write(mut self, site: SiteId, item: DataItemId, value: Value) -> Self {
        self.ensure_begun(site);
        self.steps
            .push(Step::new(site, StepKind::Write(item, value)));
        self
    }

    /// Append a read-modify-write adding `delta` at `site`.
    pub fn add(mut self, site: SiteId, item: DataItemId, delta: Value) -> Self {
        self.ensure_begun(site);
        self.steps.push(Step::new(site, StepKind::Add(item, delta)));
        self
    }

    /// Finish: appends a commit per begun site (in site order) and
    /// validates.
    pub fn build(mut self) -> Result<GlobalTransaction, String> {
        let mut sites: Vec<SiteId> = self.steps.iter().map(|s| s.site).collect();
        sites.sort_unstable();
        sites.dedup();
        for site in sites {
            self.steps.push(Step::new(site, StepKind::Commit));
        }
        GlobalTransaction::new(self.id, self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    fn x(i: u64) -> DataItemId {
        DataItemId(i)
    }

    #[test]
    fn builder_brackets_sites() {
        let t = GlobalTransaction::builder(GlobalTxnId(1))
            .read(s(0), x(1))
            .write(s(1), x(2), 5)
            .read(s(0), x(3))
            .build()
            .unwrap();
        assert_eq!(t.sites(), vec![s(0), s(1)]);
        assert_eq!(t.degree(), 2);
        // One begin and one commit per site.
        let begins = t
            .steps
            .iter()
            .filter(|st| st.kind == StepKind::Begin)
            .count();
        let commits = t
            .steps
            .iter()
            .filter(|st| st.kind == StepKind::Commit)
            .count();
        assert_eq!(begins, 2);
        assert_eq!(commits, 2);
    }

    #[test]
    fn validation_rejects_access_after_commit() {
        let bad = vec![
            Step::new(s(0), StepKind::Begin),
            Step::new(s(0), StepKind::Commit),
            Step::new(s(0), StepKind::Read(x(1))),
        ];
        assert!(GlobalTransaction::new(GlobalTxnId(1), bad).is_err());
    }

    #[test]
    fn validation_rejects_missing_commit() {
        let bad = vec![
            Step::new(s(0), StepKind::Begin),
            Step::new(s(0), StepKind::Read(x(1))),
        ];
        assert!(GlobalTransaction::new(GlobalTxnId(1), bad).is_err());
    }

    #[test]
    fn validation_rejects_empty() {
        assert!(GlobalTransaction::new(GlobalTxnId(1), vec![]).is_err());
    }

    #[test]
    fn validation_rejects_duplicate_begin() {
        let bad = vec![
            Step::new(s(0), StepKind::Begin),
            Step::new(s(0), StepKind::Begin),
            Step::new(s(0), StepKind::Commit),
        ];
        assert!(GlobalTransaction::new(GlobalTxnId(1), bad).is_err());
    }
}
