//! Serialization functions (paper, Section 2.2).
//!
//! A serialization function for site `s_k` maps every transaction executing
//! there to one of its operations such that the order of those operations
//! in the local schedule is consistent with the local serialization order.
//! Which operation qualifies depends on the site's protocol:
//!
//! | protocol | serialization event | why |
//! |----------|--------------------|-----|
//! | TO       | `begin`            | timestamps are assigned at begin |
//! | strict 2PL | `commit`         | lies between last lock acquired and first released |
//! | BOCC     | `commit`           | validation/write phase = serialization point |
//! | SGT      | ticket write       | no natural event exists; conflicts are forced via the ticket (GRS91) |

use crate::protocol::LocalProtocolKind;

/// Which of a subtransaction's operations is its serialization event at a
/// given site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SerializationEvent {
    /// The subtransaction's `begin` operation.
    Begin,
    /// The subtransaction's `commit` operation.
    Commit,
    /// A forced read-modify-write of the site's ticket item, performed as
    /// the subtransaction's first data access.
    TicketWrite,
    /// The subtransaction's `prepare` operation (two-phase-commit mode):
    /// for strict 2PL it lies between last lock and first release like the
    /// commit; for optimistic protocols validation moves to the prepare,
    /// making it the serialization point.
    Prepare,
}

impl SerializationEvent {
    /// The serialization event used for a site running `kind`.
    pub fn for_protocol(kind: LocalProtocolKind) -> Self {
        match kind {
            LocalProtocolKind::TimestampOrdering => SerializationEvent::Begin,
            LocalProtocolKind::TwoPhaseLocking
            | LocalProtocolKind::TwoPhaseLockingWaitDie
            | LocalProtocolKind::TwoPhaseLockingWoundWait
            | LocalProtocolKind::Optimistic => SerializationEvent::Commit,
            LocalProtocolKind::SerializationGraphTesting => SerializationEvent::TicketWrite,
        }
    }

    /// The event to use for this protocol when the GTM runs two-phase
    /// commit: commit-event sites serialize at the prepare instead (the
    /// commit itself becomes an unconditional second phase).
    pub fn under_two_phase_commit(self) -> Self {
        match self {
            SerializationEvent::Commit => SerializationEvent::Prepare,
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_matches_paper() {
        assert_eq!(
            SerializationEvent::for_protocol(LocalProtocolKind::TimestampOrdering),
            SerializationEvent::Begin
        );
        assert_eq!(
            SerializationEvent::for_protocol(LocalProtocolKind::TwoPhaseLocking),
            SerializationEvent::Commit
        );
        assert_eq!(
            SerializationEvent::for_protocol(LocalProtocolKind::TwoPhaseLockingWaitDie),
            SerializationEvent::Commit
        );
        assert_eq!(
            SerializationEvent::for_protocol(LocalProtocolKind::TwoPhaseLockingWoundWait),
            SerializationEvent::Commit
        );
        assert_eq!(
            SerializationEvent::for_protocol(LocalProtocolKind::Optimistic),
            SerializationEvent::Commit
        );
        assert_eq!(
            SerializationEvent::for_protocol(LocalProtocolKind::SerializationGraphTesting),
            SerializationEvent::TicketWrite
        );
    }
}
