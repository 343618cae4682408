//! Serde round-trips for every serializable public type in the common
//! vocabulary (configs and results are persisted by the experiment
//! harness; silent format drift would corrupt provenance files).

use mdbs_common::ids::{DataItemId, GlobalTxnId, LocalTxnId, SiteId, TxnId};
use mdbs_common::ops::{DataOp, QueueOp};
use mdbs_common::step::StepCounter;
use proptest::prelude::*;

fn roundtrip<
    T: serde::Serialize + for<'de> serde::Deserialize<'de> + PartialEq + std::fmt::Debug,
>(
    value: &T,
) {
    let json = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&back, value, "round-trip mismatch for {json}");
}

#[test]
fn ids_roundtrip() {
    roundtrip(&SiteId(7));
    roundtrip(&GlobalTxnId(42));
    roundtrip(&LocalTxnId {
        site: SiteId(3),
        seq: 9,
    });
    roundtrip(&TxnId::Global(GlobalTxnId(1)));
    roundtrip(&TxnId::Local(LocalTxnId {
        site: SiteId(0),
        seq: 2,
    }));
    roundtrip(&DataItemId::TICKET);
}

#[test]
fn ops_roundtrip() {
    roundtrip(&DataOp::read(GlobalTxnId(1), DataItemId(5)));
    roundtrip(&DataOp::commit(GlobalTxnId(2)));
    roundtrip(&QueueOp::Init {
        txn: GlobalTxnId(1),
        sites: vec![SiteId(0), SiteId(1)],
    });
    roundtrip(&QueueOp::Ser {
        txn: GlobalTxnId(1),
        site: SiteId(0),
    });
    roundtrip(&QueueOp::Ack {
        txn: GlobalTxnId(1),
        site: SiteId(0),
    });
    roundtrip(&QueueOp::Fin {
        txn: GlobalTxnId(1),
    });
}

#[test]
fn steps_roundtrip() {
    roundtrip(&StepCounter {
        cond: 1,
        act: 2,
        wait_scan: 3,
    });
}

proptest! {
    #[test]
    fn arbitrary_txn_ids_roundtrip(g in any::<u64>(), site in any::<u32>(), seq in any::<u64>()) {
        roundtrip(&TxnId::Global(GlobalTxnId(g)));
        roundtrip(&TxnId::Local(LocalTxnId { site: SiteId(site), seq }));
    }

    #[test]
    fn arbitrary_queue_ops_roundtrip(t in any::<u64>(), s in any::<u32>()) {
        roundtrip(&QueueOp::Ser { txn: GlobalTxnId(t), site: SiteId(s) });
    }
}
