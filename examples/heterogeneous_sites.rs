//! Real OS-thread concurrency against the local DBMS engines: eight
//! client threads hammer two sites with different protocols through the
//! blocking [`ConcurrentSite`](mdbs::sim::runtime::ConcurrentSite) facade,
//! then the histories are audited.
//!
//! This demonstrates the substrate the simulator builds on: the engines are
//! synchronous state machines, and the runtime turns blocked operations
//! into parked threads.
//!
//! ```sh
//! cargo run --example heterogeneous_sites
//! ```

use mdbs::common::ids::{DataItemId, LocalTxnId, SiteId, TxnId};
use mdbs::localdb::protocol::LocalProtocolKind;
use mdbs::schedule::is_conflict_serializable;
use mdbs::sim::runtime::ConcurrentSite;
use std::thread;

#[expect(
    clippy::disallowed_methods,
    reason = "the example's main thread joins its clients; no scheduler runs here"
)]
fn hammer(site: ConcurrentSite, site_id: SiteId, clients: u64, ops: u64) -> (u64, u64) {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let site = site.clone();
            thread::spawn(move || {
                let mut commits = 0u64;
                let mut aborts = 0u64;
                for round in 0..ops {
                    let txn: TxnId = LocalTxnId {
                        site: site_id,
                        seq: c * 10_000 + round + 1,
                    }
                    .into();
                    if site.begin(txn).is_err() {
                        continue;
                    }
                    let item = DataItemId(1 + (c + round) % 4);
                    let ok = (|| -> Result<(), mdbs::common::MdbsError> {
                        let v = site.read(txn, item)?;
                        site.write(txn, item, v + 1)?;
                        site.commit(txn)?;
                        Ok(())
                    })();
                    match ok {
                        Ok(()) => commits += 1,
                        Err(_) => aborts += 1,
                    }
                }
                (commits, aborts)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .fold((0, 0), |(c, a), (dc, da)| (c + dc, a + da))
}

fn main() {
    println!("== Threaded clients against heterogeneous local DBMSs ==\n");
    for protocol in [
        LocalProtocolKind::TwoPhaseLocking,
        LocalProtocolKind::TimestampOrdering,
        LocalProtocolKind::SerializationGraphTesting,
        LocalProtocolKind::Optimistic,
    ] {
        let site_id = SiteId(0);
        let site = ConcurrentSite::new(site_id, protocol);
        let (commits, aborts) = hammer(site.clone(), site_id, 8, 25);
        let history = site.history();
        let serializable = is_conflict_serializable(&history);
        // Every committed increment survived: the sum over counters equals
        // the number of committed transactions.
        let total: i64 = (1..=4).map(|i| site.peek(DataItemId(i))).sum();
        println!(
            "{:<4}  commits={:>4} aborts={:>4}  counter-sum={:>4}  serializable={}",
            protocol.name(),
            commits,
            aborts,
            total,
            serializable
        );
        assert!(serializable, "{protocol}: local schedule must be CSR");
        assert_eq!(
            total as u64, commits,
            "{protocol}: increments must not be lost"
        );
    }
    println!("\nAll four protocols serialized 8 genuinely concurrent threads —");
    println!("no lost updates, histories conflict-serializable.");
}
