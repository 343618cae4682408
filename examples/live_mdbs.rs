//! The whole multidatabase on live OS threads: a GTM coordinator thread
//! and one thread per site, talking over channels — same state machines as
//! the simulator, real races. The run is audited for global
//! serializability afterwards.
//!
//! ```sh
//! cargo run --example live_mdbs
//! ```

use mdbs::prelude::*;
use mdbs::sim::threaded::ThreadedMdbs;
use mdbs::workload::generator::Workload;
use mdbs::workload::spec::WorkloadSpec;

fn main() {
    let spec = WorkloadSpec {
        sites: 4,
        global_txns: 40,
        avg_sites_per_txn: 2.5,
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 24,
        distribution: mdbs::workload::AccessDistribution::Uniform,
        local_txns_per_site: 0,
        ops_per_local_txn: 0,
        seed: 4242,
    };
    let programs = Workload::generate(&spec).globals;

    println!("== Live threaded MDBS (4 site threads + GTM thread) ==\n");
    for scheme in [SchemeKind::Scheme0, SchemeKind::Scheme3] {
        let runtime = ThreadedMdbs::new(
            vec![
                LocalProtocolKind::TwoPhaseLocking,
                LocalProtocolKind::TimestampOrdering,
                LocalProtocolKind::SerializationGraphTesting,
                LocalProtocolKind::Optimistic,
            ],
            scheme,
            6,
        );
        let report = runtime.run(programs.clone());
        println!(
            "{:<9}  commits={:>3} aborts={:>3}  serializable={}  ser(S)={}",
            scheme.name(),
            report.commits,
            report.aborts,
            report.is_serializable(),
            report.ser_s_ok,
        );
        assert!(report.is_serializable());
    }
    println!("\nBoth runs audited globally serializable under genuine thread");
    println!("interleaving — the schemes' guarantees don't depend on the");
    println!("simulator's determinism.");
}
