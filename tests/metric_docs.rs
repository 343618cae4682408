//! README's Observability table is the list of metrics the runs register.
//!
//! Every engine — the DES, the live threaded runtime and the dense replay,
//! under each of the four schemes — exports its counters into an
//! `instrument::Registry`, and every `export_metrics` writes all of its
//! names, even at 0. This test merges those registries, folds per-site
//! names into the table's placeholder (`site.3.commits` and
//! `site.total.commits` are `site.<id>.commits`), and compares the result
//! with the table both ways: every registered name has a row of its one
//! kind, and every row names a metric some run registers. Names built with
//! `format!` are checked like literals. A name that only an unexercised
//! path registers is not seen.

use mdbs::common::instrument::Registry;
use mdbs::core::replay::{replay_with, Script};
use mdbs::core::{Gtm2, KernelKind};
use mdbs::prelude::*;
use mdbs::sim::ThreadedMdbs;
use std::collections::{BTreeMap, BTreeSet};

const README: &str = include_str!("../README.md");

/// Every registry the workspace's engines export, merged.
fn exported() -> Registry {
    let mut all = Registry::new();
    let protocols = [
        LocalProtocolKind::TwoPhaseLocking,
        LocalProtocolKind::TimestampOrdering,
    ];
    for scheme in SchemeKind::CONSERVATIVE {
        let config = SystemConfig::builder()
            .site(protocols[0])
            .site(protocols[1])
            .scheme(scheme)
            .seed(7)
            .mpl(4)
            .build();
        let des = MdbsSystem::new(config).run(Workload::uniform_smoke(2, 8));
        all.merge(&des.registry);

        let live = ThreadedMdbs::new(protocols.to_vec(), scheme, 4)
            .run(Workload::uniform_smoke(2, 8).globals);
        assert_eq!(
            live.registry.counter("threaded.send_dropped"),
            0,
            "{scheme}"
        );
        all.merge(&live.registry);

        let mut engine = Gtm2::new(scheme.build_kernel(KernelKind::Dense));
        replay_with(&mut engine, &Script::random(8, 3, 2.0, 7));
        engine.export_metrics(&mut all);
    }
    all
}

/// A registered name as the table writes it.
fn normalise(name: &str) -> String {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if let Some((id, metric)) = name.strip_prefix("site.").and_then(|r| r.split_once('.')) {
        if id == "total" || digits(id) {
            return format!("site.<id>.{metric}");
        }
    }
    name.to_string()
}

/// The Observability table's rows: name → kind.
fn documented(readme: &str) -> BTreeMap<&str, &str> {
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Observability\n"))
        .unwrap_or_default();
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|').map(str::trim);
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name, cells.next()?))
        })
        .collect()
}

/// Every disagreement between what `registry` holds and what `readme`'s
/// table documents, one line each, naming the metric.
fn mismatches(registry: &Registry, readme: &str) -> Vec<String> {
    let mut kinds: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    let counters = registry.counters().map(|(n, _)| (n, "counter"));
    let gauges = registry.gauges().map(|(n, _)| (n, "gauge"));
    let histograms = registry.histograms().map(|(n, _)| (n, "histogram"));
    for (name, kind) in counters.chain(gauges).chain(histograms) {
        kinds.entry(normalise(name)).or_default().insert(kind);
    }
    let rows = documented(readme);
    let mut out = Vec::new();
    if rows.is_empty() {
        out.push("README.md has no Observability metric table".to_string());
    }
    for (name, kinds) in &kinds {
        let registered = kinds.iter().copied().collect::<Vec<_>>().join(" and ");
        match rows.get(name.as_str()) {
            _ if kinds.len() > 1 => out.push(format!("`{name}` is registered as {registered}")),
            None => out.push(format!("`{name}` ({registered}) has no README row")),
            Some(&row) if row != registered => out.push(format!(
                "`{name}` is documented as {row} but registered as {registered}"
            )),
            Some(_) => {}
        }
    }
    for name in rows.keys().filter(|n| !kinds.contains_key(**n)) {
        out.push(format!("`{name}` has a README row but no run registers it"));
    }
    out
}

#[test]
fn readme_documents_exactly_the_exported_metrics() {
    let problems = mismatches(&exported(), README);
    assert!(problems.is_empty(), "{problems:#?}");
}

/// `README` with `find` replaced by `replace` (which must occur).
fn edited(find: &str, replace: &str) -> String {
    assert!(README.contains(find), "anchor drifted: {find:?}");
    README.replacen(find, replace, 1)
}

/// The three ways the table can drift, each seeded into the real inputs,
/// each reported alone and by name.
#[test]
fn seeded_drift_is_reported_by_name() {
    let real = exported();
    let mut undocumented = real.clone();
    undocumented.inc("threaded.never_documented", 1);
    let dropped = "| `threaded.send_dropped` | counter |";
    let unregistered = edited(
        dropped,
        &format!("| `threaded.never_registered` | counter | seeded |\n{dropped}"),
    );
    let retyped = edited(
        "| `gtm2.peak_wait` | gauge |",
        "| `gtm2.peak_wait` | counter |",
    );
    for (registry, readme, name) in [
        (&undocumented, README, "`threaded.never_documented`"),
        (&real, unregistered.as_str(), "`threaded.never_registered`"),
        (&real, retyped.as_str(), "`gtm2.peak_wait`"),
    ] {
        let problems = mismatches(registry, readme);
        assert!(
            problems.len() == 1 && problems[0].contains(name),
            "{name}: {problems:#?}"
        );
    }
}
