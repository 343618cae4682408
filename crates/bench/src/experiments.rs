//! The experiments. Each `exp_*` function regenerates one table family of
//! `EXPERIMENTS.md`; `all()` enumerates them for the CLI. A family that
//! checks a claim of the paper ends with an `EXP-…: verdicts` table
//! (`claim | result | witness`), judged from the numbers it prints.

use crate::tables::{f1, f2, Table};
use mdbs_common::ids::{GlobalTxnId, SiteId};
use mdbs_common::rng::derive_rng;
use mdbs_common::step::StepCounter;
use mdbs_core::gtm2::Gtm2;
use mdbs_core::reference::tsgd::{eliminate_cycles, minimal_delta_exact, Tsgd};
use mdbs_core::replay::{replay, replay_with, ReplayOutcome, Script};
use mdbs_core::scheme::{FullRescan, SchemeKind};
// Short names for the local protocols, as the tables' site mixes spell them.
use mdbs_localdb::protocol::LocalProtocolKind::{
    self, Optimistic as Occ, SerializationGraphTesting as Sgt, TimestampOrdering as To,
    TwoPhaseLocking as Tpl, TwoPhaseLockingWaitDie as Wd, TwoPhaseLockingWoundWait as Ww,
};
use mdbs_schedule::DiGraph;
use mdbs_sim::system::{MdbsSystem, SystemConfig};
use mdbs_workload::distributions::AccessDistribution;
use mdbs_workload::generator::Workload;
use mdbs_workload::spec::WorkloadSpec;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::time::Instant;

/// An experiment entry: id and the function regenerating its tables.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// All experiments, in presentation order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("exp-gs", exp_gs as fn() -> Vec<Table>),
        ("exp-ind", exp_ind),
        ("exp-c0", exp_c0),
        ("exp-c1", exp_c1),
        ("exp-c2", exp_c2),
        ("exp-c3", exp_c3),
        ("exp-np", exp_np),
        ("exp-doc", exp_doc),
        ("exp-all", exp_all),
        ("exp-opt", exp_opt),
        ("exp-ab", exp_ab),
        ("exp-amrt", exp_amrt),
        ("exp-e2e", exp_e2e),
        ("exp-2pc", exp_2pc),
        ("exp-crash", exp_crash),
        ("exp-wait", exp_wait),
        ("exp-sg", exp_sg),
        ("exp-tkt", exp_tkt),
    ]
}

fn base_spec(sites: usize, globals: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        sites,
        global_txns: globals,
        avg_sites_per_txn: 2.0_f64.min(sites as f64),
        ops_per_subtxn: 2,
        read_ratio: 0.5,
        items_per_site: 16,
        distribution: AccessDistribution::Uniform,
        local_txns_per_site: 3,
        ops_per_local_txn: 2,
        seed,
    }
}

fn run_sim(
    protocols: &[LocalProtocolKind],
    scheme: SchemeKind,
    spec: &WorkloadSpec,
    mpl: usize,
) -> mdbs_sim::RunReport {
    let mut b = SystemConfig::builder()
        .scheme(scheme)
        .seed(spec.seed)
        .mpl(mpl);
    for &p in protocols {
        b = b.site(p);
    }
    MdbsSystem::new(b.build()).run(Workload::generate(spec))
}

/// A family's verdict table: one row per claim of the paper it checks,
/// `HOLDS` or `VIOLATED`, and the numbers it was judged on.
fn verdicts(family: &str, claims: Vec<(&str, bool, String)>) -> Table {
    let mut table = Table::new(
        format!("{family}: verdicts"),
        &["claim", "result", "witness"],
    );
    for (claim, holds, witness) in claims {
        let result = if holds { "HOLDS" } else { "VIOLATED" };
        table.row(vec![claim.into(), result.into(), witness]);
    }
    table
}

/// A conservative replay that breaks Theorems 3, 5 and 8: it aborts, leaves
/// a transaction unfinished or records a non-serializable `ser(S)`.
fn broken(out: &ReplayOutcome, n: usize) -> bool {
    !out.aborted.is_empty() || out.completed != n || !out.ser_serializable
}

/// "`bad` of `total` `what`", naming the first counter-example if any.
fn tally(bad: u64, total: u64, what: &str, first: Option<String>) -> String {
    let first = first.map(|first| format!(" (first: {first})"));
    format!("{bad} of {total} {what}{}", first.unwrap_or_default())
}

// ---------------------------------------------------------------------
// EXP-GS — Theorems 1/2/3/5/8: global serializability end to end
// ---------------------------------------------------------------------

/// Global serializability across protocol mixes, schemes and seeds.
pub fn exp_gs() -> Vec<Table> {
    let mixes = [
        ("2PL x3", vec![Tpl; 3]),
        ("TO x3", vec![To; 3]),
        ("OCC x3", vec![Occ; 3]),
        ("SGT x3 (tickets)", vec![Sgt; 3]),
        ("2PL/TO/OCC/SGT", vec![Tpl, To, Occ, Sgt]),
        ("2PL/2PL-WD/2PL-WW", vec![Tpl, Wd, Ww]),
    ];
    let seeds: Vec<u64> = (0..5).collect();
    let mut table = Table::new(
        "EXP-GS: globally serializable runs / total (5 seeds, 14 global txns, local load)",
        &["site mix", "Scheme 0", "Scheme 1", "Scheme 2", "Scheme 3"],
    );
    for (name, mix) in &mixes {
        let mut cells = vec![name.to_string()];
        for scheme in SchemeKind::CONSERVATIVE {
            let mut ok = 0;
            for &seed in &seeds {
                let spec = base_spec(mix.len(), 14, 1000 + seed);
                let report = run_sim(mix, scheme, &spec, 5);
                if report.is_serializable() && report.ser_s_ok {
                    ok += 1;
                }
            }
            cells.push(format!("{ok}/{}", seeds.len()));
        }
        table.row(cells);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-IND — Section 1: indirect conflicts break a naive GTM
// ---------------------------------------------------------------------

/// A naive GTM lets each site order global transactions independently;
/// the schemes force consistency. Measures the violation rate.
pub fn exp_ind() -> Vec<Table> {
    let (n, m, dav, runs) = (8usize, 3usize, 2.0f64, 200u64);
    // Naive model: per-site serialization orders are independent random
    // permutations of the transactions visiting the site (exactly what an
    // uncontrolled execution admits, with indirect conflicts pinning every
    // relative order).
    let mut naive_violations = 0u64;
    for seed in 0..runs {
        let mut rng = derive_rng(seed, "exp-ind");
        let script = Script::random(n, m, dav, seed);
        // Collect per-txn site sets from the script.
        let mut site_txns = BTreeMap::<SiteId, Vec<GlobalTxnId>>::new();
        for ev in &script.events {
            if let mdbs_core::replay::ScriptEvent::Init(txn, sites) = ev {
                for &s in sites {
                    site_txns.entry(s).or_default().push(*txn);
                }
            }
        }
        let mut g: DiGraph<GlobalTxnId> = DiGraph::new();
        for txns in site_txns.values_mut() {
            txns.shuffle(&mut rng);
            for i in 0..txns.len() {
                for j in (i + 1)..txns.len() {
                    g.add_edge(txns[i], txns[j]);
                }
            }
        }
        if g.has_cycle() {
            naive_violations += 1;
        }
    }
    let mut table = Table::new(
        format!("EXP-IND: non-serializable executions out of {runs} (n={n}, m={m}, d_av={dav})"),
        &["scheduler", "violations", "rate"],
    );
    let mut row = |name: &str, violations: u64| {
        let rate = f1(100.0 * violations as f64 / runs as f64) + "%";
        table.row(vec![name.into(), violations.to_string(), rate]);
    };
    row("naive (uncontrolled)", naive_violations);
    let (mut broken_runs, mut first_broken) = (0u64, None);
    for scheme in SchemeKind::CONSERVATIVE {
        let mut violations = 0u64;
        for seed in 0..runs {
            let out = replay(scheme, &Script::random(n, m, dav, seed));
            violations += u64::from(!out.ser_serializable);
            if broken(&out, n) {
                broken_runs += 1;
                first_broken.get_or_insert(format!("{scheme}, seed {seed}"));
            }
        }
        row(scheme.name(), violations);
    }
    let replays = SchemeKind::CONSERVATIVE.len() as u64 * runs;
    let claims = verdicts(
        "EXP-IND",
        vec![(
            "Schemes 0-3 complete every transaction, abort none, keep ser(S) serializable",
            broken_runs == 0,
            tally(broken_runs, replays, "runs", first_broken),
        )],
    );
    vec![table, claims]
}

// ---------------------------------------------------------------------
// EXP-C0..C3 — complexity scaling in abstract steps
// ---------------------------------------------------------------------

/// `kind` over `seeds` scripts `Script::random(n, m, dav, 7000..)`: the
/// mean steps per transaction, peak active transactions, and the steps per
/// transaction split into `[cond, act, wait_scan]`.
fn steps_per_txn(
    kind: SchemeKind,
    n: usize,
    m: usize,
    dav: f64,
    seeds: u64,
) -> (f64, f64, [f64; 3]) {
    let (mut total, mut peak, mut split) = (0.0, 0.0, [0.0; 3]);
    for seed in 0..seeds {
        let script = Script::random(n, m, dav, 7000 + seed);
        let out = replay(kind, &script);
        total += out.steps.total() as f64 / n as f64;
        peak += out.stats.peak_active as f64;
        let steps = [out.steps.cond, out.steps.act, out.steps.wait_scan];
        for (sum, part) in split.iter_mut().zip(steps) {
            *sum += part as f64 / n as f64;
        }
    }
    let mean = |sum: f64| sum / seeds as f64;
    (mean(total), mean(peak), split.map(mean))
}

/// Scheme 0: steps per transaction vs d_av and vs n (Section 4: O(d_av),
/// independent of n).
pub fn exp_c0() -> Vec<Table> {
    let mut by_d = Table::new(
        "EXP-C0a: Scheme 0 steps/txn vs d_av (expect linear; n=48, m=8)",
        &["d_av", "steps/txn", "steps/(txn*d_av)"],
    );
    let mut spt_at = Vec::new();
    for dav10 in [10u64, 20, 30, 40, 60, 80] {
        let dav = dav10 as f64 / 10.0;
        let (spt, _, _) = steps_per_txn(SchemeKind::Scheme0, 48, 8, dav, 3);
        by_d.row(vec![f1(dav), f1(spt), f2(spt / dav)]);
        spt_at.push((dav10, spt));
    }
    let mut by_n = Table::new(
        "EXP-C0b: Scheme 0 steps/txn vs n (expect flat; m=8, d_av=2)",
        &["n", "steps/txn"],
    );
    let mut flat = Vec::new();
    for n in [24usize, 48, 96, 192] {
        let (spt, _, _) = steps_per_txn(SchemeKind::Scheme0, n, 8, 2.0, 3);
        by_n.row(vec![n.to_string(), f1(spt)]);
        flat.push(spt);
    }
    // Each d_av whose double was also measured: the factor doubling it costs.
    let doublings: Vec<f64> = spt_at
        .iter()
        .filter_map(|&(d, spt)| {
            let (_, doubled) = spt_at.iter().find(|&&(d2, _)| d2 == 2 * d)?;
            Some(doubled / spt)
        })
        .collect();
    let (first, last) = (flat[0], flat[flat.len() - 1]);
    let claims = verdicts(
        "EXP-C0",
        vec![
            (
                "Scheme 0 is linear in d_av: doubling d_av costs x1.3 to x2 steps/txn",
                doublings.iter().all(|&x| (1.3..=2.0).contains(&x)),
                format!("factors {doublings:.2?}"),
            ),
            (
                "Scheme 0 is flat in n: 8x the transactions cost under 2x steps/txn",
                last < 2.0 * first,
                format!("{} -> {}", f1(first), f1(last)),
            ),
        ],
    );
    vec![by_d, by_n, claims]
}

/// Scheme 1: steps per transaction vs n, m and d_av (Theorem 4:
/// O(m + n + n·d_av)).
pub fn exp_c1() -> Vec<Table> {
    let (by_n, _) = steps_vs_n(
        SchemeKind::Scheme1,
        8,
        "EXP-C1a: Scheme 1 steps/txn vs n (expect ~linear; m=8, d_av=2.5)".into(),
        false,
    );
    let mut by_m = Table::new(
        "EXP-C1b: Scheme 1 steps/txn vs m (expect + linear term; n=32, d_av=2.5)",
        &["m", "steps/txn"],
    );
    for m in [4usize, 8, 16, 32, 64] {
        let (spt, _, _) = steps_per_txn(SchemeKind::Scheme1, 32, m, 2.5, 3);
        by_m.row(vec![m.to_string(), f1(spt)]);
    }
    let mut by_d = Table::new(
        "EXP-C1c: Scheme 1 steps/txn vs d_av (n=32, m=8)",
        &["d_av", "steps/txn"],
    );
    for dav10 in [10u64, 20, 30, 40, 60] {
        let (spt, _, _) = steps_per_txn(SchemeKind::Scheme1, 32, 8, dav10 as f64 / 10.0, 3);
        by_d.row(vec![f1(dav10 as f64 / 10.0), f1(spt)]);
    }
    vec![by_n, by_m, by_d]
}

/// `kind`'s steps/txn and peak active transactions at n = 8…128 (m sites,
/// d_av = 2.5), and the steps/txn column. With `split`, the table also
/// splits steps/txn into `cond`, `act` and `wait_scan`, and scales it by
/// Theorems 6 and 9's n²·d_av with n the peak active transactions.
fn steps_vs_n(kind: SchemeKind, m: usize, title: String, split: bool) -> (Table, Vec<f64>) {
    const DAV: f64 = 2.5;
    let mut columns = vec!["n", "peak active", "steps/txn", "steps/(txn*n_active)"];
    if split {
        columns.extend([
            "cond/txn",
            "act/txn",
            "wait_scan/txn",
            "steps/(txn*n_active^2*d_av)",
        ]);
    }
    let mut table = Table::new(title, &columns);
    let mut spts = Vec::new();
    for n in [8usize, 16, 32, 64, 128] {
        let (spt, peak, [cond, act, wait_scan]) = steps_per_txn(kind, n, m, DAV, 3);
        let active = peak.max(1.0);
        let mut row = vec![n.to_string(), f1(peak), f1(spt), f2(spt / active)];
        if split {
            let per_bound = spt / (active * active * DAV);
            row.extend([f1(cond), f1(act), f1(wait_scan), f2(per_bound)]);
        }
        table.row(row);
        spts.push(spt);
    }
    (table, spts)
}

/// Scheme 2 or 3 vs n (Theorems 6 and 9: O(n²·d_av)), and the verdict
/// that its steps/txn grow with n.
fn superlinear_in_n(kind: SchemeKind, family: &str) -> Vec<Table> {
    let title = format!("{family}: {kind} steps/txn vs n (expect superlinear; m=6, d_av=2.5)");
    let (table, spts) = steps_vs_n(kind, 6, title, true);
    let claims = verdicts(
        family,
        vec![(
            &format!("{kind} grows with n: steps/txn rise at each n, over x1.5 from 8 to 128"),
            spts.windows(2).all(|w| w[1] > w[0]) && spts[spts.len() - 1] > 1.5 * spts[0],
            format!("steps/txn {spts:.1?}"),
        )],
    );
    vec![table, claims]
}

/// Scheme 2: steps per transaction vs n (Theorem 6: O(n²·d_av)).
pub fn exp_c2() -> Vec<Table> {
    superlinear_in_n(SchemeKind::Scheme2, "EXP-C2")
}

/// Scheme 3: steps per transaction vs n (Theorem 9: O(n²·d_av)).
pub fn exp_c3() -> Vec<Table> {
    superlinear_in_n(SchemeKind::Scheme3, "EXP-C3")
}

// ---------------------------------------------------------------------
// EXP-NP — Theorem 7: minimal Δ is NP-hard
// ---------------------------------------------------------------------

/// Exact minimum-Δ search blows up exponentially while Eliminate_Cycles
/// stays polynomial; the gap |Δ_EC| − |Δ_min| shows EC's non-minimality.
pub fn exp_np() -> Vec<Table> {
    let mut table = Table::new(
        "EXP-NP: Eliminate_Cycles vs exact minimum Δ (ring TSGDs + fresh txn)",
        &[
            "ring txns",
            "candidates",
            "|Δ| EC",
            "EC us",
            "|Δ| min",
            "exact us",
        ],
    );
    let (mut unsound, mut first_unsound) = (0u64, None);
    let rings = [2usize, 3, 4, 5, 6, 7];
    for k in rings {
        // k transactions in a ring over k sites; the fresh txn touches all
        // sites, so there are 2k candidate deps.
        let mut t = Tsgd::new();
        for i in 0..k {
            t.insert_txn(
                GlobalTxnId(i as u64 + 1),
                &[SiteId(i as u32), SiteId(((i + 1) % k) as u32)],
            );
        }
        let fresh = GlobalTxnId(99);
        let all_sites: Vec<SiteId> = (0..k as u32).map(SiteId).collect();
        t.insert_txn(fresh, &all_sites);

        let mut steps = StepCounter::new();
        let t0 = Instant::now();
        let ec = eliminate_cycles(&t, fresh, &mut steps);
        let ec_us = t0.elapsed().as_micros();

        let t1 = Instant::now();
        let min = minimal_delta_exact(&t, fresh).expect("solvable");
        let exact_us = t1.elapsed().as_micros();
        if t.has_cycle_involving(fresh, &ec)
            || t.has_cycle_involving(fresh, &min)
            || min.len() > ec.len()
        {
            unsound += 1;
            first_unsound.get_or_insert(format!("{k} ring txns"));
        }

        table.row(vec![
            k.to_string(),
            (2 * k).to_string(),
            ec.len().to_string(),
            ec_us.to_string(),
            min.len().to_string(),
            exact_us.to_string(),
        ]);
    }
    let claims = verdicts(
        "EXP-NP",
        vec![(
            "EC's and the exact search's Δ both break every cycle, and |Δ| min <= |Δ| EC",
            unsound == 0,
            tally(unsound, rings.len() as u64, "rings fail", first_unsound),
        )],
    );
    vec![table, claims]
}

// ---------------------------------------------------------------------
// EXP-DOC — degree-of-concurrency ordering
// ---------------------------------------------------------------------

/// Ser-operations forced to WAIT per scheme on identical insertion orders.
pub fn exp_doc() -> Vec<Table> {
    let seeds = 100u64;
    let (n, m, dav) = (12usize, 4usize, 2.5f64);
    // The four paper schemes plus the BS88 site-graph baseline the paper
    // improves on. For BS88 the relevant wait count includes *init* waits
    // (whole transactions queue), so report init+ser waits for everyone.
    let lineup: Vec<SchemeKind> = std::iter::once(SchemeKind::SiteGraph)
        .chain(SchemeKind::CONSERVATIVE)
        .collect();
    let mut totals = [0u64; 5];
    let (mut inversions, mut first_inversion) = (0u64, None);
    let (mut w12, mut w21) = (0u64, 0u64);
    for seed in 4000..4000 + seeds {
        let script = Script::random(n, m, dav, seed);
        let w: Vec<u64> = lineup
            .iter()
            .map(|&k| {
                let stats = replay(k, &script).stats;
                stats.waited_kind[0] + stats.waited_kind[1]
            })
            .collect();
        totals.iter_mut().zip(&w).for_each(|(total, w)| *total += w);
        if w[4] > w[1] || w[4] > w[2] || w[4] > w[3] {
            inversions += 1;
            first_inversion.get_or_insert(format!("seed {seed}"));
        }
        w12 += u64::from(w[2] < w[3]);
        w21 += u64::from(w[3] < w[2]);
    }
    let mut table = Table::new(
        format!(
            "EXP-DOC: mean init+ser waits per run over {seeds} insertion orders (n={n}, m={m}, d_av={dav})"
        ),
        &["scheme", "mean waits", "total"],
    );
    for (i, scheme) in lineup.iter().enumerate() {
        table.row(vec![
            scheme.name().into(),
            f2(totals[i] as f64 / seeds as f64),
            totals[i].to_string(),
        ]);
    }
    let [_, s0, s1, s2, s3] = totals;
    let claims = verdicts(
        "EXP-DOC",
        vec![
            (
                "Scheme 3 waits less in total than Schemes 0, 1 and 2",
                s3 < s0 && s3 < s1 && s3 < s2,
                format!("{s3} < {s0} / {s1} / {s2}"),
            ),
            (
                "Schemes 1 and 2 each wait no more than Scheme 0 in total",
                s1 <= s0 && s2 <= s0,
                format!("{s1} / {s2} <= {s0}"),
            ),
            // The paper's dominance is per order under a fixed QUEUE
            // order; here each scheme's own decisions place its acks and
            // fins, so a few orders may invert.
            (
                "Scheme 3 waits more than another of Schemes 0-2 on at most 5% of orders",
                inversions * 20 <= seeds,
                tally(inversions, seeds, "orders", first_inversion),
            ),
            (
                "Schemes 1 and 2 are incomparable: each waits less on some order",
                w12 > 0 && w21 > 0,
                format!("Scheme 1 less on {w12} orders, Scheme 2 less on {w21}"),
            ),
        ],
    );
    vec![table, claims]
}

// ---------------------------------------------------------------------
// EXP-ALL — Scheme 3 admits all serializable schedules
// ---------------------------------------------------------------------

/// On serializable insertion orders, Scheme 3 never ser-waits; BT-schemes
/// reject (delay) some serializable schedules.
pub fn exp_all() -> Vec<Table> {
    let seeds = 100u64;
    let (n, m, dav) = (12usize, 4usize, 2.5f64);
    let mut table = Table::new(
        format!("EXP-ALL: ser-waits on {seeds} *serializable* insertion orders"),
        &["scheme", "orders with zero waits", "total ser-waits"],
    );
    let mut scheme3 = (0, None);
    for scheme in SchemeKind::CONSERVATIVE {
        let (mut zero, mut total, mut first_wait) = (0u64, 0u64, None);
        for seed in 5000..5000 + seeds {
            let script = Script::serializable_order(n, m, dav, seed);
            let w = replay(scheme, &script).stats.waited_kind[1];
            total += w;
            if w == 0 {
                zero += 1;
            } else {
                first_wait.get_or_insert(format!("seed {seed}"));
            }
        }
        table.row(vec![
            scheme.name().into(),
            format!("{zero}/{seeds}"),
            total.to_string(),
        ]);
        if scheme == SchemeKind::Scheme3 {
            scheme3 = (zero, first_wait);
        }
    }
    let (zero, first_wait) = scheme3;
    let claims = verdicts(
        "EXP-ALL",
        vec![(
            "Scheme 3 never ser-waits on a serializable order",
            zero == seeds,
            tally(seeds - zero, seeds, "orders wait", first_wait),
        )],
    );
    vec![table, claims]
}

// ---------------------------------------------------------------------
// EXP-OPT — ablation: minimal Δ (NP-hard) vs Eliminate_Cycles
// ---------------------------------------------------------------------

/// How much concurrency does the NP-hard minimum-Δ variant of Scheme 2
/// buy over the polynomial `Eliminate_Cycles`, and what does it cost?
pub fn exp_opt() -> Vec<Table> {
    let seeds = 60u64;
    let mut table = Table::new(
        "EXP-OPT: Scheme 2 vs Scheme 2-MIN (exact minimal Δ) over 60 insertion orders",
        &[
            "n",
            "S2 ser-waits",
            "S2-MIN ser-waits",
            "S2 steps/txn",
            "S2-MIN steps/txn",
        ],
    );
    for n in [6usize, 8, 10] {
        let (mut w2, mut w2m, mut st2, mut st2m) = (0u64, 0u64, 0.0, 0.0);
        for seed in 0..seeds {
            let script = Script::random(n, 3, 2.0, 8000 + seed);
            let a = replay(SchemeKind::Scheme2, &script);
            let b = replay(SchemeKind::Scheme2Minimal, &script);
            w2 += a.stats.waited_kind[1];
            w2m += b.stats.waited_kind[1];
            st2 += a.steps.total() as f64 / n as f64;
            st2m += b.steps.total() as f64 / n as f64;
        }
        table.row(vec![
            n.to_string(),
            w2.to_string(),
            w2m.to_string(),
            f1(st2 / seeds as f64),
            f1(st2m / seeds as f64),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-AB — conservatism vs aborts
// ---------------------------------------------------------------------

/// Abort rates of the non-conservative baselines vs zero for the paper's
/// schemes, as concurrency (n) grows.
pub fn exp_ab() -> Vec<Table> {
    let seeds = 30u64;
    let mut table = Table::new(
        "EXP-AB: aborted global txns (% of n) over 30 insertion orders (m=4, d_av=2.5)",
        &["n", "Aborting-TO", "Optimistic-Ticket", "Schemes 0-3"],
    );
    let ns = [4usize, 8, 16, 32];
    let mut baseline_cells = Vec::new(); // (aborts, which baseline at which n)
    let (mut broken_runs, mut first_broken) = (0u64, None);
    for n in ns {
        let scripts: Vec<Script> = (0..seeds)
            .map(|seed| Script::random(n, 4, 2.5, 6000 + seed))
            .collect();
        let rate = |aborted: usize, kinds: usize| {
            f1(100.0 * aborted as f64 / ((n * kinds) as f64 * seeds as f64)) + "%"
        };
        let mut cells = vec![n.to_string()];
        for kind in [SchemeKind::AbortingTo, SchemeKind::OptimisticTicket] {
            let aborted = scripts.iter().map(|s| replay(kind, s).aborted.len()).sum();
            baseline_cells.push((aborted, format!("{kind}, n={n}")));
            cells.push(rate(aborted, 1));
        }
        let mut aborted = 0;
        for kind in SchemeKind::CONSERVATIVE {
            for (seed, script) in (6000..).zip(&scripts) {
                let out = replay(kind, script);
                aborted += out.aborted.len();
                if broken(&out, n) {
                    broken_runs += 1;
                    first_broken.get_or_insert(format!("{kind}, n={n}, seed {seed}"));
                }
            }
        }
        cells.push(rate(aborted, SchemeKind::CONSERVATIVE.len()));
        table.row(cells);
    }
    let (fewest, at) = baseline_cells.iter().min_by_key(|c| c.0).expect("cells");
    let replays = (SchemeKind::CONSERVATIVE.len() * ns.len()) as u64 * seeds;
    let claims = verdicts(
        "EXP-AB",
        vec![
            (
                "Aborting-TO and Optimistic-Ticket abort at every n",
                *fewest > 0,
                format!("fewest: {fewest} aborts ({at})"),
            ),
            (
                "Schemes 0-3 complete every transaction, abort none, keep ser(S) serializable",
                broken_runs == 0,
                tally(broken_runs, replays, "runs", first_broken),
            ),
        ],
    );
    vec![table, claims]
}

// ---------------------------------------------------------------------
// EXP-AMRT — Section 3 item 3: overhead amortization
// ---------------------------------------------------------------------

/// GTM2 scheduling steps per *data operation* fall as subtransactions get
/// longer: scheduling one ser op is amortized over the whole subtxn.
pub fn exp_amrt() -> Vec<Table> {
    let mut table = Table::new(
        "EXP-AMRT: Scheme 3 scheduling overhead amortization (2PL x3 sites, 24 txns)",
        &["ops/subtxn", "gtm2 steps", "data ops", "steps per data op"],
    );
    for ops in [1usize, 2, 4, 8] {
        let mut spec = base_spec(3, 24, 77);
        spec.ops_per_subtxn = ops;
        spec.items_per_site = 64; // low contention: isolate overhead
        spec.local_txns_per_site = 0;
        let report = run_sim(&[Tpl; 3], SchemeKind::Scheme3, &spec, 6);
        let steps = report.gtm2_steps.total();
        let data_ops = report.gtm1.direct_ops;
        table.row(vec![
            ops.to_string(),
            steps.to_string(),
            data_ops.to_string(),
            f2(steps as f64 / data_ops.max(1) as f64),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-E2E — end-to-end throughput and response time
// ---------------------------------------------------------------------

/// Throughput and response time vs multiprogramming level per scheme, on
/// commit-event sites (the paper's concurrency ordering shows directly)
/// and on a mixed-protocol federation.
pub fn exp_e2e() -> Vec<Table> {
    let mut tables = Vec::new();
    for (title, protocols) in [
        ("EXP-E2E(a): 4x strict-2PL sites", vec![Tpl; 4]),
        (
            "EXP-E2E(b): mixed 2PL/2PL/TO/OCC sites",
            vec![Tpl, Tpl, To, Occ],
        ),
    ] {
        let mut table = Table::new(
            format!("{title} — 48 global txns, zipf(0.6), local load"),
            &[
                "scheme",
                "mpl",
                "commits",
                "tput/s",
                "resp us",
                "ser-waits",
                "timeouts",
            ],
        );
        for scheme in SchemeKind::CONSERVATIVE {
            for mpl in [2usize, 6, 12] {
                let mut spec = base_spec(4, 48, 88);
                spec.avg_sites_per_txn = 2.5;
                spec.distribution = AccessDistribution::Zipf { theta: 0.6 };
                spec.items_per_site = 32;
                spec.local_txns_per_site = 6;
                let report = run_sim(&protocols, scheme, &spec, mpl);
                assert!(report.is_serializable(), "{scheme} mpl={mpl}");
                table.row(vec![
                    scheme.name().into(),
                    mpl.to_string(),
                    report.metrics.global_commits.to_string(),
                    f1(report.metrics.throughput_per_sec()),
                    format!("{:.0}", report.metrics.global_response.mean()),
                    report.gtm2.waited_kind[1].to_string(),
                    report.metrics.timeouts.to_string(),
                ]);
            }
        }
        tables.push(table);
    }
    tables
}

// ---------------------------------------------------------------------
// EXP-SG — the naive site-graph baseline is unsound
// ---------------------------------------------------------------------

/// A literal BS88-style site graph with fin-time edge deletion violates
/// ser(S) serializability through transitive overlap chains; Scheme 1's
/// delete queues (same graph idea, ordered deletion) never do.
pub fn exp_sg() -> Vec<Table> {
    let runs = 200u64;
    let (n, m, dav) = (10usize, 4usize, 2.2f64);
    let mut table = Table::new(
        format!("EXP-SG: ser(S) violations over {runs} insertion orders (n={n}, m={m})"),
        &["scheme", "violations", "rate", "mean init+ser waits"],
    );
    for kind in [SchemeKind::SiteGraph, SchemeKind::Scheme1] {
        let (mut violations, mut waits) = (0u64, 0u64);
        for seed in 0..runs {
            let script = Script::random(n, m, dav, 11_000 + seed);
            let out = replay(kind, &script);
            violations += u64::from(!out.ser_serializable);
            waits += out.stats.waited_kind[0] + out.stats.waited_kind[1];
        }
        table.row(vec![
            kind.name().into(),
            violations.to_string(),
            f1(100.0 * violations as f64 / runs as f64) + "%",
            f2(waits as f64 / runs as f64),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-TKT — Section 2.2: tickets are necessary at SGT sites, and any
// forced-conflict event is a valid serialization function elsewhere
// ---------------------------------------------------------------------

/// Three configurations over the same workloads:
/// 1. SGT sites with the ticket (the paper's prescription) — sound;
/// 2. SGT sites misconfigured to use `begin` as the event (no valid
///    serialization function) — global serializability breaks;
/// 3. TO sites with a ticket override (footnote 3: several functions can
///    be valid) — still sound.
pub fn exp_tkt() -> Vec<Table> {
    use mdbs_localdb::serfn::SerializationEvent::{Begin, TicketWrite};
    let seeds: Vec<u64> = (0..20).collect();
    let mut table = Table::new(
        "EXP-TKT: serialization-function choices over 20 seeds (2 sites, 14 txns, local load)",
        &["configuration", "serializable runs", "violations"],
    );
    for (name, protocol, event) in [
        ("SGT + ticket (paper)", Sgt, None),
        ("SGT + begin-event (invalid)", Sgt, Some(Begin)),
        ("TO + ticket override (alt valid fn)", To, Some(TicketWrite)),
    ] {
        let mut ok = 0;
        for &seed in &seeds {
            let mut b = SystemConfig::builder()
                .scheme(SchemeKind::Scheme3)
                .seed(2000 + seed)
                .mpl(6)
                .site(protocol)
                .site(protocol);
            if let Some(ev) = event {
                b = b
                    .override_serialization_event(SiteId(0), ev)
                    .override_serialization_event(SiteId(1), ev);
            }
            let mut spec = base_spec(2, 14, 2000 + seed);
            spec.items_per_site = 10;
            spec.read_ratio = 0.4;
            let report = MdbsSystem::new(b.build()).run(Workload::generate(&spec));
            if report.is_serializable() {
                ok += 1;
            }
        }
        table.row(vec![
            name.into(),
            format!("{ok}/{}", seeds.len()),
            (seeds.len() - ok).to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-2PC — extension: two-phase commit cost and benefit
// ---------------------------------------------------------------------

/// What does atomic commitment cost, and what does it buy? Same banking
/// workload with optimistic banks, with and without 2PC: conservation of
/// money (the benefit) and throughput/response (the cost).
pub fn exp_2pc() -> Vec<Table> {
    use mdbs_workload::scenarios::Banking;
    const BANKS: usize = 3;
    const ACCOUNTS: u64 = 6;
    const BALANCE: i64 = 500;
    let mut table = Table::new(
        "EXP-2PC: banking with optimistic banks — 2PC off vs on (Scheme 3, 30 transfers, 3 seeds)",
        &[
            "mode",
            "conserved runs",
            "mean tput/s",
            "mean resp us",
            "mean aborts",
        ],
    );
    for two_pc in [false, true] {
        let mut conserved = 0u32;
        let mut tput = 0.0;
        let mut resp = 0.0;
        let mut aborts = 0.0;
        let seeds = [3u64, 7, 21];
        for &seed in &seeds {
            let scenario = Banking {
                banks: BANKS,
                accounts: ACCOUNTS,
                initial_balance: BALANCE,
            };
            let transfers = scenario.transfers(30, seed);
            let mut spec = base_spec(BANKS, 30, seed);
            spec.items_per_site = ACCOUNTS;
            spec.local_txns_per_site = 0;
            let workload = Workload {
                globals: transfers,
                locals: Vec::new(),
                spec,
            };
            let cfg = SystemConfig::builder()
                .site(Tpl)
                .site(Occ)
                .site(Occ)
                .scheme(SchemeKind::Scheme3)
                .seed(seed)
                .mpl(6)
                .prefill(ACCOUNTS, BALANCE)
                .two_phase_commit(two_pc)
                .build();
            let report = MdbsSystem::new(cfg).run(workload);
            let total: i128 = report.storage_totals.iter().sum();
            if total == i128::from(BALANCE) * i128::from(ACCOUNTS) * BANKS as i128 {
                conserved += 1;
            }
            tput += report.metrics.throughput_per_sec();
            resp += report.metrics.global_response.mean();
            aborts += report.metrics.global_aborts as f64;
        }
        let n = seeds.len() as f64;
        table.row(vec![
            if two_pc { "2PC on" } else { "2PC off" }.into(),
            format!("{conserved}/{}", seeds.len()),
            f1(tput / n),
            f1(resp / n),
            f1(aborts / n),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-CRASH — extension: availability under site failures
// ---------------------------------------------------------------------

/// Inject crashes at increasing frequency; the federation must stay
/// globally serializable while throughput degrades gracefully.
pub fn exp_crash() -> Vec<Table> {
    let mut table = Table::new(
        "EXP-CRASH: Scheme 3 under site failures (3 sites, 30 txns, local load)",
        &[
            "crashes",
            "commits",
            "failures",
            "retries",
            "tput/s",
            "serializable",
        ],
    );
    for n_crashes in [0usize, 1, 2, 4] {
        let mut b = SystemConfig::builder()
            .site(Tpl)
            .site(To)
            .site(Occ)
            .scheme(SchemeKind::Scheme3)
            .seed(66)
            .mpl(6);
        for c in 0..n_crashes {
            b = b.crash(3_000 + c as u64 * 9_000, SiteId((c % 3) as u32), 15_000);
        }
        let mut spec = base_spec(3, 30, 66);
        spec.local_txns_per_site = 4;
        let report = MdbsSystem::new(b.build()).run(Workload::generate(&spec));
        table.row(vec![
            n_crashes.to_string(),
            report.metrics.global_commits.to_string(),
            report.metrics.global_failures.to_string(),
            report.metrics.global_aborts.to_string(),
            f1(report.metrics.throughput_per_sec()),
            report.is_serializable().to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------
// EXP-WAIT — the cost of WAIT rescanning (paper's accounting, §4)
// ---------------------------------------------------------------------

/// The paper charges schemes for determining which waiting operations
/// became eligible after each act. Targeted wake hints (Scheme 0: the new
/// queue front; others: per-site/fin keys) vs naively re-examining all of
/// WAIT: identical behavior, very different step bills.
pub fn exp_wait() -> Vec<Table> {
    let (n, m, dav, seeds) = (24usize, 4usize, 2.5f64, 10u64);
    let mut table = Table::new(
        format!("EXP-WAIT: wait-scan steps/txn, targeted hints vs full rescans (n={n}, m={m})"),
        &[
            "scheme",
            "hinted scan/txn",
            "full scan/txn",
            "ratio",
            "same waits",
        ],
    );
    for kind in SchemeKind::CONSERVATIVE {
        let mut hinted = 0.0;
        let mut full = 0.0;
        let mut same = true;
        for seed in 0..seeds {
            let script = Script::random(n, m, dav, 9500 + seed);
            let a = replay_with(&mut Gtm2::new(kind.build()), &script);
            let b = replay_with(&mut Gtm2::new(Box::new(FullRescan(kind.build()))), &script);
            hinted += a.steps.wait_scan as f64 / n as f64;
            full += b.steps.wait_scan as f64 / n as f64;
            same &= a.stats.waited == b.stats.waited;
        }
        table.row(vec![
            kind.name().into(),
            f1(hinted / seeds as f64),
            f1(full / seeds as f64),
            f2(full / hinted.max(1e-9)),
            same.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: the quick families run and produce non-empty tables, each
    /// judging family ending with its verdicts table. The cell-for-cell
    /// comparison with the committed record is `tests/committed_results.rs`.
    #[test]
    fn experiments_produce_tables() {
        for f in [exp_ind, exp_c0, exp_np, exp_all] {
            let rendered: Vec<String> = f().iter().map(Table::render).collect();
            assert!(!rendered.is_empty());
            // Title, headers and rule, then at least one row.
            for t in &rendered {
                assert!(t.lines().count() > 3, "{t}");
            }
            let title = rendered.last().and_then(|t| t.lines().next()).unwrap();
            assert!(title.ends_with(": verdicts"), "{title}");
        }
    }
}
