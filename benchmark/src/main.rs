//! `mdbs-benchmark`: one benchmark for the GTM1 → GTM2 → local-DBMS
//! pipeline. See `benchmark/README.md`.

mod catalog;
mod inline;
mod inputs;
mod layers;
mod measure;
mod probes;
mod replay_trace;
mod report;
mod span;
mod stats;

use inputs::{Plan, WorkloadId};
use std::process::ExitCode;

const USAGE: &str = "usage:
  mdbs-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  mdbs-benchmark run   --seed <u64> --out <file> [--quick]
  mdbs-benchmark trace --seed <u64> --out <file> [--quick]
  mdbs-benchmark compare <base.json> <new.json>
  mdbs-benchmark manifest
workloads: live_spread des_contended sched_burst sched_stream";

/// `--flag value` pairs plus bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.flags.push(("quick".into(), "1".into())),
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str) -> Result<u64, String> {
        let raw = self.get(flag).ok_or(format!("--{flag} is required"))?;
        raw.parse()
            .map_err(|_| format!("--{flag} {raw}: not a whole number"))
    }
}

/// Where the traced run writes round 0's raw spans, relative to the
/// directory the command is run from (the repository root).
const SPAN_DIR: &str = "benchmark/out";

fn run_workload(id: WorkloadId, seed: u64, plan: Plan, trace: bool) -> report::WorkloadResult {
    if trace {
        layers::traced(id, seed, plan, std::path::Path::new(SPAN_DIR))
    } else {
        measure::end_to_end(id, seed, plan)
    }
}

fn real_main() -> Result<bool, String> {
    if std::env::var_os("MDBS_SHARDS").is_some() {
        return Err("MDBS_SHARDS is set: the benchmark measures the default shard count".into());
    }
    let args = Args::parse(std::env::args().skip(1))?;
    match args.words.first().map(String::as_str) {
        None => {
            let name = args.get("workload").ok_or("--workload is required")?;
            let id = WorkloadId::from_name(name).ok_or(format!("unknown workload {name}"))?;
            let seed = args.number("seed")?;
            let seconds = args.number("seconds")?;
            if !(1..=60).contains(&seconds) {
                return Err(format!("--seconds {seconds}: expected 1 to 60"));
            }
            let trace = match args.number("trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let result = run_workload(id, seed, Plan::for_seconds(id, seconds), trace);
            print!("{}", result.human());
            println!("{}", result.driver_line());
            Ok(result.correct())
        }
        Some(mode @ ("run" | "trace")) => {
            let seed = args.number("seed")?;
            let out = args.get("out").ok_or("--out is required")?;
            let mut results = Vec::new();
            for id in WorkloadId::ALL {
                let plan = if args.get("quick").is_some() {
                    Plan::quick(id)
                } else {
                    Plan::for_seconds(id, catalog::RUN_SECONDS)
                };
                let result = run_workload(id, seed, plan, mode == "trace");
                print!("{}", result.human());
                results.push(result);
            }
            std::fs::write(out, report::result_file(mode, seed, &results))
                .map_err(|e| format!("{out}: {e}"))?;
            Ok(results.iter().all(report::WorkloadResult::correct))
        }
        Some("compare") => {
            let [_, base, new] = args.words.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (table, any_worse) = report::compare(&read(base)?, &read(new)?)?;
            print!("{table}");
            Ok(!any_worse)
        }
        Some("manifest") => {
            let text =
                serde_json::to_string_pretty(&catalog::manifest()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("mdbs-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
