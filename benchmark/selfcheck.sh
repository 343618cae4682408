#!/usr/bin/env bash
# Build the benchmark package offline, run it at --quick size, and validate
# what it prints and writes against BENCHMARK.json. This is the step a CI
# workflow calls; it needs cargo and python3 and no network.
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
out=benchmark/out
mkdir -p "$out"

bench() {
    cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"
}

cargo build --release --offline --manifest-path "$manifest"
bench run --quick --seed 1 --out "$out/quick-run.json"
bench trace --quick --seed 1 --out "$out/quick-trace.json"
# The form the benchmark driver uses: one workload, result on the last line.
bench --workload sched_burst --seed 1 --seconds 1 --trace 0 | tail -n 1 >"$out/quick-driver.json"

python3 - "$out" <<'PY'
import json, math, re, sys

out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Differences, which may come out below zero.
signed = {"trace.overhead_share", "threaded.live_minus_inline_us_per_txn"}
workloads = [w["name"] for w in manifest["workloads"]]
errors = []

def check(record, where, wanted):
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in record:
            errors.append(f"{where}: no {key}")
            return
    if record["correct"] is not True:
        errors.append(f"{where}: not correct")
    if not (isinstance(record["attempted"], int) and record["attempted"] >= 1):
        errors.append(f"{where}: attempted = {record['attempted']}")
    metrics = record["metrics"]
    for spec in wanted:
        if spec["name"] not in metrics:
            errors.append(f"{where}: {spec['name']} missing")
        elif metrics[spec["name"]]["unit"] != spec["unit"]:
            errors.append(f"{where}: {spec['name']} unit {metrics[spec['name']]['unit']}")
    for name, m in metrics.items():
        if not name_ok.match(name):
            errors.append(f"{where}: bad name {name!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or math.isnan(v) or math.isinf(v):
            errors.append(f"{where}: {name} = {v}")
        elif v < 0 and name not in signed:
            errors.append(f"{where}: {name} = {v} is negative")

for path, key in (("quick-run.json", "end_to_end"), ("quick-trace.json", "per_layer")):
    doc = json.load(open(f"{out}/{path}"))
    for w in workloads:
        if w not in doc["workloads"]:
            errors.append(f"{path}: workload {w} missing")
        else:
            check(doc["workloads"][w], f"{path}/{w}", manifest[key])

driver = json.load(open(f"{out}/quick-driver.json"))
if sorted(driver) != ["attempted", "correct", "failed", "metrics"]:
    errors.append(f"driver line keys: {sorted(driver)}")
check(driver, "driver line", manifest["end_to_end"])
if sorted(driver["metrics"]) != sorted(m["name"] for m in manifest["end_to_end"]):
    errors.append("driver line: metrics are not exactly the end_to_end list")
for m in driver["metrics"].values():
    if sorted(m) != ["unit", "value"]:
        errors.append(f"driver line: metric keys {sorted(m)}")

for e in errors:
    print("selfcheck:", e, file=sys.stderr)
sys.exit(1 if errors else 0)
PY
echo "selfcheck: ok"
