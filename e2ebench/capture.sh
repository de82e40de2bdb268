#!/usr/bin/env bash
# Records the benchmark capture of the checked-out commit: one untraced
# and one traced run of every workload, kept under
# e2ebench/captures/<short commit>/, plus summary.json with each
# workload's tracing overhead, static.collect_drift and fail_ratio.
# Run from the repository root:
#
#   bash e2ebench/capture.sh [seed]
set -euo pipefail

seed="${1:-1}"
rev="$(git rev-parse --short HEAD)"
out="e2ebench/captures/$rev"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p "$out"

for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  for t in 0 1; do
    bash e2ebench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" | tail -n 2 > "$out/$w-trace$t.jsonl"
  done
done

python3 - "$out" <<'EOF'
import json, os, sys
out = sys.argv[1]
summary = {}
for name in sorted(os.listdir(out)):
    if not name.endswith("-trace0.jsonl"):
        continue
    w = name[: -len("-trace0.jsonl")]
    untraced = json.loads(open(os.path.join(out, name)).readline())["capture"]
    traced = json.loads(open(os.path.join(out, w + "-trace1.jsonl")).readline())["capture"]
    plain = untraced["end_to_end"]["apps_per_s"]["value"]
    with_trace = traced["per_layer"]["trace.apps_per_s"]["value"]
    summary[w] = {
        "commit": untraced["commit"],
        "seed": untraced["seed"],
        "apps_per_s": plain,
        "traced_apps_per_s": with_trace,
        "tracing_overhead": 1 - with_trace / plain,
        "static.collect_drift": traced["per_layer"]["static.collect_drift"]["value"],
        "fail_ratio": {"untraced": untraced["fail_ratio"], "traced": traced["fail_ratio"]},
    }
with open(os.path.join(out, "summary.json"), "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
EOF
echo "wrote $out"
