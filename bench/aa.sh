#!/usr/bin/env bash
# A/A harness: runs each workload several times on one commit and prints,
# per metric, the median, the quartiles and the quartile spread as a
# share of the median (Python's statistics.quantiles(values, n=4)), next
# to the metric's bound from BENCHMARK.json. It also reports whether the
# correctness digests agreed across the runs.
#
# Run it from the repository root:
#
#   bash bench/aa.sh [-n runs] [-seed s | -vary] [-seconds s] [-trace 0|1] workload...
#
# -n defaults to 5 and -seed to 1; -vary gives run i the seed i+1, as a
# check of how much a metric moves from one input to the next.
# With no workload named, every workload in BENCHMARK.json runs.
set -euo pipefail

runs=5 seed=1 vary=0 seconds="" trace=0
while [[ $# -gt 0 ]]; do
	case "$1" in
	-n) runs="$2"; shift 2 ;;
	-seed) seed="$2"; shift 2 ;;
	-vary) vary=1; shift ;;
	-seconds) seconds="$2"; shift 2 ;;
	-trace) trace="$2"; shift 2 ;;
	-*) echo "aa.sh: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
if [[ -z "$seconds" ]]; then
	seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

out=".bench_build/aa"
mkdir -p "$out"
for w in "${workloads[@]}"; do
	log="$out/$w.log"
	: >"$log"
	for ((i = 0; i < runs; i++)); do
		s=$seed
		[[ $vary -eq 1 ]] && s=$((i + 1))
		bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" >"$out/$w.$i.out"
		grep '^digest ' "$out/$w.$i.out" | tr '\n' ' ' >>"$log" || true
		echo >>"$log"
		tail -n 1 "$out/$w.$i.out" >>"$log"
	done
	python3 - "$w" "$log" "$trace" <<'EOF'
import json, statistics, sys
name, log, trace = sys.argv[1], sys.argv[2], sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
lines = open(log).read().splitlines()
digests, results = lines[0::2], [json.loads(l) for l in lines[1::2]]
print(f"== {name}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
      f"failed: {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}, "
      f"digests identical: {len(set(digests)) == 1}")
print(f"{'metric':36} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
for m in results[0]["metrics"]:
    vals = [r["metrics"][m]["value"] for r in results]
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    bound = bounds.get(m) if trace == "0" else None
    flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
    print(f"{m:36} {results[0]['metrics'][m]['unit']:6} {med:14.6g} {q1:14.6g} {q3:14.6g} "
          f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
EOF
done
