#!/usr/bin/env bash
# End-to-end benchmark of insched (bench/e2e/README.md). Builds
# insched_bench in Release under bench/e2e/build-e2e, then runs the workloads, each in its
# own process.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--record FILE] [--smoke] [--list]
#
#   --workload W   plan-aggregate | plan-staircase | serve-mix | reschedule
#                  (default: all four, one process each)
#   --seed N       workload seed (default 1)
#   --seconds S    measured time per workload (default 20, as BENCHMARK.json)
#   --trace [0|1]  per-layer run: every other batch of operations traced,
#                  Chrome trace written to bench/e2e/out/<workload>.trace.json
#   --record FILE  append each result line, tagged with workload and seed,
#                  to FILE (input for compare.py)
#   --smoke        every workload for 2 s with the same answer checks
#   --list         print each metric with its unit and bound, then exit
#
# Every metric is printed by name with its unit; the last line of a
# workload's output is its JSON result. The exit status is non-zero when an
# answer is wrong or a run does not complete.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build-e2e"
out="$here/out"
workloads=(plan-aggregate plan-staircase serve-mix reschedule)

workload=""
seed=1
seconds=20
trace=0
record=""
list=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --record) record="${2:?--record needs a value}"; shift 2 ;;
    --smoke) seconds=2; shift ;;
    --list) list=1; shift ;;
    -h|--help) sed -n '2,22p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1' (see --help)" >&2; exit 2 ;;
  esac
done

if [[ "$list" == 1 ]]; then
  python3 - "$root/BENCHMARK.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
print("%-32s %-6s %-7s %s" % ("metric", "unit", "better", "bound"))
for kind in ("end_to_end", "per_layer"):
    print("# %s" % kind)
    for m in bench[kind]:
        bound = "%.0f%% worse than the parent median" % (100 * m["bound"]) if "bound" in m else "-"
        print("%-32s %-6s %-7s %s" % (m["name"], m["unit"], m["better"], bound))
EOF
  exit 0
fi

if [[ ! -f "$root/CMakeLists.txt" ]]; then
  echo "run.sh: no insched source tree at $root; nothing to benchmark" >&2
  exit 1
fi
if [[ -n "$record" ]]; then
  record="$(cd "$(dirname "$record")" && pwd)/$(basename "$record")"
fi

mkdir -p "$out"
generator=()
if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]] &&
   ! cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
       > "$out/build.log" 2>&1; then
  tail -n 30 "$out/build.log" >&2
  exit 1
fi
if ! cmake --build "$build" -j "$(nproc)" >> "$out/build.log" 2>&1; then
  tail -n 30 "$out/build.log" >&2
  exit 1
fi

# insched_bench runs from the repository root and writes only under
# bench/e2e/out.
cd "$root"
if [[ -n "$workload" ]]; then workloads=("$workload"); fi
status=0
for w in "${workloads[@]}"; do
  args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
        --out "${out#"$root"/}")
  if [[ -n "$record" ]]; then args+=(--record "$record"); fi
  "$build/insched_bench" "${args[@]}" || status=$?
done
exit "$status"
