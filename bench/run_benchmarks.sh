#!/usr/bin/env bash
# Runs the solver benchmark suite and writes BENCH_solver.json at the repo
# root (google-benchmark JSON format). Pass a previously saved JSON file as
# an argument to embed it as a "baseline" section for before/after
# comparison:
#
#   bench/run_benchmarks.sh                # fresh run, no baseline
#   bench/run_benchmarks.sh old.json       # fresh run + baseline embedded
#   bench/run_benchmarks.sh --quick        # smoke run -> bench/out/, fast
#   bench/run_benchmarks.sh --serve        # serving suite -> BENCH_serve.json
#   bench/run_benchmarks.sh --resolve      # warm re-solve suite -> BENCH_resolve.json
#   bench/run_benchmarks.sh --replay       # replay suite -> BENCH_replay.json
#
# --serve switches the suite to bench/serve_throughput (the insched_serve
# engine: requests/sec and p50/p99 latency over fresh/cached/mixed request
# replays, docs/SERVING.md) and writes BENCH_serve.json instead of
# BENCH_solver.json. It composes with --quick (bench/out/BENCH_serve_quick.json,
# mix+cached threads:4 rows only) and with a baseline argument, and is
# subject to the same non-release refusal below.
#
# --resolve switches the suite to bench/resolve_latency (the warm-delta
# re-solve engine, docs/ONLINE.md: cold solve vs ReSolveContext re-solve
# under measured-cost perturbations) and writes BENCH_resolve.json. Same
# composition rules as --serve; --quick keeps only the steps:500 noise rows
# (bench/out/BENCH_resolve_quick.json).
#
# --replay switches the suite to bench/replay_throughput (the discrete-event
# replay simulator, docs/REPLAY.md: full-schedule replays/sec over the
# case-study staircases, the corpus sweep and the jittered fuzz path) and
# writes BENCH_replay.json. Same composition rules; --quick keeps only the
# staircase rows (bench/out/BENCH_replay_quick.json). The scenarios_per_sec
# counter is floor-gated (>= 2,000/s) by tools/bench_compare.py.
#
# --quick is the CI/ctest smoke mode: one repetition with a tiny min-time
# over the BM_schedule_*_config single-thread rows plus both cuts arms of
# the BM_schedule_*_staircase_config MIPs, written to
# bench/out/BENCH_quick.json so the checked-in BENCH_solver.json is never
# overwritten by a smoke run.
#
# Every BM_schedule_*_config and *_staircase_config row records each
# mip::MipCounters field under its own name (the kMipCounterFields table),
# plus lp_rhs_density / lp_fill_ratio / lp_staircase_hit_rate and
# recoveries. The interesting comparisons: BM_schedule_*_config speedups
# plus the factor_cache_peak_bytes / factor_cache_peak_dense_bytes counters
# (sparse LU kernel), and the `nodes` / `objective` counters of the
# staircase rows at cuts:0 vs cuts:1 (cutting-plane engine — the >=2x
# node-reduction gate). Older BENCH files, the checked-in BENCH_solver.json
# among them, spell lp_refactorizations, factor_cache_peak_bytes and
# factor_cache_peak_dense_bytes as lp_refactors, factor_peak_bytes and
# factor_dense_equiv_bytes.
#
# The recovery-ladder counters (`recoveries`, `lp_recover_*`,
# `node_retries`, `root_retries` — docs/ROBUSTNESS.md) are all zero on a
# healthy build, so a nonzero value in a fresh BENCH_solver.json means the
# solver is silently fighting numerical trouble.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"

quick=0
serve=0
resolve=0
replay=0
baseline=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --serve) serve=1 ;;
    --resolve) resolve=1 ;;
    --replay) replay=1 ;;
    *) baseline="$arg" ;;
  esac
done

bench_bin="solver_perf"
default_out="$repo_root/BENCH_solver.json"
quick_out="$repo_root/bench/out/BENCH_quick.json"
quick_filter="BM_schedule_(water|rhodo|flash)_config/threads:1/warm:1|BM_schedule_(water|rhodo|flash)_staircase_config"
if [[ "$serve" == 1 ]]; then
  bench_bin="serve_throughput"
  default_out="$repo_root/BENCH_serve.json"
  quick_out="$repo_root/bench/out/BENCH_serve_quick.json"
  quick_filter="BM_serve_(cached|mix)/threads:4"
fi
if [[ "$resolve" == 1 ]]; then
  bench_bin="resolve_latency"
  default_out="$repo_root/BENCH_resolve.json"
  quick_out="$repo_root/bench/out/BENCH_resolve_quick.json"
  quick_filter="BM_resolve_staircase_noise/steps:500"
fi
if [[ "$replay" == 1 ]]; then
  bench_bin="replay_throughput"
  default_out="$repo_root/BENCH_replay.json"
  quick_out="$repo_root/bench/out/BENCH_replay_quick.json"
  quick_filter="BM_replay_staircase"
fi
out="${OUT:-$default_out}"

min_time="${BENCH_MIN_TIME:-0.2}"
filter="${BENCH_FILTER:-.}"
if [[ "$quick" == 1 ]]; then
  mkdir -p "$repo_root/bench/out"
  out="${OUT:-$quick_out}"
  min_time="${BENCH_MIN_TIME:-0.01}"
  filter="${BENCH_FILTER:-$quick_filter}"
fi

if [[ ! -x "$build_dir/bench/$bench_bin" ]]; then
  echo "building $bench_bin in $build_dir ..." >&2
  # Benchmarks are only meaningful from an optimized build: configure
  # Release unless the caller overrides BENCH_BUILD_TYPE.
  build_type="${BENCH_BUILD_TYPE:-Release}"
  if [[ "$quick" == 1 ]]; then
    # The smoke mode doubles as a warnings gate: the benchmark harness (and
    # any stale parts of the tree it drags in) must build warning-free.
    cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE="$build_type" \
      -DINSCHED_WERROR=ON >/dev/null
  else
    cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE="$build_type" >/dev/null
  fi
  cmake --build "$build_dir" --target "$bench_bin" -j >/dev/null
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

"$build_dir/bench/$bench_bin" \
  --benchmark_format=json \
  --benchmark_min_time="$min_time" \
  --benchmark_filter="$filter" \
  >"$raw"

# Never let a debug-built run masquerade as the checked-in reference numbers:
# both benchmark binaries record their own compile mode as insched_build_type
# in the JSON context (benchmark's library_build_type describes the installed
# benchmark library, not our flags), and a "debug" record is 3-10x off Release.
# Quick/smoke output (bench/out/) is exempt; BENCH_ALLOW_DEBUG=1 overrides
# for local experiments.
build_type_recorded="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1])).get("context", {}).get("insched_build_type", "unknown"))
' "$raw")"
if [[ "$build_type_recorded" != "release" && "$quick" != 1 ]]; then
  echo "WARNING: $bench_bin was built as '$build_type_recorded', not release." >&2
  if [[ "${BENCH_ALLOW_DEBUG:-0}" != 1 ]]; then
    echo "refusing to write $out from a non-release build" >&2
    echo "(rebuild with -DCMAKE_BUILD_TYPE=Release, or set BENCH_ALLOW_DEBUG=1)" >&2
    exit 1
  fi
  echo "BENCH_ALLOW_DEBUG=1 set: writing non-release numbers to $out anyway" >&2
fi

if [[ -n "$baseline" && -f "$baseline" ]]; then
  python3 - "$raw" "$baseline" "$out" <<'EOF'
import json, sys
current = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
current["baseline"] = baseline

def times(doc):
    return {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

cur, base = times(current), times(baseline)
speedups = {}
for name in sorted(cur):
    if name in base and cur[name] > 0:
        speedups[name] = round(base[name] / cur[name], 3)
current["speedup_vs_baseline"] = speedups
json.dump(current, open(sys.argv[3], "w"), indent=1)
print(f"wrote {sys.argv[3]} with baseline + speedups", file=sys.stderr)
EOF
else
  cp "$raw" "$out"
  echo "wrote $out (no baseline given)" >&2
fi
