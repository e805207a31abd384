// insched_fuzz — property-based instance fuzzer (docs/REPLAY.md).
//
// Drives randomized scheduling instances through the full pipeline
// (lint -> greedy + MILP solve -> exact validation -> discrete-event
// replay), asserting the cross-component soundness properties encoded in
// replay/fuzz.hpp. A sampled fraction of cases arms a fault-injection hook
// during the MILP solve so the numerical-recovery ladder is exercised on
// random instances too. Fully deterministic: --seed N reproduces a finding
// bit-identically (run under ASan for crash hunting: tools/run_fuzz.sh).
//
//   insched_fuzz [--seeds N] [--seed-start S] [--seed S]
//                [--fault-fraction F] [--jitter J] [--time-limit T]
//                [--quick] [--corpus DIR]
//     --seeds N           number of seeds to run (default 100)
//     --seed-start S      first seed (default 1)
//     --seed S            run exactly one seed (equivalent to
//                         --seed-start S --seeds 1)
//     --fault-fraction F  fraction of cases arming a fault hook (default 0.1)
//     --jitter J          jitter half-width of the perturbed replay (default 0.05)
//     --time-limit T      per-case MILP wall-clock budget in seconds (default 5)
//     --quick             lint + greedy + replay only (no MILP solves)
//     --corpus DIR        also materialize the scenario-sweep corpus to DIR
//
// Exit codes: 0 = clean, 1 = at least one property violation (each failing
//             seed printed), 3 = usage error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/replay/fuzz.hpp"
#include "insched/replay/scenario.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed-start S] [--seed S] [--fault-fraction F]\n"
               "          [--jitter J] [--time-limit T] [--quick] [--corpus DIR]\n",
               argv0);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace insched;

  long seeds = 100;
  std::uint64_t seed_start = 1;
  replay::FuzzOptions options;
  std::string corpus_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seeds" && has_value) {
      seeds = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--seed-start" && has_value) {
      seed_start = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && has_value) {
      seed_start = std::strtoull(argv[++i], nullptr, 10);
      seeds = 1;
    } else if (arg == "--fault-fraction" && has_value) {
      options.fault_fraction = std::strtod(argv[++i], nullptr);
    } else if (arg == "--jitter" && has_value) {
      options.jitter = std::strtod(argv[++i], nullptr);
    } else if (arg == "--time-limit" && has_value) {
      options.milp_time_limit_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--quick") {
      options.lint_and_greedy_only = true;
    } else if (arg == "--corpus" && has_value) {
      corpus_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (seeds <= 0) return usage(argv[0]);

  try {
    if (!corpus_dir.empty()) {
      const std::vector<replay::ScenarioBase> bases = {
          {"water", casestudy::water_ions_problem(16384, 0.08)},
          {"rhodo", casestudy::rhodopsin_problem(100.0)},
          {"flash", casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08)},
      };
      const std::string index = replay::write_corpus(replay::scenario_sweep(bases), corpus_dir);
      std::printf("corpus: %s\n", index.c_str());
    }

    const replay::FuzzSummary summary = replay::run_fuzz(seed_start, seeds, options);
    for (const replay::FuzzCaseResult& f : summary.failing)
      std::printf("FAIL seed %" PRIu64 ": %s\n", f.seed, f.failure.c_str());
    std::printf("fuzz: %ld cases, %ld failures | lint-rejected %ld, infeasible %ld, "
                "fault-armed %ld, degraded %ld, replays %ld, parallel-checks %ld, "
                "warm-checks %ld\n",
                summary.cases, summary.failures, summary.lint_rejected,
                summary.solver_infeasible, summary.fault_armed, summary.degraded,
                summary.replays, summary.parallel_checks, summary.warm_checks);
    return summary.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
