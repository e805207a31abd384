#pragma once

// Property-based instance fuzzer (ISSUE 9b): generates randomized scheduling
// instances — sizes, budgets, cost profiles, and deliberate degenerate
// corners — and drives each through the full pipeline
//
//   lint -> solve (greedy + MILP) -> validate -> replay
//
// asserting the cross-component soundness properties that no single unit
// test states:
//  * lint errors and solver infeasibility never crash;
//  * every schedule a solve reports as `solved` passes the exact validator;
//  * a zero-jitter replay reproduces the predicted trajectory exactly
//    (no divergence) and agrees on feasibility;
//  * a jittered replay never violates a budget without flagging divergence
//    (ReplayResult::sound());
//  * on every fourth fault-free seed with a proven MILP optimum, a
//    three-worker re-solve proves the same objective (1e-9 relative) with a
//    schedule the exact validator accepts — the parallel search checked
//    against the sequential one;
//  * on every fourth fault-free seed (offset from the parallel check) with a
//    proven time-expanded optimum, a cost-perturbed sibling solved cold, by
//    warm-delta re-solve and from the original solve's snapshot gets the
//    same feasibility, the same objective (1e-9 relative) and, warm, a
//    schedule the exact validator accepts — the warm paths checked against
//    the cold one.
//
// A seeded fraction of cases additionally arms the PR 4 fault-injection
// hooks (support/fault_inject.hpp) through mip::MipOptions::fault_spec, so
// the numerical-recovery ladder is exercised against random instances, not
// just the curated crash-suite ones. Everything is keyed off a single
// uint64 seed: `insched_fuzz --seed N` reproduces a finding bit-identically.

#include <cstdint>
#include <string>
#include <vector>

#include "insched/scheduler/params.hpp"

namespace insched::replay {

struct FuzzOptions {
  /// Fraction of cases that arm a random fault hook during the MILP solve.
  double fault_fraction = 0.1;
  /// Jitter half-width of the perturbed replay pass.
  double jitter = 0.05;
  /// Wall-clock budget per MILP solve; fuzz instances are small, so this is
  /// generous — it exists to bound pathological cases, not typical ones.
  double milp_time_limit_s = 5.0;
  /// Skip the MILP solve (greedy + replay only); for quick smoke passes.
  bool lint_and_greedy_only = false;
};

struct FuzzCaseResult {
  std::uint64_t seed = 0;
  bool ok = true;
  std::string failure;  ///< empty when ok; one line locating the violation

  // Pipeline observability (aggregated by run_fuzz into FuzzSummary).
  bool lint_rejected = false;  ///< generator produced an instance lint errors on
  bool solver_infeasible = false;
  bool fault_armed = false;
  bool degraded = false;  ///< MILP fell back to greedy
  long replays = 0;       ///< replay_schedule calls made for this case
  bool parallel_checked = false;  ///< parallel-vs-sequential oracle ran
  bool warm_checked = false;      ///< warm-vs-cold oracle ran
};

struct FuzzSummary {
  long cases = 0;
  long failures = 0;
  long lint_rejected = 0;
  long solver_infeasible = 0;
  long fault_armed = 0;
  long degraded = 0;
  long replays = 0;
  long parallel_checks = 0;
  long warm_checks = 0;
  /// Every failing case, in seed order (empty on a clean run).
  std::vector<FuzzCaseResult> failing;

  [[nodiscard]] bool clean() const noexcept { return failures == 0; }
};

/// Generates the instance for `seed`: 1-4 analyses, 8-64 steps, mixed
/// threshold kinds / output policies / finite-vs-infinite budgets, and a
/// sampled degenerate corner (zero-cost analysis, itv == steps, memory
/// budget grazing the activation floor, zero weight, ot derived from om/bw).
/// Always passes ScheduleProblem::validate(); lint may still reject it —
/// that path is part of what the fuzzer exercises.
[[nodiscard]] scheduler::ScheduleProblem fuzz_problem(std::uint64_t seed);

/// Runs the full pipeline for one seed.
[[nodiscard]] FuzzCaseResult run_fuzz_case(std::uint64_t seed, const FuzzOptions& options = {});

/// Runs seeds [seed_start, seed_start + count).
[[nodiscard]] FuzzSummary run_fuzz(std::uint64_t seed_start, long count,
                                   const FuzzOptions& options = {});

}  // namespace insched::replay
