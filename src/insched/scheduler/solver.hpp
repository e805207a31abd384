#pragma once

// InsituScheduler — the library's main entry point. Builds the MILP for a
// ScheduleProblem (aggregate by default, time-expanded on request), solves it
// with the branch-and-bound engine, places the recommended counts on the
// timeline, and validates the resulting schedule against the exact Eqs 2-9.
//
// Failure handling (docs/ROBUSTNESS.md): every exit is classified into a
// FailureClass and reported in ScheduleSolution::diagnostics. When the MILP
// cannot deliver a validated schedule — blown time budget, node/work limit
// without an incumbent, numerical collapse, or a validation failure that
// survives the tightened re-solves — solve_schedule degrades to the greedy
// heuristic (greedy.hpp) instead of asserting or returning nothing: the
// caller always gets a feasible schedule, flagged `degraded`, unless
// `fallback_to_greedy` is disabled.

#include <memory>
#include <string>

#include "insched/mip/branch_and_bound.hpp"
#include "insched/scheduler/params.hpp"
#include "insched/scheduler/schedule.hpp"
#include "insched/scheduler/validator.hpp"

namespace insched::scheduler {

enum class Formulation {
  kAggregate,     ///< count-based (default; scales to Steps = 10^3 and beyond)
  kTimeExpanded,  ///< the paper's per-step 0-1 program (exact oracle, small Steps)
};

/// How importance weights enter the optimization (the paper says "a higher
/// weight implies more importance"; both readings are provided):
enum class WeightMode {
  kWeightedSum,    ///< Eq 1 verbatim: maximize |A| + sum w_i |C_i|
  kLexicographic,  ///< strict priority tiers by descending weight: maximize
                   ///< higher-weight analyses first, then lower tiers with
                   ///< the leftover budget (reproduces Table 8's behaviour)
};

struct SolveOptions {
  Formulation formulation = Formulation::kAggregate;
  WeightMode weight_mode = WeightMode::kWeightedSum;
  mip::MipOptions mip;
  bool run_validation = true;
  /// Degrade to the greedy schedule (flagged in diagnostics) when the MILP
  /// fails outright or its schedule cannot be validated. Off: failures are
  /// reported as `solved == false` with the failure class filled in.
  bool fallback_to_greedy = true;
};

/// Coarse taxonomy of why a solve fell short of a proven-optimal, validated
/// schedule (docs/ROBUSTNESS.md).
enum class FailureClass {
  kNone,              ///< clean solve
  kInfeasibleModel,   ///< the MILP itself is infeasible
  kTimeLimit,         ///< wall-clock budget exhausted
  kNodeLimit,         ///< node budget exhausted without an incumbent
  kWorkLimit,         ///< LP-iteration budget exhausted without an incumbent
  kNumerical,         ///< solver numerical failure after all recovery rungs
  kValidationFailed,  ///< MILP schedule kept failing the exact Eq 2-9 check
};

[[nodiscard]] const char* to_string(FailureClass failure) noexcept;

/// Structured failure report attached to every ScheduleSolution. Recovery
/// actions are counted in `ScheduleSolution::mip_counters.recoveries()`.
struct SolveDiagnostics {
  FailureClass failure = FailureClass::kNone;
  bool degraded = false;      ///< schedule came from the greedy fallback
  int resolve_attempts = 0;   ///< validation-driven tightened re-solves
  double gap_abs = 0.0;       ///< |bound - incumbent| of the final MIP solve
  double gap_rel = 0.0;       ///< gap_abs / max(1, |objective|)
  std::string message;        ///< one-line human-readable explanation
};

struct ScheduleSolution {
  bool solved = false;       ///< a feasible schedule was found
  bool proven_optimal = false;
  /// True when `schedule` is the greedy fallback, not a MILP optimum
  /// (mirrors diagnostics.degraded for quick checks).
  bool degraded = false;
  Schedule schedule;
  std::vector<long> frequencies;    ///< |C_i| per analysis (paper-table rows)
  std::vector<long> output_counts;  ///< |O_i| per analysis
  double objective = 0.0;           ///< |A| + sum w_i |C_i|
  double solver_seconds = 0.0;
  long nodes = 0;
  long lp_iterations = 0;
  ValidationReport validation;      ///< filled when run_validation
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  /// Why the (final) MIP solve stopped; lexicographic solves report the last
  /// tier's termination but accumulate nodes/iterations/counters over all.
  mip::MipTermination termination = mip::MipTermination::kNumericalFailure;
  mip::MipCounters mip_counters;    ///< warm/cold solves, steals, ... summed over tiers
  SolveDiagnostics diagnostics;     ///< failure taxonomy + degradation report
  /// Warm start for a later same-shape solve (SolveOptions::mip.snapshot):
  /// the snapshot of the last MIP solve that produced one. Lexicographic
  /// tiers and tightened re-solves each start from the previous one's; when
  /// no solve produced one, this is the snapshot the solve was given.
  std::shared_ptr<const mip::MipSnapshot> snapshot;
};

[[nodiscard]] ScheduleSolution solve_schedule(const ScheduleProblem& problem,
                                              const SolveOptions& options = {});

struct TimeExpandedModel;

/// Decodes one solve of the time-expanded MILP `built` (from
/// build_time_expanded_milp(problem)): the solver's status, work and gap,
/// and, when `result` carries a solution, the schedule with its
/// frequencies, output counts and objective. Validation and the failure
/// taxonomy are left to the caller.
[[nodiscard]] ScheduleSolution time_expanded_solution(const ScheduleProblem& problem,
                                                      const TimeExpandedModel& built,
                                                      const mip::MipResult& result);

}  // namespace insched::scheduler
