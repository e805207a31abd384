#include "insched/scheduler/solver.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "insched/scheduler/aggregate_milp.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/placement.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/support/assert.hpp"
#include "insched/support/log.hpp"

namespace insched::scheduler {

const char* to_string(FailureClass failure) noexcept {
  switch (failure) {
    case FailureClass::kNone: return "none";
    case FailureClass::kInfeasibleModel: return "infeasible_model";
    case FailureClass::kTimeLimit: return "time_limit";
    case FailureClass::kNodeLimit: return "node_limit";
    case FailureClass::kWorkLimit: return "work_limit";
    case FailureClass::kNumerical: return "numerical";
    case FailureClass::kValidationFailed: return "validation_failed";
  }
  return "unknown";
}

namespace {

/// The solver's status, work and gap, before any decode.
ScheduleSolution solver_report(const mip::MipResult& res) {
  ScheduleSolution out;
  out.status = res.status;
  out.termination = res.termination;
  out.solver_seconds = res.solve_seconds;
  out.nodes = res.nodes;
  out.lp_iterations = res.lp_iterations;
  out.mip_counters = res.counters;
  out.snapshot = res.snapshot;
  out.diagnostics.gap_abs = res.gap();
  out.diagnostics.gap_rel = res.gap_rel();
  return out;
}

std::vector<double> weights_of(const ScheduleProblem& problem) {
  std::vector<double> w;
  w.reserve(problem.size());
  for (const AnalysisParams& a : problem.analyses) w.push_back(a.weight);
  return w;
}

ScheduleSolution solve_aggregate(const ScheduleProblem& problem, const SolveOptions& options,
                                 const std::vector<std::optional<long>>& fixed_counts = {}) {
  const AggregateModel built = build_aggregate_milp(problem, fixed_counts);
  const mip::MipResult res = mip::solve_mip(built.model, options.mip);
  ScheduleSolution out = solver_report(res);
  if (!res.has_solution) return out;

  const AggregateCounts counts = decode_aggregate(built, res.x);
  out.schedule = place(problem, PlacementRequest{counts.analysis_counts, counts.output_counts});
  out.frequencies = counts.analysis_counts;
  out.output_counts = counts.output_counts;
  out.objective = out.schedule.objective(weights_of(problem));
  out.solved = true;
  out.proven_optimal = res.optimal();
  return out;
}

ScheduleSolution solve_time_expanded(const ScheduleProblem& problem,
                                     const SolveOptions& options) {
  const TimeExpandedModel built = build_time_expanded_milp(problem);
  return time_expanded_solution(problem, built, mip::solve_mip(built.model, options.mip));
}

// Strict-priority solve: analyses are grouped into tiers by descending
// weight; each tier is maximized (|A_tier| + sum |C_i| over the tier) with
// all higher tiers' counts frozen and all lower tiers disabled, so a
// higher-priority analysis never gives up budget for a lower-priority one.
ScheduleSolution solve_lexicographic(const ScheduleProblem& problem, SolveOptions options) {
  if (problem.analyses.empty()) return solve_aggregate(problem, options);
  // Distinct weights, descending.
  std::vector<double> tiers;
  for (const AnalysisParams& a : problem.analyses) tiers.push_back(a.weight);
  std::sort(tiers.begin(), tiers.end(), std::greater<>());
  tiers.erase(std::unique(tiers.begin(), tiers.end()), tiers.end());

  std::vector<std::optional<long>> fixed(problem.size());
  ScheduleSolution last;
  // Work summed over every tier solved; a failed tier stops the loop and
  // still reports the tiers that ran before it.
  double total_seconds = 0.0;
  long total_nodes = 0;
  long total_iterations = 0;
  mip::MipCounters total_counters;
  for (double tier : tiers) {
    // Sub-problem: current-tier analyses carry unit weight; lower tiers are
    // disabled (count pinned to 0 unless already fixed).
    ScheduleProblem sub = problem;
    std::vector<std::optional<long>> sub_fixed = fixed;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (fixed[i].has_value()) continue;
      if (problem.analyses[i].weight == tier) {
        sub.analyses[i].weight = 1.0;
      } else {
        sub_fixed[i] = 0;  // lower tier: excluded from this pass
      }
    }
    last = solve_aggregate(sub, options, sub_fixed);
    if (last.snapshot) options.mip.snapshot = last.snapshot;  // the next tier starts warm
    total_seconds += last.solver_seconds;
    total_nodes += last.nodes;
    total_iterations += last.lp_iterations;
    total_counters += last.mip_counters;
    if (!last.solved) break;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (!fixed[i].has_value() && problem.analyses[i].weight == tier)
        fixed[i] = last.frequencies[i];
    }
  }
  last.solver_seconds = total_seconds;
  last.nodes = total_nodes;
  last.lp_iterations = total_iterations;
  last.mip_counters = total_counters;
  last.snapshot = options.mip.snapshot;
  // Report the objective in the paper's Eq-1 form for comparability.
  if (last.solved) last.objective = last.schedule.objective(weights_of(problem));
  return last;
}

// Maps a failed MILP outcome to the taxonomy. Only called when no usable
// schedule came back, so a limit termination here means "truncated without
// an incumbent".
FailureClass classify_failure(const ScheduleSolution& out) {
  switch (out.termination) {
    case mip::MipTermination::kProvedInfeasible: return FailureClass::kInfeasibleModel;
    case mip::MipTermination::kTimeLimit: return FailureClass::kTimeLimit;
    case mip::MipTermination::kNodeLimit: return FailureClass::kNodeLimit;
    case mip::MipTermination::kWorkLimit: return FailureClass::kWorkLimit;
    default: return FailureClass::kNumerical;
  }
}

// Graceful degradation: replace the (missing or invalid) MILP schedule with
// the greedy heuristic's. The greedy schedule satisfies the time budget and
// the conservative per-analysis memory bound by construction, so it is
// validated and only committed when the exact recurrence accepts it.
void degrade_to_greedy(const ScheduleProblem& problem, const SolveOptions& options,
                       FailureClass why, const std::string& message,
                       ScheduleSolution* out) {
  Schedule fallback = greedy_schedule(problem);
  if (options.run_validation) {
    out->validation = validate_schedule(problem, fallback);
    if (!out->validation.feasible) {
      // Even the heuristic cannot satisfy the exact recurrence: report the
      // original failure honestly instead of shipping an infeasible plan.
      out->solved = false;
      out->degraded = false;
      out->diagnostics.degraded = false;
      out->diagnostics.failure = why;
      out->diagnostics.message = message + "; greedy fallback failed validation";
      return;
    }
  }
  out->schedule = std::move(fallback);
  out->frequencies = out->schedule.frequencies();
  out->output_counts.clear();
  for (const AnalysisSchedule& a : out->schedule.analyses())
    out->output_counts.push_back(a.output_count());
  out->objective = out->schedule.objective(weights_of(problem));
  out->solved = true;
  out->proven_optimal = false;
  out->degraded = true;
  out->diagnostics.degraded = true;
  out->diagnostics.failure = why;
  out->diagnostics.message = message;
  INSCHED_LOG_WARN("scheduler degraded to greedy schedule: %s", message.c_str());
}

}  // namespace

ScheduleSolution time_expanded_solution(const ScheduleProblem& problem,
                                        const TimeExpandedModel& built,
                                        const mip::MipResult& res) {
  ScheduleSolution out = solver_report(res);
  if (!res.has_solution) return out;
  out.schedule = decode_time_expanded(problem, built, res.x);
  out.frequencies = out.schedule.frequencies();
  for (const AnalysisSchedule& a : out.schedule.analyses())
    out.output_counts.push_back(a.output_count());
  out.objective = out.schedule.objective(weights_of(problem));
  out.solved = true;
  out.proven_optimal = res.optimal();
  return out;
}

ScheduleSolution solve_schedule(const ScheduleProblem& problem, const SolveOptions& options) {
  problem.validate();
  ScheduleSolution out;

  // A non-positive time budget is honored before any MILP work: the MILP
  // cannot finish in 0 seconds, so skip straight to the greedy fallback
  // (deterministic, crash-free) instead of building and truncating a model.
  if (options.mip.time_limit_s <= 0.0) {
    out.status = lp::SolveStatus::kIterationLimit;
    out.termination = mip::MipTermination::kTimeLimit;
    out.diagnostics.failure = FailureClass::kTimeLimit;
    out.diagnostics.message = "time budget exhausted before the MILP solve started";
    if (options.fallback_to_greedy)
      degrade_to_greedy(problem, options, FailureClass::kTimeLimit,
                        "time budget exhausted before the MILP solve started", &out);
    return out;
  }

  // Each solve starts from the previous one's snapshot.
  SolveOptions chained = options;
  const auto run = [&chained](const ScheduleProblem& p) {
    ScheduleSolution s;
    if (chained.formulation == Formulation::kTimeExpanded)
      s = solve_time_expanded(p, chained);
    else if (chained.weight_mode == WeightMode::kLexicographic)
      s = solve_lexicographic(p, chained);
    else
      s = solve_aggregate(p, chained);
    if (s.snapshot) chained.mip.snapshot = s.snapshot;
    s.snapshot = chained.mip.snapshot;
    return s;
  };

  out = run(problem);
  int resolve_attempts = 0;
  if (out.solved && options.run_validation) {
    out.validation = validate_schedule(problem, out.schedule);
    // The aggregate memory bound is conservative against placement's gap
    // guarantee, so validation normally passes. If an edge case slips
    // through (e.g. an exotic grid/output interaction), re-solve with a
    // tightened memory budget until the exact recurrence accepts the
    // schedule, rather than returning an infeasible plan.
    ScheduleProblem tightened = problem;
    for (int attempt = 0; !out.validation.feasible && attempt < 4; ++attempt) {
      bool memory_violation = false;
      for (const std::string& v : out.validation.violations) {
        INSCHED_LOG_WARN("schedule validation: %s", v.c_str());
        memory_violation = memory_violation || v.find("memory") != std::string::npos;
      }
      if (!memory_violation || !std::isfinite(problem.mth)) break;
      tightened.mth *= 0.9;
      ++resolve_attempts;
      out = run(tightened);
      if (!out.solved) break;
      out.validation = validate_schedule(problem, out.schedule);
    }
  }
  out.diagnostics.resolve_attempts = resolve_attempts;

  if (!out.solved) {
    const FailureClass why = classify_failure(out);
    out.diagnostics.failure = why;
    out.diagnostics.message =
        std::string("MILP solve failed: ") + mip::to_string(out.termination);
    if (options.fallback_to_greedy && why != FailureClass::kInfeasibleModel) {
      // A proven-infeasible model is a statement about the problem, not a
      // solver failure — substituting a heuristic schedule would mask it.
      degrade_to_greedy(problem, options, why, out.diagnostics.message, &out);
      out.diagnostics.resolve_attempts = resolve_attempts;
    }
  } else if (options.run_validation && !out.validation.feasible) {
    // Tightened re-solves exhausted without an acceptable schedule.
    out.diagnostics.failure = FailureClass::kValidationFailed;
    out.diagnostics.message = "MILP schedule failed exact validation";
    if (options.fallback_to_greedy) {
      degrade_to_greedy(problem, options, FailureClass::kValidationFailed,
                        out.diagnostics.message, &out);
      out.diagnostics.resolve_attempts = resolve_attempts;
    } else {
      out.solved = false;
    }
  }
  return out;
}

}  // namespace insched::scheduler
