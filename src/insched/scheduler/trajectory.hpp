#pragma once

// Per-step trajectory extraction: the time/memory state the Eq 2-8
// recurrences predict for a concrete schedule, step by step, rather than the
// endpoint totals validate_schedule() reports. This is the surface the
// discrete-event replay simulator (src/insched/replay/) compares against —
// a divergence report needs *where* predicted and replayed trajectories
// separate, not just that the totals differ.
//
// Producers:
//  - record_trajectory(): the recurrence::Walker recording its per-step
//    series under any cost hook — predicted_trajectory() feeds it the
//    problem's own costs, the replay simulator its seeded jitter;
//  - trajectory_from_time_expanded(): reads the mStart/mEnd columns straight
//    out of a solved time-expanded MILP vector, so tests can check that the
//    solver's linearized memory rows agree with the literal recurrence.

#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/scheduler/recurrence.hpp"
#include "insched/scheduler/schedule.hpp"
#include "insched/scheduler/timeexp_milp.hpp"

namespace insched::scheduler {

/// Per-step time/memory state of one schedule under one problem's costs.
/// Vectors are indexed 0..steps-1 for simulation steps 1..steps (the
/// recurrences are 1-based; step 0 carries only the setup charge).
struct Trajectory {
  long steps = 0;
  double setup_seconds = 0.0;  ///< sum of ft over active analyses (step 0)

  /// Analysis seconds charged at step j: sum over active analyses of
  /// it + ct [j in C_i] + ot [j in O_i].
  std::vector<double> analysis_seconds;
  /// Cumulative analysis seconds through step j, setup included — the
  /// running tAnalyze total of Eq 2-3 summed over analyses.
  std::vector<double> cumulative_seconds;
  /// sum_i mStart_{i,j} (Eq 8 left-hand side at step j).
  std::vector<double> memory_start;

  double total_seconds = 0.0;  ///< cumulative_seconds.back() (or setup)
  double peak_memory = 0.0;    ///< max over memory_start
  long peak_memory_step = 0;   ///< 1-based step of the peak (0: no steps)
};

/// Runs `walker` (fresh, schedule level) to the end under `cost` and
/// records the per-step state it commits.
template <class CostFn>
[[nodiscard]] Trajectory record_trajectory(recurrence::Walker& walker, long steps,
                                           CostFn&& cost) {
  Trajectory t;
  t.steps = steps;
  t.analysis_seconds.resize(static_cast<std::size_t>(steps));
  t.cumulative_seconds.resize(static_cast<std::size_t>(steps));
  t.memory_start.resize(static_cast<std::size_t>(steps));
  walker.start(cost);
  t.setup_seconds = walker.setup_seconds();
  for (std::size_t k = 0; k < t.memory_start.size(); ++k) {
    t.memory_start[k] = walker.advance(cost);
    t.analysis_seconds[k] = walker.step_seconds();
    t.cumulative_seconds[k] = walker.cumulative_seconds();
  }
  t.total_seconds = walker.cumulative_seconds();
  t.peak_memory = walker.peak();
  t.peak_memory_step = walker.peak_step();
  return t;
}

/// The Eq 2-8 trajectory of `schedule` under the problem's own costs. The
/// memory peak agrees with validate_schedule() exactly (the same walk);
/// the time total agrees to rounding only — the validator sums closed-form
/// per-analysis totals (ct * |C_i|), this walks step by step. The schedule
/// must structurally match the problem (same analysis count, steps);
/// asserted, not reported.
[[nodiscard]] Trajectory predicted_trajectory(const ScheduleProblem& problem,
                                              const Schedule& schedule);

/// Reads the trajectory out of a solved time-expanded MILP: analysis/output
/// indicators from the binaries, per-step memory from the mStart columns
/// when the model has them (finite mth), otherwise from the recurrence walk
/// of the decoded schedule. Note the big-M linearization only bounds mStart
/// from *below*, so a solver may leave slack above the literal recurrence
/// value; compare with a one-sided check (column >= recurrence - tol).
[[nodiscard]] Trajectory trajectory_from_time_expanded(const ScheduleProblem& problem,
                                                       const TimeExpandedModel& built,
                                                       const std::vector<double>& x);

}  // namespace insched::scheduler
