#include "insched/replay/replay.hpp"

#include <algorithm>
#include <cmath>

#include "insched/scheduler/recurrence.hpp"
#include "insched/support/assert.hpp"
#include "insched/support/random.hpp"
#include "insched/support/string_util.hpp"

namespace insched::replay {

namespace {

using scheduler::recurrence::Cost;
using scheduler::recurrence::is_memory_cost;
using scheduler::recurrence::memory_exceeds_budget;
using scheduler::recurrence::time_exceeds_budget;

[[nodiscard]] double jittered(double cost, double jitter, Rng& rng) noexcept {
  if (jitter <= 0.0 || cost == 0.0) return cost;
  return std::max(0.0, cost * (1.0 + jitter * rng.uniform(-1.0, 1.0)));
}

}  // namespace

ReplayResult replay_schedule(const scheduler::ScheduleProblem& problem,
                             const scheduler::Schedule& schedule,
                             const ReplayOptions& options) {
  INSCHED_EXPECTS(schedule.size() == problem.size());
  INSCHED_EXPECTS(schedule.steps() == problem.steps);

  ReplayResult result;
  result.predicted = scheduler::predicted_trajectory(problem, schedule);

  const long steps = problem.steps;
  const double time_budget = problem.time_budget();

  // The walker asks for each cost in its fixed event order; time costs are
  // drawn per event, memory costs once per analysis at activation (see the
  // jitter semantics in the header).
  Rng rng(options.seed);
  const auto jitter = [&](Cost kind, std::size_t i) {
    return jittered(scheduler::recurrence::nominal_cost(problem, kind, i),
                    is_memory_cost(kind) ? options.memory_jitter : options.time_jitter, rng);
  };
  scheduler::recurrence::Walker walker(schedule);
  result.replayed = scheduler::record_trajectory(walker, steps, jitter);
  result.events = walker.events();
  const scheduler::Trajectory& replayed = result.replayed;

  // Feasibility of both trajectories against the problem's budgets, with
  // the shared recurrence comparisons — the same call the validator makes.
  result.predicted_time_feasible =
      !time_exceeds_budget(result.predicted.total_seconds, time_budget);
  result.predicted_memory_feasible =
      !memory_exceeds_budget(result.predicted.peak_memory, problem.mth);
  result.replayed_time_feasible = !time_exceeds_budget(replayed.total_seconds, time_budget);
  result.replayed_memory_feasible =
      !memory_exceeds_budget(replayed.peak_memory, problem.mth);

  // Divergence scan: first step where either trajectory separates beyond
  // the relative tolerance, plus the maximum deviations.
  DivergenceReport& div = result.divergence;
  bool time_noted = false, memory_noted = false;
  for (long j = 1; j <= steps; ++j) {
    const auto k = static_cast<std::size_t>(j - 1);
    const double pred_t = result.predicted.cumulative_seconds[k];
    const double dev_t = std::fabs(replayed.cumulative_seconds[k] - pred_t);
    const double pred_m = result.predicted.memory_start[k];
    const double dev_m = std::fabs(replayed.memory_start[k] - pred_m);
    const bool time_diverged = dev_t > options.time_rel_tol * std::max(1.0, std::fabs(pred_t));
    const bool memory_diverged =
        dev_m > options.memory_rel_tol * std::max(1.0, std::fabs(pred_m));
    if ((time_diverged || memory_diverged) && div.first_step == 0) div.first_step = j;
    if (time_diverged && !time_noted) {
      div.notes.push_back(format("time diverges at step %ld: replayed %.9g vs predicted %.9g",
                                 j, replayed.cumulative_seconds[k], pred_t));
      time_noted = true;
    }
    if (memory_diverged && !memory_noted) {
      div.notes.push_back(
          format("memory diverges at step %ld: replayed %.9g vs predicted %.9g", j,
                 replayed.memory_start[k], pred_m));
      memory_noted = true;
    }
    if (dev_t > div.max_time_deviation) {
      div.max_time_deviation = dev_t;
      div.max_time_step = j;
    }
    if (dev_m > div.max_memory_deviation) {
      div.max_memory_deviation = dev_m;
      div.max_memory_step = j;
    }
  }
  div.diverged = div.first_step != 0;
  return result;
}

}  // namespace insched::replay
