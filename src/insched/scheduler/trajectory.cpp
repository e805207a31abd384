#include "insched/scheduler/trajectory.hpp"

#include "insched/support/assert.hpp"

namespace insched::scheduler {

Trajectory predicted_trajectory(const ScheduleProblem& problem, const Schedule& schedule) {
  INSCHED_EXPECTS(schedule.size() == problem.size());
  INSCHED_EXPECTS(schedule.steps() == problem.steps);
  recurrence::Walker walker(schedule);
  return record_trajectory(walker, problem.steps, recurrence::NominalCosts{problem});
}

Trajectory trajectory_from_time_expanded(const ScheduleProblem& problem,
                                         const TimeExpandedModel& built,
                                         const std::vector<double>& x) {
  const Schedule schedule = decode_time_expanded(problem, built, x);
  Trajectory t = predicted_trajectory(problem, schedule);

  // When the model carries explicit memory columns, report *those* instead
  // of the recurrence walk: the caller wants to see what the solver's big-M
  // rows actually pinned, slack included.
  bool has_mem_columns = false;
  for (const auto& ms : built.vars.mem_start) has_mem_columns |= !ms.empty();
  if (!has_mem_columns) return t;

  t.peak_memory = 0.0;
  t.peak_memory_step = 0;
  for (long j = 1; j <= t.steps; ++j) {
    double total_start = 0.0;
    for (std::size_t i = 0; i < built.vars.mem_start.size(); ++i) {
      const auto& ms = built.vars.mem_start[i];
      if (ms.empty()) continue;
      const auto col = static_cast<std::size_t>(ms[static_cast<std::size_t>(j - 1)]);
      INSCHED_ASSERT(col < x.size());
      total_start += x[col];
    }
    const auto k = static_cast<std::size_t>(j - 1);
    t.memory_start[k] = total_start;
    if (total_start > t.peak_memory) {
      t.peak_memory = total_start;
      t.peak_memory_step = j;
    }
  }
  return t;
}

}  // namespace insched::scheduler
