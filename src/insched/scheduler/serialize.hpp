#pragma once

// JSON serialization of schedules and solutions for downstream tooling
// (dashboards, notebooks, workflow managers), written and read with the
// support/json codec. The schedule JSON can be parsed back, enabling
// plan-now/execute-later workflows.

#include <string>

#include "insched/scheduler/schedule.hpp"
#include "insched/scheduler/solver.hpp"

namespace insched::scheduler {

/// {"steps": N, "analyses": [{"name": ..., "analysis_steps": [...],
///  "output_steps": [...]}, ...]}
[[nodiscard]] std::string schedule_to_json(const Schedule& schedule);

/// Parses schedule_to_json output. Throws std::runtime_error on malformed
/// input, including step lists that break the Schedule invariant
/// (schedule_defect).
[[nodiscard]] Schedule schedule_from_json(const std::string& json);

/// Full solution: schedule + frequencies + validation summary.
[[nodiscard]] std::string solution_to_json(const ScheduleSolution& solution);

/// Gantt-style multi-row timeline: one row per analysis, one column per
/// simulation step bucket; '#' marks analysis steps, 'O' output steps.
/// `width` is the number of character columns the timeline is compressed to.
[[nodiscard]] std::string render_gantt(const Schedule& schedule, int width = 80);

}  // namespace insched::scheduler
