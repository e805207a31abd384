#include "insched/scheduler/validator.hpp"

#include "insched/scheduler/recurrence.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

ValidationReport validate_schedule(const ScheduleProblem& problem, const Schedule& schedule) {
  problem.validate();
  ValidationReport report;
  report.time_budget = problem.time_budget();
  report.memory_budget = problem.mth;

  if (schedule.size() != problem.size()) {
    report.violations.push_back(
        format("schedule has %zu analyses, problem has %zu", schedule.size(), problem.size()));
    return report;
  }
  if (schedule.steps() != problem.steps) {
    report.violations.push_back(format("schedule covers %ld steps, problem has %ld",
                                       schedule.steps(), problem.steps));
    return report;
  }

  const long steps = problem.steps;
  const std::size_t n = problem.size();

  // --- Structural checks the Schedule type leaves open: the output policy
  // and the interval rule (Eq 9).
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& p = problem.analyses[i];
    const AnalysisSchedule& s = schedule.analysis(i);
    if (problem.output_policy == OutputPolicy::kEveryAnalysis &&
        s.output_count() != s.analysis_count()) {
      report.violations.push_back(format("%s: policy requires output at every analysis step",
                                         p.name.c_str()));
    }
    if (problem.output_policy == OutputPolicy::kNone && s.output_count() != 0) {
      report.violations.push_back(format("%s: policy forbids outputs", p.name.c_str()));
    }
    if (s.analysis_count() > problem.max_analysis_steps(i)) {
      report.violations.push_back(format("%s: %ld analysis steps exceed Steps/itv = %ld",
                                         p.name.c_str(), s.analysis_count(),
                                         problem.max_analysis_steps(i)));
    }
    for (std::size_t k = 1; k < s.analysis_steps.size(); ++k) {
      const long gap = s.analysis_steps[k] - s.analysis_steps[k - 1];
      if (gap < p.itv) {
        report.violations.push_back(format("%s: gap %ld between steps %ld and %ld below itv %ld",
                                           p.name.c_str(), gap, s.analysis_steps[k - 1],
                                           s.analysis_steps[k], p.itv));
      }
    }
  }

  // --- Time (Eqs 2-4): closed-form per-analysis totals from the counts ----
  report.breakdown.reserve(n);
  double total_time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& p = problem.analyses[i];
    const AnalysisSchedule& s = schedule.analysis(i);
    TimeBreakdown tb;
    tb.name = p.name;
    if (s.active()) {
      tb.setup = p.ft;                                      // Eq 3
      tb.per_step = p.it * static_cast<double>(steps);      // it every step
      tb.compute = p.ct * static_cast<double>(s.analysis_count());
      tb.output = problem.output_time(i) * static_cast<double>(s.output_count());
    }
    total_time += tb.total();
    report.breakdown.push_back(std::move(tb));
  }
  report.total_analysis_time = total_time;
  if (recurrence::time_exceeds_budget(total_time, report.time_budget)) {
    report.violations.push_back(format("total analysis time %.6f exceeds budget %.6f",
                                       total_time, report.time_budget));
  }

  // --- Memory (Eqs 5-8): the recurrence walked step by step ----------------
  recurrence::Walker walker(schedule);
  walker.run(recurrence::NominalCosts{problem});
  report.peak_memory = walker.peak();
  report.peak_memory_step = walker.peak_step();
  if (recurrence::memory_exceeds_budget(report.peak_memory, problem.mth)) {
    report.violations.push_back(format("peak memory %.0f at step %ld exceeds mth %.0f",
                                       report.peak_memory, report.peak_memory_step,
                                       problem.mth));
  }

  report.feasible = report.violations.empty();
  return report;
}

}  // namespace insched::scheduler
