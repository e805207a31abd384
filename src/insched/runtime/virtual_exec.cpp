#include "insched/runtime/virtual_exec.hpp"

#include "insched/scheduler/recurrence.hpp"
#include "insched/support/assert.hpp"

namespace insched::runtime {

VirtualRunReport virtual_execute(const scheduler::ScheduleProblem& problem,
                                 const scheduler::Schedule& schedule,
                                 const VirtualExecConfig& config) {
  INSCHED_EXPECTS(schedule.size() == problem.size());
  INSCHED_EXPECTS(schedule.steps() == problem.steps);
  // Reality may charge different costs than the model the schedule was
  // solved with; the replay then bills `actual` and streams the deltas to
  // the online model so drift detection sees what a real run would.
  const scheduler::ScheduleProblem& real = config.actual ? *config.actual : problem;
  INSCHED_EXPECTS(real.size() == problem.size());
  INSCHED_EXPECTS(real.steps == problem.steps);

  VirtualRunReport report;
  report.metrics.steps = problem.steps;
  report.metrics.analyses.resize(problem.size());
  report.step_seconds.assign(static_cast<std::size_t>(problem.steps), 0.0);
  for (std::size_t i = 0; i < problem.size(); ++i)
    report.metrics.analyses[i].name = schedule.analysis(i).name;

  // The walker bills `real`'s costs; the hook mirrors each time charge into
  // the RunMetrics view and streams analysis/output costs to the online model.
  using scheduler::recurrence::Cost;
  const auto bill = [&](Cost kind, std::size_t i) {
    const double cost = scheduler::recurrence::nominal_cost(real, kind, i);
    AnalysisMetrics& m = report.metrics.analyses[i];
    switch (kind) {
      case Cost::kFt: m.setup_seconds = cost; break;
      case Cost::kIt: m.per_step_seconds += cost; break;
      case Cost::kCt:
        m.compute_seconds += cost;
        ++m.analysis_steps;
        if (config.online != nullptr)
          config.online->observe(m.name, {.ct = cost, .cm = real.analyses[i].cm});
        break;
      case Cost::kOt:
        m.output_seconds += cost;
        m.bytes_written += real.analyses[i].om;
        ++m.output_steps;
        if (config.online != nullptr) config.online->observe(m.name, {.ot = cost});
        break;
      default: break;  // memory costs live in the walker
    }
    return cost;
  };

  scheduler::recurrence::Walker walker(schedule, problem.mth);
  walker.start(bill);
  for (long step = 1; step <= problem.steps; ++step) {
    (void)walker.advance(bill);
    double step_time = config.sim_time_per_step + walker.step_seconds();
    report.metrics.simulation_seconds += config.sim_time_per_step;
    // Simulation output frames.
    if (config.sim_output_interval > 0 && step % config.sim_output_interval == 0 &&
        config.write_bw > 0.0) {
      const double t = config.sim_output_bytes_per_step / config.write_bw;
      report.sim_output_seconds += t;
      step_time += t;
    }
    report.step_seconds[static_cast<std::size_t>(step - 1)] = step_time;
  }

  report.metrics.peak_memory_bytes = walker.peak();
  report.metrics.memory_violations = walker.violations();
  report.end_to_end_seconds = report.metrics.simulation_seconds +
                              report.metrics.total_analysis_seconds() +
                              report.sim_output_seconds;
  return report;
}

}  // namespace insched::runtime
