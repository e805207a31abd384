#include "insched/scheduler/schedule.hpp"

#include <algorithm>
#include <functional>

#include "insched/support/assert.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

bool AnalysisSchedule::is_analysis_step(long step) const {
  return std::binary_search(analysis_steps.begin(), analysis_steps.end(), step);
}

bool AnalysisSchedule::is_output_step(long step) const {
  return std::binary_search(output_steps.begin(), output_steps.end(), step);
}

namespace {

bool strictly_increasing(const std::vector<long>& steps) {
  return std::adjacent_find(steps.begin(), steps.end(), std::greater_equal<>()) ==
         steps.end();
}

}  // namespace

std::string schedule_defect(long steps, const std::vector<AnalysisSchedule>& analyses) {
  if (steps < 0) return format("schedule covers %ld steps", steps);
  for (const AnalysisSchedule& a : analyses) {
    const char* name = a.name.c_str();
    if (!strictly_increasing(a.analysis_steps))
      return format("%s: analysis steps are not strictly increasing", name);
    if (!strictly_increasing(a.output_steps))
      return format("%s: output steps are not strictly increasing", name);
    if (!a.analysis_steps.empty() &&
        (a.analysis_steps.front() < 1 || a.analysis_steps.back() > steps))
      return format("%s: analysis steps leave [1, %ld]", name, steps);
    if (!std::includes(a.analysis_steps.begin(), a.analysis_steps.end(),
                       a.output_steps.begin(), a.output_steps.end()))
      return format("%s: an output step is not an analysis step", name);
  }
  return {};
}

Schedule::Schedule(long steps, std::vector<AnalysisSchedule> analyses)
    : steps_(steps), analyses_(std::move(analyses)) {
  const std::string defect = schedule_defect(steps_, analyses_);
  if (!defect.empty())
    contract_violation("precondition", defect.c_str(), __FILE__, __LINE__);
}

const AnalysisSchedule& Schedule::analysis(std::size_t i) const {
  INSCHED_EXPECTS(i < analyses_.size());
  return analyses_[i];
}

long Schedule::active_count() const noexcept {
  long active = 0;
  for (const AnalysisSchedule& a : analyses_)
    if (a.active()) ++active;
  return active;
}

long Schedule::total_analysis_steps() const noexcept {
  long total = 0;
  for (const AnalysisSchedule& a : analyses_) total += a.analysis_count();
  return total;
}

std::vector<long> Schedule::frequencies() const {
  std::vector<long> freq;
  freq.reserve(analyses_.size());
  for (const AnalysisSchedule& a : analyses_) freq.push_back(a.analysis_count());
  return freq;
}

double Schedule::objective(const std::vector<double>& weights) const {
  INSCHED_EXPECTS(weights.size() == analyses_.size());
  double value = static_cast<double>(active_count());
  for (std::size_t i = 0; i < analyses_.size(); ++i)
    value += weights[i] * static_cast<double>(analyses_[i].analysis_count());
  return value;
}

std::string Schedule::render(long max_steps, const std::vector<long>& sim_output_steps) const {
  std::string out;
  const long shown = std::min(steps_, max_steps);
  for (long j = 1; j <= shown; ++j) {
    out += 'S';
    if (std::binary_search(sim_output_steps.begin(), sim_output_steps.end(), j)) out += 'o';
    bool any_analysis = false;
    bool any_output = false;
    for (const AnalysisSchedule& a : analyses_) {
      any_analysis = any_analysis || a.is_analysis_step(j);
      any_output = any_output || a.is_output_step(j);
    }
    if (any_analysis) out += 'A';
    if (any_output) out += 'O';
    out += ' ';
  }
  if (shown < steps_) out += format("... (%ld more steps)", steps_ - shown);
  return out;
}

}  // namespace insched::scheduler
