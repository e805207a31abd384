#include "insched/scheduler/serialize.hpp"

#include <algorithm>
#include <stdexcept>

#include "insched/support/assert.hpp"
#include "insched/support/json.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

namespace {

void append_steps(std::string& out, const std::vector<long>& steps) {
  out += '[';
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i) out += ',';
    out += format("%ld", steps[i]);
  }
  out += ']';
}

std::vector<long> integer_array(json::Reader& scan) {
  std::vector<long> out;
  scan.array([&] { out.push_back(scan.integer()); });
  return out;
}

}  // namespace

std::string schedule_to_json(const Schedule& schedule) {
  std::string out = format("{\"steps\":%ld,\"analyses\":[", schedule.steps());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const AnalysisSchedule& a = schedule.analysis(i);
    if (i) out += ',';
    out += "{\"name\":";
    json::append_string(out, a.name);
    out += ",\"analysis_steps\":";
    append_steps(out, a.analysis_steps);
    out += ",\"output_steps\":";
    append_steps(out, a.output_steps);
    out += '}';
  }
  out += "]}";
  return out;
}

Schedule schedule_from_json(const std::string& text) {
  json::Reader scan(text);
  long steps = 0;
  std::vector<AnalysisSchedule> analyses;
  scan.object([&](const std::string& key) {
    if (key == "steps") {
      steps = scan.integer();
    } else if (key == "analyses") {
      scan.array([&] {
        AnalysisSchedule a;
        scan.object([&](const std::string& field) {
          if (field == "name") a.name = scan.string();
          else if (field == "analysis_steps") a.analysis_steps = integer_array(scan);
          else if (field == "output_steps") a.output_steps = integer_array(scan);
          else throw std::runtime_error("json: unknown analysis field '" + field + "'");
        });
        analyses.push_back(std::move(a));
      });
    } else {
      throw std::runtime_error("json: unknown schedule field '" + key + "'");
    }
  });
  scan.expect_end();
  const std::string defect = schedule_defect(steps, analyses);
  if (!defect.empty()) throw std::runtime_error("json: " + defect);
  return Schedule(steps, std::move(analyses));
}

std::string solution_to_json(const ScheduleSolution& solution) {
  std::string out = "{\"solved\":";
  out += solution.solved ? "true" : "false";
  out += format(",\"proven_optimal\":%s", solution.proven_optimal ? "true" : "false");
  out += format(",\"objective\":%.10g", solution.objective);
  out += format(",\"solver_seconds\":%.6g", solution.solver_seconds);
  out += format(",\"nodes\":%ld", solution.nodes);
  out += ",\"frequencies\":";
  append_steps(out, solution.frequencies);
  out += ",\"output_counts\":";
  append_steps(out, solution.output_counts);
  out += format(",\"total_analysis_time\":%.10g", solution.validation.total_analysis_time);
  out += format(",\"time_budget\":%.10g", solution.validation.time_budget);
  out += format(",\"peak_memory\":%.10g", solution.validation.peak_memory);
  out += ",\"schedule\":";
  out += schedule_to_json(solution.schedule);
  out += '}';
  return out;
}

std::string render_gantt(const Schedule& schedule, int width) {
  INSCHED_EXPECTS(width >= 10);
  if (schedule.steps() == 0 || schedule.size() == 0) return "(empty schedule)\n";

  std::size_t label_width = 0;
  for (const AnalysisSchedule& a : schedule.analyses())
    label_width = std::max(label_width, a.name.size());
  label_width = std::min<std::size_t>(label_width, 24);

  const double steps_per_col =
      static_cast<double>(schedule.steps()) / static_cast<double>(width);
  std::string out = format("steps 1..%ld, %.1f steps per column\n", schedule.steps(),
                           steps_per_col);
  for (const AnalysisSchedule& a : schedule.analyses()) {
    std::string label = a.name.substr(0, label_width);
    label.resize(label_width, ' ');
    std::string row(static_cast<std::size_t>(width), '.');
    for (long step : a.analysis_steps) {
      auto col = static_cast<std::size_t>(static_cast<double>(step - 1) / steps_per_col);
      col = std::min<std::size_t>(col, static_cast<std::size_t>(width) - 1);
      if (row[col] != 'O') row[col] = '#';
    }
    for (long step : a.output_steps) {
      auto col = static_cast<std::size_t>(static_cast<double>(step - 1) / steps_per_col);
      col = std::min<std::size_t>(col, static_cast<std::size_t>(width) - 1);
      row[col] = 'O';
    }
    out += label + " |" + row + "|\n";
  }
  out += format("%*s  ('#' analysis, 'O' analysis+output)\n", static_cast<int>(label_width),
                "");
  return out;
}

}  // namespace insched::scheduler
