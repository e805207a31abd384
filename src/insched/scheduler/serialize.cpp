#include "insched/scheduler/serialize.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "insched/support/assert.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

namespace {

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

void append_steps(std::string& out, const std::vector<long>& steps) {
  out += '[';
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i) out += ',';
    out += format("%ld", steps[i]);
  }
  out += ']';
}

/// Minimal recursive-descent scanner for the subset we emit.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip();
    if (pos_ >= text_.size() || text_[pos_] != c)
      throw std::runtime_error(format("json: expected '%c' at offset %zu", c, pos_));
    ++pos_;
  }

  [[nodiscard]] bool accept(char c) {
    skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        c = esc == 'n' ? '\n' : (esc == 't' ? '\t' : esc);
      }
      out += c;
    }
    if (pos_ >= text_.size()) throw std::runtime_error("json: unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[nodiscard]] long integer_value() {
    skip();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start) throw std::runtime_error("json: expected integer");
    return std::stol(text_.substr(start, pos_ - start));
  }

  [[nodiscard]] std::vector<long> integer_array() {
    std::vector<long> out;
    expect('[');
    if (accept(']')) return out;
    while (true) {
      out.push_back(integer_value());
      if (accept(']')) break;
      expect(',');
    }
    return out;
  }

  void skip() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string schedule_to_json(const Schedule& schedule) {
  std::string out = format("{\"steps\":%ld,\"analyses\":[", schedule.steps());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const AnalysisSchedule& a = schedule.analysis(i);
    if (i) out += ',';
    out += "{\"name\":";
    append_escaped(out, a.name);
    out += ",\"analysis_steps\":";
    append_steps(out, a.analysis_steps);
    out += ",\"output_steps\":";
    append_steps(out, a.output_steps);
    out += '}';
  }
  out += "]}";
  return out;
}

Schedule schedule_from_json(const std::string& json) {
  JsonScanner scan(json);
  scan.expect('{');
  long steps = 0;
  std::vector<AnalysisSchedule> analyses;
  while (true) {
    const std::string key = scan.string_value();
    scan.expect(':');
    if (key == "steps") {
      steps = scan.integer_value();
    } else if (key == "analyses") {
      scan.expect('[');
      if (!scan.accept(']')) {
        while (true) {
          scan.expect('{');
          AnalysisSchedule a;
          while (true) {
            const std::string field = scan.string_value();
            scan.expect(':');
            if (field == "name") {
              a.name = scan.string_value();
            } else if (field == "analysis_steps") {
              a.analysis_steps = scan.integer_array();
            } else if (field == "output_steps") {
              a.output_steps = scan.integer_array();
            } else {
              throw std::runtime_error("json: unknown analysis field '" + field + "'");
            }
            if (!scan.accept(',')) break;
          }
          scan.expect('}');
          analyses.push_back(std::move(a));
          if (!scan.accept(',')) break;
        }
        scan.expect(']');
      }
    } else {
      throw std::runtime_error("json: unknown schedule field '" + key + "'");
    }
    if (!scan.accept(',')) break;
  }
  scan.expect('}');
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
