#include "insched/serve/protocol.hpp"

#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <utility>

#include "insched/scheduler/problem_io.hpp"
#include "insched/support/config.hpp"
#include "insched/support/json.hpp"
#include "insched/support/string_util.hpp"

namespace insched::serve {

const char* to_string(RequestOp op) noexcept {
  switch (op) {
    case RequestOp::kSolve: return "solve";
    case RequestOp::kReschedule: return "reschedule";
    case RequestOp::kPing: return "ping";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kShutdown: return "shutdown";
  }
  return "solve";
}

const char* to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDegraded: return "degraded";
    case ResponseStatus::kInfeasible: return "infeasible";
    case ResponseStatus::kLintRejected: return "lint_rejected";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kError: return "error";
  }
  return "error";
}

int exit_code(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return 0;
    case ResponseStatus::kDegraded: return 3;
    case ResponseStatus::kInfeasible: return 1;
    case ResponseStatus::kLintRejected: return 4;
    case ResponseStatus::kRejected: return 5;
    case ResponseStatus::kError: return 1;
  }
  return 1;
}

namespace {

const char* kind_name(scheduler::ThresholdKind kind) noexcept {
  switch (kind) {
    case scheduler::ThresholdKind::kFractionOfSimTime: return "fraction";
    case scheduler::ThresholdKind::kTotalSeconds: return "total";
    case scheduler::ThresholdKind::kPerStepSeconds: return "per_step";
  }
  return "fraction";
}

scheduler::ThresholdKind parse_kind(const std::string& text) {
  if (text == "fraction" || text == "fraction_of_sim_time")
    return scheduler::ThresholdKind::kFractionOfSimTime;
  if (text == "total" || text == "total_seconds") return scheduler::ThresholdKind::kTotalSeconds;
  if (text == "per_step" || text == "per_step_seconds")
    return scheduler::ThresholdKind::kPerStepSeconds;
  throw std::runtime_error("serve json: unknown threshold_kind '" + text + "'");
}

const char* policy_name(scheduler::OutputPolicy policy) noexcept {
  switch (policy) {
    case scheduler::OutputPolicy::kEveryAnalysis: return "every_analysis";
    case scheduler::OutputPolicy::kOptimized: return "optimized";
    case scheduler::OutputPolicy::kNone: return "none";
  }
  return "every_analysis";
}

scheduler::OutputPolicy parse_policy(const std::string& text) {
  if (text == "every_analysis" || text == "every") return scheduler::OutputPolicy::kEveryAnalysis;
  if (text == "optimized") return scheduler::OutputPolicy::kOptimized;
  if (text == "none") return scheduler::OutputPolicy::kNone;
  throw std::runtime_error("serve json: unknown output_policy '" + text + "'");
}

/// Appends `,"key":value` per pair, each value through json::append_number.
void append_fields(std::string& out,
                   std::initializer_list<std::pair<const char*, double>> fields) {
  for (const auto& [key, value] : fields) {
    out += ",\"";
    out += key;
    out += "\":";
    json::append_number(out, value);
  }
}

/// The finite number of `field`. A null, which is what the encoders write
/// for a NaN or infinity, is refused by the field's name.
double finite_field(json::Reader& scan, const std::string& field) {
  if (scan.null())
    throw std::runtime_error("serve json: field '" + field + "' is null, not a finite number");
  return scan.number();
}

scheduler::AnalysisParams analysis_from_reader(json::Reader& scan) {
  scheduler::AnalysisParams a;
  scan.object([&](const std::string& field) {
    if (field == "name") a.name = scan.string();
    else if (field == "ft") a.ft = finite_field(scan, field);
    else if (field == "it") a.it = finite_field(scan, field);
    else if (field == "ct") a.ct = finite_field(scan, field);
    else if (field == "ot") a.ot = finite_field(scan, field);
    else if (field == "fm") a.fm = finite_field(scan, field);
    else if (field == "im") a.im = finite_field(scan, field);
    else if (field == "cm") a.cm = finite_field(scan, field);
    else if (field == "om") a.om = finite_field(scan, field);
    else if (field == "weight") a.weight = finite_field(scan, field);
    else if (field == "itv") a.itv = scan.integer();
    else throw std::runtime_error("serve json: unknown analysis field '" + field + "'");
  });
  return a;
}

scheduler::ScheduleProblem problem_from_reader(json::Reader& scan) {
  scheduler::ScheduleProblem p;
  scan.object([&](const std::string& field) {
    if (field == "steps") p.steps = scan.integer();
    else if (field == "threshold") p.threshold = finite_field(scan, field);
    else if (field == "threshold_kind") p.threshold_kind = parse_kind(scan.string());
    else if (field == "sim_time_per_step") p.sim_time_per_step = finite_field(scan, field);
    else if (field == "memory") p.mth = finite_field(scan, field);
    else if (field == "bandwidth") p.bw = finite_field(scan, field);
    else if (field == "output_policy") p.output_policy = parse_policy(scan.string());
    else if (field == "analyses")
      scan.array([&] { p.analyses.push_back(analysis_from_reader(scan)); });
    else throw std::runtime_error("serve json: unknown problem field '" + field + "'");
  });
  return p;
}

}  // namespace

std::string problem_to_json(const scheduler::ScheduleProblem& problem) {
  // %.17g round-trips doubles exactly, so client-side and server-side
  // canonical fingerprints of the same problem agree.
  std::string out = format("{\"steps\":%ld", problem.steps);
  append_fields(out, {{"threshold", problem.threshold}});
  out += format(",\"threshold_kind\":\"%s\"", kind_name(problem.threshold_kind));
  append_fields(out, {{"sim_time_per_step", problem.sim_time_per_step}});
  if (std::isfinite(problem.mth)) append_fields(out, {{"memory", problem.mth}});
  if (std::isfinite(problem.bw)) append_fields(out, {{"bandwidth", problem.bw}});
  out += format(",\"output_policy\":\"%s\",\"analyses\":[", policy_name(problem.output_policy));
  for (std::size_t i = 0; i < problem.analyses.size(); ++i) {
    const scheduler::AnalysisParams& a = problem.analyses[i];
    if (i) out += ',';
    out += "{\"name\":";
    json::append_string(out, a.name);
    append_fields(out, {{"ft", a.ft}, {"it", a.it}, {"ct", a.ct}});
    if (a.ot >= 0.0) append_fields(out, {{"ot", a.ot}});
    append_fields(out, {{"fm", a.fm}, {"im", a.im}, {"cm", a.cm}, {"om", a.om},
                        {"weight", a.weight}});
    out += format(",\"itv\":%ld}", a.itv);
  }
  out += "]}";
  return out;
}

scheduler::ScheduleProblem problem_from_json(const std::string& text) {
  json::Reader scan(text);
  scheduler::ScheduleProblem p = problem_from_reader(scan);
  scan.expect_end();
  return p;
}

std::string request_to_json(const ServeRequest& request) {
  std::string out = format("{\"op\":\"%s\"", to_string(request.op));
  if (!request.id.empty()) {
    out += ",\"id\":";
    json::append_string(out, request.id);
  }
  if (request.deadline_ms > 0.0) append_fields(out, {{"deadline_ms", request.deadline_ms}});
  if (request.formulation)
    out += format(",\"formulation\":\"%s\"",
                  *request.formulation == scheduler::Formulation::kTimeExpanded ? "time_expanded"
                                                                               : "aggregate");
  if (request.op == RequestOp::kSolve ||
      (request.op == RequestOp::kReschedule && request.has_problem)) {
    out += ",\"problem\":";
    out += problem_to_json(request.problem);
  }
  if (request.op == RequestOp::kReschedule) {
    if (!request.handle.empty()) {
      out += ",\"handle\":";
      json::append_string(out, request.handle);
    }
    if (!request.measured.empty()) {
      out += ",\"measured\":[";
      for (std::size_t i = 0; i < request.measured.size(); ++i) {
        const MeasuredCost& m = request.measured[i];
        if (i) out += ',';
        out += "{\"name\":";
        json::append_string(out, m.name);
        if (!std::isnan(m.ct)) append_fields(out, {{"ct", m.ct}});
        if (!std::isnan(m.ot)) append_fields(out, {{"ot", m.ot}});
        if (!std::isnan(m.cm)) append_fields(out, {{"cm", m.cm}});
        out += '}';
      }
      out += ']';
    }
  }
  out += '}';
  return out;
}

ServeRequest request_from_json(const std::string& line) {
  ServeRequest request;
  json::Reader scan(line);
  scan.object([&](const std::string& field) {
    if (field == "op") {
      const std::string op = scan.string();
      if (op == "solve") request.op = RequestOp::kSolve;
      else if (op == "reschedule") request.op = RequestOp::kReschedule;
      else if (op == "ping") request.op = RequestOp::kPing;
      else if (op == "metrics") request.op = RequestOp::kMetrics;
      else if (op == "shutdown") request.op = RequestOp::kShutdown;
      else throw std::runtime_error("serve json: unknown op '" + op + "'");
    } else if (field == "id") {
      request.id = scan.string();
    } else if (field == "deadline_ms") {
      request.deadline_ms = finite_field(scan, field);
    } else if (field == "formulation") {
      const std::string text = scan.string();
      if (text == "aggregate") request.formulation = scheduler::Formulation::kAggregate;
      else if (text == "time_expanded" || text == "timeexp")
        request.formulation = scheduler::Formulation::kTimeExpanded;
      else throw std::runtime_error("serve json: unknown formulation '" + text + "'");
    } else if (field == "problem") {
      request.problem = problem_from_reader(scan);
      request.has_problem = true;
    } else if (field == "problem_ini") {
      // Planner-config passthrough: lenient build so value-level mistakes
      // reach the linter as structured diagnostics instead of a protocol
      // error; structural breakage still throws (and becomes kError).
      request.problem =
          scheduler::problem_from_config_lenient(Config::parse(scan.string()));
      request.has_problem = true;
    } else if (field == "handle") {
      request.handle = scan.string();
    } else if (field == "measured") {
      scan.array([&] {
        MeasuredCost m;
        scan.object([&](const std::string& key) {
          if (key == "name") m.name = scan.string();
          else if (key == "ct") m.ct = finite_field(scan, key);
          else if (key == "ot") m.ot = finite_field(scan, key);
          else if (key == "cm") m.cm = finite_field(scan, key);
          else throw std::runtime_error("serve json: unknown measured field '" + key + "'");
        });
        if (m.name.empty())
          throw std::runtime_error("serve json: measured entry carries no name");
        request.measured.push_back(std::move(m));
      });
    } else {
      throw std::runtime_error("serve json: unknown request field '" + field + "'");
    }
  });
  scan.expect_end();
  if (request.op == RequestOp::kSolve && !request.has_problem)
    throw std::runtime_error("serve json: solve request carries no problem");
  if (request.op == RequestOp::kReschedule && !request.has_problem && request.handle.empty())
    throw std::runtime_error("serve json: reschedule request carries neither handle nor problem");
  return request;
}

std::string response_to_json(const ServeResponse& response) {
  std::string out = "{\"id\":";
  json::append_string(out, response.id);
  out += format(",\"status\":\"%s\",\"cache_hit\":%s,\"coalesced\":%s,\"proven_optimal\":%s,"
                "\"degraded\":%s",
                to_string(response.status), response.cache_hit ? "true" : "false",
                response.coalesced ? "true" : "false", response.proven_optimal ? "true" : "false",
                response.degraded ? "true" : "false");
  append_fields(out, {{"objective", response.objective}});
  out += format(",\"latency_ms\":%.6g", response.latency_ms);
  if (!response.message.empty()) {
    out += ",\"message\":";
    json::append_string(out, response.message);
  }
  if (!response.lint_json.empty()) {
    out += ",\"lint\":";
    out += response.lint_json;
  }
  if (!response.solution_json.empty()) {
    out += ",\"solution\":";
    out += response.solution_json;
  }
  if (!response.metrics_text.empty()) {
    out += ",\"metrics_text\":";
    json::append_string(out, response.metrics_text);
  }
  if (!response.handle.empty()) {
    out += ",\"handle\":";
    json::append_string(out, response.handle);
    out += format(",\"warm\":%s", response.warm ? "true" : "false");
  }
  out += '}';
  return out;
}

ServeResponse response_from_json(const std::string& line) {
  ServeResponse response;
  json::Reader scan(line);
  scan.object([&](const std::string& field) {
    if (field == "id") response.id = scan.string();
    else if (field == "status") {
      const std::string text = scan.string();
      bool known = false;
      for (const ResponseStatus s :
           {ResponseStatus::kOk, ResponseStatus::kDegraded, ResponseStatus::kInfeasible,
            ResponseStatus::kLintRejected, ResponseStatus::kRejected, ResponseStatus::kError}) {
        if (text == to_string(s)) {
          response.status = s;
          known = true;
          break;
        }
      }
      if (!known) throw std::runtime_error("serve json: unknown status '" + text + "'");
    } else if (field == "cache_hit") response.cache_hit = scan.boolean();
    else if (field == "coalesced") response.coalesced = scan.boolean();
    else if (field == "proven_optimal") response.proven_optimal = scan.boolean();
    else if (field == "degraded") response.degraded = scan.boolean();
    else if (field == "objective")
      response.objective = scan.null() ? std::numeric_limits<double>::quiet_NaN() : scan.number();
    else if (field == "latency_ms") response.latency_ms = scan.number();
    else if (field == "message") response.message = scan.string();
    else if (field == "lint") response.lint_json = scan.raw();
    else if (field == "solution") response.solution_json = scan.raw();
    else if (field == "metrics_text") response.metrics_text = scan.string();
    else if (field == "handle") response.handle = scan.string();
    else if (field == "warm") response.warm = scan.boolean();
    else throw std::runtime_error("serve json: unknown response field '" + field + "'");
  });
  scan.expect_end();
  return response;
}

}  // namespace insched::serve
