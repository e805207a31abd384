#pragma once

// Wire protocol of the scheduling daemon: newline-delimited JSON objects,
// one request and one response per line (docs/SERVING.md has the full
// schema), written and read with the support/json codec that
// scheduler/serialize.cpp shares, so the daemon stays dependency-free.
//
// A request names an operation:
//   solve      — lint, canonicalize, and schedule a ScheduleProblem, given
//                either inline as `"problem": {...}` or as planner-config
//                text in `"problem_ini"` (problem_io.hpp syntax);
//   reschedule — incremental re-solve (docs/ONLINE.md): `"handle"` names a
//                prior reschedule solution held by the daemon, `"measured"`
//                carries per-analysis measured-cost updates; the server
//                patches the stored problem and rides the warm-delta path
//                (mip::ReSolveContext). Without a known handle the request
//                must carry a problem and cold-starts a new context; the
//                response returns the handle either way;
//   ping       — liveness probe;
//   metrics    — serving-metrics snapshot;
//   shutdown   — drain and stop the daemon (used by scripts and tests).
//
// A response carries the outcome taxonomy (`status`), the serving flags
// (cache_hit / coalesced / degraded), and — for solves — the solution as
// the same JSON object `insched_plan --json` emits, so downstream tooling
// consumes one schema regardless of how the schedule was produced.

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/scheduler/solver.hpp"

namespace insched::serve {

enum class RequestOp { kSolve, kReschedule, kPing, kMetrics, kShutdown };

[[nodiscard]] const char* to_string(RequestOp op) noexcept;

/// Measured-cost update for one analysis in a reschedule request. NaN
/// fields keep the stored problem's current value; a typical producer is
/// perfmodel::OnlineCostModel's per-analysis EMA estimates.
struct MeasuredCost {
  std::string name;
  double ct = std::numeric_limits<double>::quiet_NaN();
  double ot = std::numeric_limits<double>::quiet_NaN();
  double cm = std::numeric_limits<double>::quiet_NaN();
};

struct ServeRequest {
  RequestOp op = RequestOp::kSolve;
  std::string id;            ///< opaque client tag, echoed in the response
  double deadline_ms = -1.0; ///< per-request deadline; <= 0 = server default
  std::optional<scheduler::Formulation> formulation;
  scheduler::ScheduleProblem problem;  ///< meaningful when op == kSolve
  bool has_problem = false;  ///< a problem was supplied (reschedule cold start)
  std::string handle;        ///< prior solution handle (op == kReschedule)
  std::vector<MeasuredCost> measured;  ///< cost updates (op == kReschedule)
};

/// How a request was answered. Mirrors insched_submit's exit codes.
enum class ResponseStatus {
  kOk,            ///< validated schedule, not degraded
  kDegraded,      ///< deadline expired or solver fell back to greedy
  kInfeasible,    ///< the instance is provably infeasible (never masked)
  kLintRejected,  ///< insched_lint errors at ingest; nothing was solved
  kRejected,      ///< admission control refused (daemon at capacity)
  kError,         ///< malformed request or internal failure
};

[[nodiscard]] const char* to_string(ResponseStatus status) noexcept;

/// Exit code insched_submit maps each status to: 0 ok, 1 infeasible/error,
/// 3 degraded, 4 lint-rejected, 5 rejected (matches insched_plan where the
/// taxonomies overlap).
[[nodiscard]] int exit_code(ResponseStatus status) noexcept;

struct ServeResponse {
  std::string id;
  ResponseStatus status = ResponseStatus::kError;
  bool cache_hit = false;
  bool coalesced = false;
  bool proven_optimal = false;
  bool degraded = false;
  double objective = 0.0;
  double latency_ms = 0.0;
  std::string message;        ///< one human-readable line (may be empty)
  std::string lint_json;      ///< LintReport::to_json when lint rejected
  std::string solution_json;  ///< scheduler::solution_to_json when solved
  std::string metrics_text;   ///< ServingMetrics::to_string for op=metrics
  std::string handle;         ///< reschedule context handle (op=reschedule)
  bool warm = false;          ///< reschedule rode the warm-delta path
};

// Codec. *_to_json emit a single line (no interior newlines); *_from_json
// throw std::runtime_error on malformed input.
[[nodiscard]] std::string request_to_json(const ServeRequest& request);
[[nodiscard]] ServeRequest request_from_json(const std::string& line);
[[nodiscard]] std::string response_to_json(const ServeResponse& response);
[[nodiscard]] ServeResponse response_from_json(const std::string& line);

/// Problem codec shared by request_to/from_json and tests.
[[nodiscard]] std::string problem_to_json(const scheduler::ScheduleProblem& problem);
[[nodiscard]] scheduler::ScheduleProblem problem_from_json(const std::string& text);

}  // namespace insched::serve
