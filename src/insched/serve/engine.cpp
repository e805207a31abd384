#include "insched/serve/engine.hpp"

#include <cmath>
#include <exception>
#include <utility>

#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/serialize.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/support/string_util.hpp"

namespace insched::serve {

ServeEngine::ServeEngine(EngineOptions options)
    : opt_(options), cache_(options.cache_capacity) {}

namespace {

double ms_since(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ServeResponse ServeEngine::handle(const ServeRequest& request) {
  const Clock::time_point start = Clock::now();
  ServeResponse response;
  response.id = request.id;
  switch (request.op) {
    case RequestOp::kPing:
      response.status = ResponseStatus::kOk;
      response.message = "pong";
      break;
    case RequestOp::kMetrics:
      response.status = ResponseStatus::kOk;
      response.metrics_text = metrics_.to_string();
      break;
    case RequestOp::kShutdown:
      // The transport layer decides what shutdown means; the engine just
      // acknowledges so clients get a well-formed final response.
      response.status = ResponseStatus::kOk;
      response.message = "shutting down";
      break;
    case RequestOp::kSolve:
      try {
        response = handle_solve(request, start);
      } catch (const std::exception& e) {
        response = ServeResponse{};
        response.id = request.id;
        response.status = ResponseStatus::kError;
        response.message = e.what();
      }
      break;
    case RequestOp::kReschedule:
      try {
        response = handle_reschedule(request, start);
      } catch (const std::exception& e) {
        response = ServeResponse{};
        response.id = request.id;
        response.status = ResponseStatus::kError;
        response.message = e.what();
      }
      break;
  }
  response.latency_ms = ms_since(start);

  runtime::ServingMetrics::Outcome outcome;
  outcome.ok =
      response.status == ResponseStatus::kOk || response.status == ResponseStatus::kDegraded;
  outcome.cache_hit = response.cache_hit;
  outcome.coalesced = response.coalesced;
  outcome.degraded = response.degraded;
  outcome.rejected = response.status == ResponseStatus::kRejected;
  outcome.lint_rejected = response.status == ResponseStatus::kLintRejected;
  outcome.error = response.status == ResponseStatus::kError;
  metrics_.record(to_string(request.op), outcome, response.latency_ms / 1000.0);
  return response;
}

ServeResponse ServeEngine::handle_solve(const ServeRequest& request, Clock::time_point start) {
  // Lint on ingest: structural errors never reach the solver.
  const scheduler::LintReport lint = scheduler::lint_problem(request.problem);
  if (lint.has_errors()) {
    ServeResponse r;
    r.id = request.id;
    r.status = ResponseStatus::kLintRejected;
    r.message = format("rejected by lint: %d error(s), %d warning(s)",
                       lint.count(scheduler::LintSeverity::kError),
                       lint.count(scheduler::LintSeverity::kWarning));
    r.lint_json = lint.to_json();
    return r;
  }

  const CanonicalInstance canon = canonicalize(request.problem);

  // Solution cache: a hit is mapped back into this request's analysis order
  // and re-validated against the *raw* incoming problem.
  if (opt_.cache_enabled) {
    if (std::optional<scheduler::ScheduleSolution> cached =
            cache_.lookup(canon.fingerprint, canon.key)) {
      scheduler::ScheduleSolution sol =
          from_canonical_order(*cached, canon.order, request.problem);
      bool good = true;
      if (opt_.revalidate_cache_hits) {
        sol.validation = scheduler::validate_schedule(request.problem, sol.schedule);
        good = sol.validation.feasible;
      }
      if (good) {
        ServeResponse r = respond(request, sol);
        r.cache_hit = true;
        return r;
      }
    }
  }

  // Coalescing/admission: identical in-flight instance -> follow it;
  // otherwise become a leader if capacity allows.
  std::shared_ptr<Inflight> entry;
  bool leader = false;
  bool registered = false;
  {
    MutexLock lock(mu_);
    if (opt_.coalesce_enabled) {
      auto it = inflight_.find(canon.fingerprint);
      if (it != inflight_.end() && it->second->key == canon.key) entry = it->second;
    }
    if (!entry) {
      if (opt_.max_inflight > 0 && active_ >= opt_.max_inflight) {
        ServeResponse r;
        r.id = request.id;
        r.status = ResponseStatus::kRejected;
        r.message = format("daemon at capacity: %d solve(s) in flight", active_);
        return r;
      }
      ++active_;
      leader = true;
      if (opt_.coalesce_enabled) {
        entry = std::make_shared<Inflight>();
        entry->key = canon.key;
        inflight_.emplace(canon.fingerprint, entry);
        registered = true;
      }
    }
  }

  if (!leader) {
    scheduler::ScheduleSolution canonical;
    bool usable = false;
    {
      MutexLock lock(mu_);
      done_cv_.wait(mu_, [&entry] { return entry->done; });
      usable = entry->usable;
      if (usable) canonical = entry->canonical;
    }
    if (usable) {
      scheduler::ScheduleSolution sol =
          from_canonical_order(canonical, canon.order, request.problem);
      if (opt_.revalidate_cache_hits)
        sol.validation = scheduler::validate_schedule(request.problem, sol.schedule);
      ServeResponse r = respond(request, sol);
      r.coalesced = true;
      return r;
    }
    // The leader's solve failed; run a private solve rather than cascading
    // the failure to every coalesced request.
    MutexLock lock(mu_);
    ++active_;
    leader = true;
    registered = false;
  }

  scheduler::ScheduleSolution solution;
  try {
    solution = run_solve(request, canon, start);
  } catch (...) {
    {
      MutexLock lock(mu_);
      --active_;
      if (registered) {
        entry->done = true;
        entry->usable = false;
        inflight_.erase(canon.fingerprint);
      }
    }
    if (registered) done_cv_.notify_all();
    throw;
  }
  {
    MutexLock lock(mu_);
    --active_;
    if (registered) {
      entry->done = true;
      entry->usable = solution.solved;
      if (solution.solved) entry->canonical = to_canonical_order(solution, canon.order);
      inflight_.erase(canon.fingerprint);
    }
  }
  if (registered) done_cv_.notify_all();
  return respond(request, solution);
}

ServeResponse ServeEngine::handle_reschedule(const ServeRequest& request,
                                             Clock::time_point start) {
  MutexLock lock(resolve_mu_);

  // Locate (or cold-start) the context this request reschedules against.
  ReschedEntry* entry = nullptr;
  std::string handle = request.handle;
  if (!handle.empty()) {
    const auto it = resolves_.find(handle);
    if (it != resolves_.end()) entry = it->second.get();
  }
  const bool warm_eligible = entry != nullptr && entry->ctx.has_snapshot();
  if (entry == nullptr) {
    if (!request.has_problem) {
      ServeResponse r;
      r.id = request.id;
      r.status = ResponseStatus::kError;
      r.message = handle.empty() ? "reschedule request carries neither handle nor problem"
                                 : format("unknown reschedule handle '%s' (evicted?) and no "
                                          "problem to cold-start from",
                                          handle.c_str());
      return r;
    }
    // LRU-evict before admitting a new context.
    while (resolves_.size() >= opt_.resolve_capacity && !resolves_.empty()) {
      auto victim = resolves_.begin();
      for (auto it = resolves_.begin(); it != resolves_.end(); ++it)
        if (it->second->last_used < victim->second->last_used) victim = it;
      resolves_.erase(victim);
    }
    handle = format("r%llu", static_cast<unsigned long long>(next_handle_++));
    auto fresh = std::make_unique<ReschedEntry>();
    fresh->problem = request.problem;
    entry = fresh.get();
    resolves_.emplace(handle, std::move(fresh));
  }
  entry->last_used = ++resolve_clock_;

  // Patch the stored problem with the measured costs, then lint: a broken
  // update must not poison the stored context.
  scheduler::ScheduleProblem patched = entry->problem;
  for (const MeasuredCost& m : request.measured) {
    for (scheduler::AnalysisParams& a : patched.analyses) {
      if (a.name != m.name) continue;
      if (!std::isnan(m.ct)) a.ct = m.ct;
      if (!std::isnan(m.ot)) a.ot = m.ot;
      if (!std::isnan(m.cm)) a.cm = m.cm;
    }
  }
  const scheduler::LintReport lint = scheduler::lint_problem(patched);
  if (lint.has_errors()) {
    ServeResponse r;
    r.id = request.id;
    r.status = ResponseStatus::kLintRejected;
    r.message = format("rejected by lint: %d error(s), %d warning(s)",
                       lint.count(scheduler::LintSeverity::kError),
                       lint.count(scheduler::LintSeverity::kWarning));
    r.lint_json = lint.to_json();
    r.handle = handle;
    return r;
  }

  // Remaining deadline caps the re-solve, exactly like run_solve.
  const double deadline_ms =
      request.deadline_ms > 0.0 ? request.deadline_ms : opt_.default_deadline_ms;
  mip::MipOptions mo = opt_.solve.mip;
  mo.time_limit_s = deadline_ms / 1000.0 - ms_since(start) / 1000.0;

  scheduler::ScheduleSolution sol;
  const long warm_before = entry->ctx.counters().warm_resolves;
  if (mo.time_limit_s > 0.0) {
    const scheduler::TimeExpandedModel built = scheduler::build_time_expanded_milp(patched);
    const mip::MipResult res = warm_eligible ? entry->ctx.resolve(built.model, mo)
                                             : entry->ctx.solve(built.model, mo);
    sol = scheduler::time_expanded_solution(patched, built, res);
    if (res.termination == mip::MipTermination::kProvedInfeasible) {
      sol.diagnostics.failure = scheduler::FailureClass::kInfeasibleModel;
      ServeResponse r = respond(request, sol);
      r.handle = handle;
      return r;
    }
    if (sol.solved && opt_.solve.run_validation) {
      sol.validation = scheduler::validate_schedule(patched, sol.schedule);
      if (!sol.validation.feasible) sol.solved = false;
    }
  }

  if (!sol.solved && opt_.solve.fallback_to_greedy &&
      sol.diagnostics.failure != scheduler::FailureClass::kInfeasibleModel) {
    // Deadline degradation: a blown budget (or a failed warm solve) answers
    // with the validated greedy schedule rather than nothing — the same
    // ladder solve requests ride, minus the MILP retry we have no time for.
    scheduler::SolveOptions so = opt_.solve;
    so.mip.time_limit_s = -1.0;  // short-circuit straight to the greedy rung
    sol = scheduler::solve_schedule(patched, so);
  }
  if (sol.solved) entry->problem = std::move(patched);

  ServeResponse r = respond(request, sol);
  r.handle = handle;
  r.warm = entry->ctx.counters().warm_resolves > warm_before;
  return r;
}

scheduler::ScheduleSolution ServeEngine::run_solve(const ServeRequest& request,
                                                   const CanonicalInstance& canon,
                                                   Clock::time_point start) {
  scheduler::SolveOptions so = opt_.solve;
  if (request.formulation) so.formulation = *request.formulation;

  // Remaining deadline becomes the MILP wall-clock budget. Time already
  // burned in queueing/linting counts against it; a non-positive remainder
  // rides solve_schedule's short-circuit straight to the validated greedy
  // fallback (degraded=true) without building a model.
  const double deadline_ms =
      request.deadline_ms > 0.0 ? request.deadline_ms : opt_.default_deadline_ms;
  so.mip.time_limit_s = deadline_ms / 1000.0 - ms_since(start) / 1000.0;
  so.mip.snapshot = families_.get(canon.family);

  scheduler::ScheduleSolution solution = scheduler::solve_schedule(request.problem, so);
  if (solution.snapshot) families_.put(canon.family, solution.snapshot);

  // Memoize proven-optimal validated solutions only: a degraded or
  // truncated result must never be replayed to a later request that might
  // have had time to solve to optimality.
  if (opt_.cache_enabled && solution.solved && solution.proven_optimal && !solution.degraded &&
      (!so.run_validation || solution.validation.feasible))
    cache_.insert(canon.fingerprint, canon.key, to_canonical_order(solution, canon.order));
  return solution;
}

ServeResponse ServeEngine::respond(const ServeRequest& request,
                                   const scheduler::ScheduleSolution& solution) const {
  ServeResponse r;
  r.id = request.id;
  r.proven_optimal = solution.proven_optimal;
  r.degraded = solution.degraded;
  r.objective = solution.objective;
  r.message = solution.diagnostics.message;
  if (solution.solved) {
    r.status = solution.degraded ? ResponseStatus::kDegraded : ResponseStatus::kOk;
    r.solution_json = scheduler::solution_to_json(solution);
  } else {
    r.status = solution.diagnostics.failure == scheduler::FailureClass::kInfeasibleModel
                   ? ResponseStatus::kInfeasible
                   : ResponseStatus::kError;
    if (r.message.empty()) r.message = "solve failed";
  }
  return r;
}

}  // namespace insched::serve
