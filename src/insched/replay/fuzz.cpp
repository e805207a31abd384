#include "insched/replay/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "insched/replay/replay.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/recurrence.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/support/fault_inject.hpp"
#include "insched/support/random.hpp"
#include "insched/support/string_util.hpp"

namespace insched::replay {

namespace {

using scheduler::AnalysisParams;
using scheduler::OutputPolicy;
using scheduler::ScheduleProblem;
using scheduler::ThresholdKind;

/// Deliberate degenerate corners a uniform sampler would almost never hit.
enum class Corner {
  kNone,
  kZeroCostAnalysis,   ///< ct = it = 0: free analysis, objective-only
  kIntervalEqualsRun,  ///< itv == steps: at most one analysis step
  kMemoryGrazing,      ///< mth barely above the activation floor
  kZeroWeight,         ///< objective ignores the analysis
  kDerivedOutputTime,  ///< ot < 0 with finite bw: ot = om / bw
  kCount,
};

void apply_corner(Corner corner, ScheduleProblem* p, Rng* rng) {
  if (p->analyses.empty()) return;
  AnalysisParams& a = p->analyses[rng->uniform_index(p->analyses.size())];
  switch (corner) {
    case Corner::kZeroCostAnalysis:
      a.ct = 0.0;
      a.it = 0.0;
      break;
    case Corner::kIntervalEqualsRun:
      a.itv = p->steps;
      break;
    case Corner::kMemoryGrazing: {
      double floor = 0.0;
      for (const AnalysisParams& b : p->analyses) floor += b.fm + b.im + b.cm + b.om;
      p->mth = floor * rng->uniform(1.0, 1.2);
      break;
    }
    case Corner::kZeroWeight:
      a.weight = 0.0;
      break;
    case Corner::kDerivedOutputTime:
      a.ot = -1.0;
      if (!std::isfinite(p->bw)) p->bw = rng->uniform(1.0, 100.0);
      break;
    case Corner::kNone:
    case Corner::kCount:
      break;
  }
}

/// Fault hooks worth arming from the fuzzer: the LP/MIP numerical ones.
constexpr fault::Hook kFuzzHooks[] = {
    fault::Hook::kLuFactorize, fault::Hook::kLuFtran,       fault::Hook::kLuBtran,
    fault::Hook::kDualPivot,   fault::Hook::kCutSeparation,
};

/// One replay pass + its soundness checks; returns an empty string or the
/// violated property.
[[nodiscard]] std::string check_replay(const ScheduleProblem& problem,
                                       const scheduler::Schedule& schedule,
                                       std::uint64_t seed, double jitter,
                                       FuzzCaseResult* r) {
  // Zero jitter: the replay must reproduce the prediction exactly and agree
  // with the exact validator on feasibility.
  ReplayOptions exact;
  exact.seed = seed;
  const ReplayResult clean = replay_schedule(problem, schedule, exact);
  ++r->replays;
  if (clean.divergence.diverged)
    return "zero-jitter replay diverged: " + clean.divergence.notes.front();
  if (!clean.sound()) return "zero-jitter replay unsound";
  const scheduler::ValidationReport report = validate_schedule(problem, schedule);
  if (report.feasible && !clean.replay_feasible())
    return format("validator feasible but zero-jitter replay infeasible (time %d mem %d)",
                  clean.replayed_time_feasible ? 1 : 0, clean.replayed_memory_feasible ? 1 : 0);

  // Jittered: divergence may or may not be flagged, but a budget violation
  // without a flag is a replay bug.
  ReplayOptions noisy;
  noisy.seed = seed + 0x9e3779b97f4a7c15ULL;
  noisy.time_jitter = jitter;
  noisy.memory_jitter = jitter;
  const ReplayResult jittered = replay_schedule(problem, schedule, noisy);
  ++r->replays;
  if (!jittered.sound()) return "jittered replay violated a budget without divergence";
  return {};
}

/// Differential oracle for the tree search: re-solves with three workers
/// and checks the proven objective and the schedule against the sequential
/// solve's optimum. Returns an empty string or the violated property.
[[nodiscard]] std::string check_parallel(const ScheduleProblem& problem,
                                         scheduler::SolveOptions options,
                                         double objective) {
  options.mip.threads = 3;
  options.mip.oversubscribe = true;
  const scheduler::ScheduleSolution par = solve_schedule(problem, options);
  if (!par.proven_optimal) return "three-worker re-solve did not prove optimality";
  if (std::fabs(par.objective - objective) >
      scheduler::recurrence::kOracleObjectiveRelTol * std::max(1.0, std::fabs(objective)))
    return format("three-worker objective %.17g != sequential %.17g", par.objective, objective);
  const scheduler::ValidationReport report = validate_schedule(problem, par.schedule);
  if (!report.feasible)
    return "three-worker schedule failed validation: " + report.violations.front();
  return {};
}

}  // namespace

ScheduleProblem fuzz_problem(std::uint64_t seed) {
  Rng rng(seed ^ 0xfeedc0dedeadbeefULL);
  ScheduleProblem p;
  p.steps = rng.uniform_int(8, 64);
  p.sim_time_per_step = rng.uniform(0.1, 2.0);

  switch (rng.uniform_index(3)) {
    case 0:
      p.threshold_kind = ThresholdKind::kFractionOfSimTime;
      p.threshold = rng.uniform(0.05, 0.5);
      break;
    case 1:
      p.threshold_kind = ThresholdKind::kTotalSeconds;
      p.threshold = static_cast<double>(p.steps) * rng.uniform(0.1, 1.5);
      break;
    default:
      p.threshold_kind = ThresholdKind::kPerStepSeconds;
      p.threshold = rng.uniform(0.05, 1.0);
      break;
  }
  switch (rng.uniform_index(3)) {
    case 0: p.output_policy = OutputPolicy::kEveryAnalysis; break;
    case 1: p.output_policy = OutputPolicy::kOptimized; break;
    default: p.output_policy = OutputPolicy::kNone; break;
  }
  p.bw = rng.bernoulli(0.5) ? scheduler::kNoLimit : rng.uniform(1.0, 100.0);

  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 4));
  double activation_floor = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    AnalysisParams a;
    a.name = format("fz%zu", i);
    a.ft = rng.uniform(0.0, 1.0);
    a.it = rng.uniform(0.0, 0.05);
    a.ct = rng.uniform(0.0, 2.0);
    a.ot = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : -1.0;
    a.fm = rng.uniform(0.0, 10.0);
    a.im = rng.uniform(0.0, 1.0);
    a.cm = rng.uniform(0.0, 5.0);
    a.om = rng.uniform(0.0, 3.0);
    a.weight = rng.uniform(0.1, 3.0);
    a.itv = rng.uniform_int(1, p.steps);
    activation_floor += a.fm + a.im + a.cm + a.om;
    p.analyses.push_back(std::move(a));
  }
  // Memory budget: unbounded, roomy, or tight around the activation floor.
  switch (rng.uniform_index(3)) {
    case 0: p.mth = scheduler::kNoLimit; break;
    case 1: p.mth = activation_floor * rng.uniform(4.0, 50.0) + 1.0; break;
    default: p.mth = activation_floor * rng.uniform(1.0, 3.0) + 1.0; break;
  }

  if (rng.bernoulli(0.4)) {
    const auto corner = static_cast<Corner>(
        rng.uniform_int(1, static_cast<long>(Corner::kCount) - 1));
    apply_corner(corner, &p, &rng);
  }
  p.validate();  // generator bug if this ever throws
  return p;
}

FuzzCaseResult run_fuzz_case(std::uint64_t seed, const FuzzOptions& options) {
  FuzzCaseResult r;
  r.seed = seed;
  Rng rng(seed ^ 0x5ca1ab1e0ddba11ULL);
  try {
    const ScheduleProblem problem = fuzz_problem(seed);

    // insched_lint gate: production (serve, plan) refuses instances with
    // lint *errors*; the fuzzer mirrors that and stops there too.
    const scheduler::LintReport lint = scheduler::lint_problem(problem);
    if (lint.has_errors()) {
      r.lint_rejected = true;
      return r;
    }

    // Greedy path: always-feasible by contract; validate + replay.
    const scheduler::Schedule greedy = scheduler::greedy_schedule(problem);
    const scheduler::ValidationReport greedy_report = validate_schedule(problem, greedy);
    if (!greedy_report.feasible) {
      r.ok = false;
      r.failure = "greedy schedule failed validation: " + greedy_report.violations.front();
      return r;
    }
    if (std::string err = check_replay(problem, greedy, seed, options.jitter, &r);
        !err.empty()) {
      r.ok = false;
      r.failure = "greedy: " + err;
      return r;
    }

    if (options.lint_and_greedy_only) return r;

    // MILP path: aggregate or (small horizons) time-expanded, with a fault
    // hook armed on a sampled subset.
    scheduler::SolveOptions so;
    so.formulation = (problem.steps <= 32 && rng.bernoulli(0.5))
                         ? scheduler::Formulation::kTimeExpanded
                         : scheduler::Formulation::kAggregate;
    so.mip.time_limit_s = options.milp_time_limit_s;
    so.mip.threads = 1;
    if (options.fault_fraction > 0.0 && rng.bernoulli(options.fault_fraction)) {
      const fault::Hook hook =
          kFuzzHooks[rng.uniform_index(std::size(kFuzzHooks))];
      so.mip.fault_spec = format("%s:%ld:%ld", fault::to_string(hook),
                                 rng.uniform_int(1, 20), rng.uniform_int(1, 3));
      r.fault_armed = true;
    }
    const scheduler::ScheduleSolution sol = solve_schedule(problem, so);
    fault::disarm_all();  // a hook armed past its event count must not leak
    r.degraded = sol.degraded;
    if (sol.diagnostics.failure == scheduler::FailureClass::kInfeasibleModel)
      r.solver_infeasible = true;
    if (sol.solved) {
      if (!sol.validation.feasible) {
        r.ok = false;
        r.failure = "solver reported solved but validation infeasible";
        return r;
      }
      if (std::string err = check_replay(problem, sol.schedule, seed, options.jitter, &r);
          !err.empty()) {
        r.ok = false;
        r.failure = (sol.degraded ? "milp(degraded): " : "milp: ") + err;
        return r;
      }
    }
    if (!r.fault_armed && sol.proven_optimal && seed % 4 == 0) {
      if (std::string err = check_parallel(problem, so, sol.objective); !err.empty()) {
        r.ok = false;
        r.failure = "parallel: " + err;
        return r;
      }
      r.parallel_checked = true;
    }
  } catch (const std::exception& e) {
    fault::disarm_all();
    r.ok = false;
    r.failure = format("exception: %s", e.what());
  } catch (...) {
    fault::disarm_all();
    r.ok = false;
    r.failure = "unknown exception";
  }
  return r;
}

FuzzSummary run_fuzz(std::uint64_t seed_start, long count, const FuzzOptions& options) {
  FuzzSummary summary;
  for (long k = 0; k < count; ++k) {
    const FuzzCaseResult r = run_fuzz_case(seed_start + static_cast<std::uint64_t>(k), options);
    ++summary.cases;
    summary.lint_rejected += r.lint_rejected ? 1 : 0;
    summary.solver_infeasible += r.solver_infeasible ? 1 : 0;
    summary.fault_armed += r.fault_armed ? 1 : 0;
    summary.degraded += r.degraded ? 1 : 0;
    summary.replays += r.replays;
    summary.parallel_checks += r.parallel_checked ? 1 : 0;
    if (!r.ok) {
      ++summary.failures;
      summary.failing.push_back(r);
    }
  }
  return summary;
}

}  // namespace insched::replay
