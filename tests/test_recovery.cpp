// Tests for the numerical-resilience and failure-recovery layer
// (docs/ROBUSTNESS.md): the deterministic fault-injection harness, the LP
// recovery ladder, MIP-level retries and deterministic limits, scheduler
// graceful degradation to the greedy fallback, runtime failure policies,
// and the presolve robustness edge cases.
//
// The staircase sweeps re-solve the three case-study MILPs with an LU or
// pivot fault injected at every event index in turn and assert the known
// optima (water 63, rhodopsin 78, flash 150) still come out, with the
// recovery counters showing the ladder actually ran.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "insched/analysis/msd.hpp"
#include "insched/analysis/rdf.hpp"
#include "insched/analysis/registry.hpp"
#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/lp/presolve.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/runtime/runtime.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/sim/particles/builders.hpp"
#include "insched/sim/particles/lj_md.hpp"
#include "insched/support/fault_inject.hpp"

namespace insched {
namespace {

// ---------------------------------------------------------------------------
// Fault harness semantics.

TEST(FaultSpec, ArmFromSpecParsesValidSpecs) {
  EXPECT_TRUE(fault::arm_from_spec(""));  // empty spec arms nothing
  EXPECT_FALSE(fault::enabled());
  EXPECT_TRUE(fault::arm_from_spec("lu_factorize:2"));
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::arm_from_spec("lu_ftran:1:3,dual_pivot:5"));
  fault::disarm_all();
  fault::reset_counts();
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultSpec, ArmFromSpecRejectsMalformedSpecs) {
  EXPECT_FALSE(fault::arm_from_spec("bogus_hook:1"));
  EXPECT_FALSE(fault::arm_from_spec("lu_ftran"));      // missing event index
  EXPECT_FALSE(fault::arm_from_spec("lu_ftran:abc"));  // non-numeric index
  EXPECT_FALSE(fault::enabled());
  fault::disarm_all();
  fault::reset_counts();
}

TEST(FaultSpec, ShouldFailCoversExactlyTheArmedWindow) {
  fault::arm(fault::Hook::kDualPivot, 2, 2);  // events 2 and 3 fail
  EXPECT_FALSE(fault::should_fail(fault::Hook::kDualPivot));  // event 1
  EXPECT_TRUE(fault::should_fail(fault::Hook::kDualPivot));   // event 2
  EXPECT_TRUE(fault::should_fail(fault::Hook::kDualPivot));   // event 3
  EXPECT_FALSE(fault::should_fail(fault::Hook::kDualPivot));  // window spent
  EXPECT_EQ(fault::injected(fault::Hook::kDualPivot), 2);
  fault::disarm_all();
  fault::reset_counts();
}

TEST(FaultSpec, ScopedFaultDisarmsOnExit) {
  {
    fault::ScopedFault f(fault::Hook::kLuBtran, 1);
    EXPECT_TRUE(fault::enabled());
  }
  EXPECT_FALSE(fault::enabled());
  EXPECT_EQ(fault::events(fault::Hook::kLuBtran), 0);  // counters reset too
}

// ---------------------------------------------------------------------------
// LP recovery ladder.

lp::Model small_lp() {
  // max x + 2y  s.t.  x + y <= 4, y <= 3, 0 <= x,y <= 10.
  lp::Model m;
  const int x = m.add_column("x", 0.0, 10.0, 1.0);
  const int y = m.add_column("y", 0.0, 10.0, 2.0);
  m.add_row("sum", lp::RowType::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row("cap", lp::RowType::kLe, 3.0, {{y, 1.0}});
  m.set_sense(lp::Sense::kMaximize);
  return m;
}

TEST(LpRecovery, CleanRunEmitsCountableEvents) {
  fault::ScopedCounting counting;
  const lp::SimplexResult res = lp::solve_lp(small_lp());
  ASSERT_TRUE(res.optimal());
  EXPECT_EQ(res.recovery.total(), 0);  // nothing injected, nothing recovered
  EXPECT_GE(fault::events(fault::Hook::kLuFactorize), 1);
}

TEST(LpRecovery, SurvivesSingularInitialFactorization) {
  // One injected singularity on the trivial slack basis: the tightened-tau
  // rung re-factorizes and the solve proceeds normally.
  fault::ScopedFault f(fault::Hook::kLuFactorize, 1);
  const lp::SimplexResult res = lp::solve_lp(small_lp());
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 7.0, 1e-6);  // x=1, y=3
  EXPECT_GT(res.recovery.refactor_tightened, 0);
}

TEST(LpRecovery, RepeatedSingularityTriggersSlackRepair) {
  // Refactorize after every pivot so a mid-solve basis (which contains
  // structural columns) hits the fault window: both tightened-tau retries
  // fail too, forcing the slack-substitution rung.
  lp::SimplexOptions options;
  options.refactor_interval = 1;
  fault::ScopedFault f(fault::Hook::kLuFactorize, 2, 3);
  const lp::SimplexResult res = lp::solve_lp(small_lp(), options);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 7.0, 1e-6);
  EXPECT_GT(res.recovery.total(), 0);
  EXPECT_GT(res.recovery.refactor_tightened, 0);
}

TEST(LpRecovery, FtranCorruptionNeverCorruptsTheAnswer) {
  // Sweep the fault over every FTRAN event of the clean solve: whichever
  // call is corrupted, the result must stay exactly optimal, and at least
  // one index must trip the residual detector (drifts that would have
  // poisoned x get caught; inconsequential ones need no recovery).
  long events = 0;
  {
    fault::ScopedCounting counting;
    const lp::SimplexResult clean = lp::solve_lp(small_lp());
    ASSERT_TRUE(clean.optimal());
    events = fault::events(fault::Hook::kLuFtran);
  }
  fault::reset_counts();
  ASSERT_GT(events, 0);
  long recovered = 0;
  for (long nth = 1; nth <= events; ++nth) {
    fault::ScopedFault f(fault::Hook::kLuFtran, nth);
    const lp::SimplexResult res = lp::solve_lp(small_lp());
    ASSERT_TRUE(res.optimal()) << "ftran fault at event " << nth;
    EXPECT_NEAR(res.objective, 7.0, 1e-6) << "ftran fault at event " << nth;
    recovered += res.recovery.total();
  }
  EXPECT_GT(recovered, 0);
}

TEST(LpRecovery, DisabledLadderFailsInsteadOfRecovering) {
  fault::ScopedFault f(fault::Hook::kLuFactorize, 1, 64);
  lp::SimplexOptions options;
  options.enable_recovery = false;
  const lp::SimplexResult res = lp::solve_lp(small_lp(), options);
  EXPECT_FALSE(res.optimal());
  EXPECT_EQ(res.recovery.total(), 0);
}

// ---------------------------------------------------------------------------
// Case-study staircase sweeps (the acceptance gate): with a fault injected
// at every event index in turn, the bench-config MILPs still reach their
// known optima and the recovery counters are nonzero.

struct Staircase {
  const char* name;
  lp::Model model;
  double optimum;
};

scheduler::ScheduleProblem staircase_problem(scheduler::ScheduleProblem p,
                                             double weight_scale) {
  // Mirrors bench/solver_perf.cpp run_staircase_mip: steps=500, itv=25,
  // unconstrained memory, scaled weights.
  p.steps = 500;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, p.steps / 20);
    a.weight *= weight_scale;
  }
  return p;
}

std::vector<Staircase> staircases() {
  std::vector<Staircase> out;
  out.push_back({"water",
                 scheduler::build_time_expanded_milp(
                     staircase_problem(casestudy::water_ions_problem(16384, 0.08), 1.0))
                     .model,
                 63.0});
  out.push_back({"rhodo",
                 scheduler::build_time_expanded_milp(
                     staircase_problem(casestudy::rhodopsin_problem(100.0), 3.0))
                     .model,
                 78.0});
  out.push_back({"flash",
                 scheduler::build_time_expanded_milp(
                     staircase_problem(casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08), 3.0))
                     .model,
                 150.0});
  return out;
}

mip::MipOptions staircase_options() {
  mip::MipOptions opt;
  opt.threads = 1;
  opt.max_nodes = 512;
  opt.time_limit_s = 120.0;
  // A long refactorization interval keeps the LU event stream short enough
  // to sweep exhaustively without changing what the solver computes.
  opt.lp.refactor_interval = 1024;
  return opt;
}

void sweep_hook(const Staircase& cs, fault::Hook hook) {
  // Clean run under a counting scope: establishes the optimum and the event
  // stream length for this exact configuration (threads=1, deterministic).
  long events = 0;
  {
    fault::ScopedCounting counting;
    const mip::MipResult clean = mip::solve_mip(cs.model, staircase_options());
    ASSERT_TRUE(clean.has_solution) << cs.name;
    EXPECT_NEAR(clean.objective, cs.optimum, 1e-6) << cs.name;
    events = fault::events(hook);
  }
  fault::reset_counts();
  ASSERT_GT(events, 0) << cs.name << ": hook " << fault::to_string(hook)
                       << " never fired on a clean run";

  long injected_total = 0;
  for (long nth = 1; nth <= events; ++nth) {
    fault::ScopedFault f(hook, nth);
    const mip::MipResult res = mip::solve_mip(cs.model, staircase_options());
    injected_total += fault::injected(hook);
    ASSERT_TRUE(res.has_solution)
        << cs.name << ": no incumbent with " << fault::to_string(hook) << ":" << nth;
    EXPECT_NEAR(res.objective, cs.optimum, 1e-6)
        << cs.name << ": wrong optimum with " << fault::to_string(hook) << ":" << nth;
    if (fault::injected(hook) > 0) {
      EXPECT_GT(res.counters.recoveries() + res.counters.lp_recover_residual, 0)
          << cs.name << ": fault " << fault::to_string(hook) << ":" << nth
          << " injected but no recovery counted";
    }
  }
  EXPECT_GT(injected_total, 0) << cs.name;
}

TEST(StaircaseRecovery, WaterSurvivesLuSingularityAtEveryEvent) {
  sweep_hook(staircases()[0], fault::Hook::kLuFactorize);
}

TEST(StaircaseRecovery, RhodoSurvivesLuSingularityAtEveryEvent) {
  sweep_hook(staircases()[1], fault::Hook::kLuFactorize);
}

TEST(StaircaseRecovery, FlashSurvivesLuSingularityAtEveryEvent) {
  sweep_hook(staircases()[2], fault::Hook::kLuFactorize);
}

TEST(StaircaseRecovery, WaterSurvivesPivotFailureAtEveryEvent) {
  sweep_hook(staircases()[0], fault::Hook::kDualPivot);
}

TEST(StaircaseRecovery, RhodoSurvivesPivotFailureAtEveryEvent) {
  sweep_hook(staircases()[1], fault::Hook::kDualPivot);
}

TEST(StaircaseRecovery, FlashSurvivesPivotFailureAtEveryEvent) {
  sweep_hook(staircases()[2], fault::Hook::kDualPivot);
}

// ---------------------------------------------------------------------------
// MIP-level limits and fault-spec plumbing.

TEST(MipLimits, WorkLimitTerminatesDeterministically) {
  const Staircase cs = staircases()[2];  // flash: fastest of the three
  mip::MipOptions opt = staircase_options();
  opt.max_lp_iterations = 1;  // exhausted by the root LP alone
  const mip::MipResult res = mip::solve_mip(cs.model, opt);
  EXPECT_EQ(res.termination, mip::MipTermination::kWorkLimit);
  EXPECT_TRUE(res.truncated());
  // The root heuristic still provides an incumbent with a certified gap.
  if (res.has_solution) {
    EXPECT_GE(res.gap(), 0.0);
  }
}

TEST(MipLimits, FaultSpecOptionArmsTheHarness) {
  const Staircase cs = staircases()[2];
  mip::MipOptions opt = staircase_options();
  opt.fault_spec = "lu_factorize:1";
  const mip::MipResult res = mip::solve_mip(cs.model, opt);
  ASSERT_TRUE(res.has_solution);
  EXPECT_NEAR(res.objective, cs.optimum, 1e-6);
  EXPECT_GT(res.counters.recoveries(), 0);
  EXPECT_FALSE(fault::enabled());  // single-shot: disarmed after firing
  fault::reset_counts();
}

TEST(MipLimits, MalformedFaultSpecIsIgnored) {
  mip::MipOptions opt = staircase_options();
  opt.fault_spec = "not_a_hook:1";
  const mip::MipResult res = mip::solve_mip(staircases()[2].model, opt);
  EXPECT_TRUE(res.has_solution);  // solve proceeds un-faulted
  fault::disarm_all();
  fault::reset_counts();
}

// ---------------------------------------------------------------------------
// Scheduler graceful degradation.

scheduler::ScheduleProblem tiny_problem() {
  scheduler::ScheduleProblem p;
  p.steps = 40;
  p.sim_time_per_step = 1.0;
  p.threshold = 0.2;
  p.threshold_kind = scheduler::ThresholdKind::kFractionOfSimTime;
  scheduler::AnalysisParams a;
  a.name = "a1";
  a.ct = 1.0;
  a.itv = 4;
  p.analyses.push_back(a);
  scheduler::AnalysisParams b;
  b.name = "a2";
  b.ct = 2.0;
  b.itv = 8;
  p.analyses.push_back(b);
  return p;
}

TEST(Degradation, ZeroTimeLimitFallsBackToGreedy) {
  scheduler::SolveOptions options;
  options.mip.time_limit_s = 0.0;  // budget exhausted before the MILP exists
  const scheduler::ScheduleSolution sol =
      scheduler::solve_schedule(tiny_problem(), options);
  ASSERT_TRUE(sol.solved);
  EXPECT_TRUE(sol.degraded);
  EXPECT_TRUE(sol.diagnostics.degraded);
  EXPECT_FALSE(sol.proven_optimal);
  EXPECT_EQ(sol.diagnostics.failure, scheduler::FailureClass::kTimeLimit);
  EXPECT_TRUE(sol.validation.feasible);  // greedy fallback is validated
  EXPECT_GT(sol.schedule.total_analysis_steps(), 0);
}

TEST(Degradation, ZeroTimeLimitWithoutFallbackReportsFailure) {
  scheduler::SolveOptions options;
  options.mip.time_limit_s = 0.0;
  options.fallback_to_greedy = false;
  const scheduler::ScheduleSolution sol =
      scheduler::solve_schedule(tiny_problem(), options);
  EXPECT_FALSE(sol.solved);
  EXPECT_FALSE(sol.degraded);
  EXPECT_EQ(sol.diagnostics.failure, scheduler::FailureClass::kTimeLimit);
  EXPECT_FALSE(sol.diagnostics.message.empty());
}

TEST(Degradation, CleanSolveReportsNoFailure) {
  const scheduler::ScheduleSolution sol = scheduler::solve_schedule(tiny_problem());
  ASSERT_TRUE(sol.solved);
  EXPECT_FALSE(sol.degraded);
  EXPECT_EQ(sol.diagnostics.failure, scheduler::FailureClass::kNone);
  EXPECT_EQ(sol.diagnostics.resolve_attempts, 0);
}

TEST(Degradation, FaultySolveStillValidatesAndCountsRecoveries) {
  scheduler::SolveOptions options;
  options.formulation = scheduler::Formulation::kTimeExpanded;
  options.mip.threads = 1;
  options.mip.fault_spec = "lu_factorize:1";
  const scheduler::ScheduleSolution sol =
      scheduler::solve_schedule(tiny_problem(), options);
  ASSERT_TRUE(sol.solved);
  EXPECT_TRUE(sol.validation.feasible);
  EXPECT_GT(sol.mip_counters.recoveries(), 0);
  fault::disarm_all();
  fault::reset_counts();
}

// ---------------------------------------------------------------------------
// Runtime failure policies.

struct RuntimeFixture {
  std::unique_ptr<sim::LjSimulation> md;
  analysis::AnalysisRegistry registry;
  scheduler::Schedule schedule{0, {}};

  RuntimeFixture() {
    sim::WaterIonsSpec spec;
    spec.molecules = 120;
    spec.hydronium_fraction = 0.05;
    spec.ion_fraction = 0.05;
    md = std::make_unique<sim::LjSimulation>(sim::water_ions(spec), sim::MdParams{});
    md->minimize(30);
    md->thermalize(3);
    analysis::RdfConfig rdf_config;
    rdf_config.pairs = {{sim::Species::kHydronium, sim::Species::kWaterO}};
    registry.add(
        std::make_unique<analysis::RdfAnalysis>("A1", md->system(), rdf_config));
    analysis::MsdConfig msd_config;
    msd_config.group = {sim::Species::kIon};
    registry.add(std::make_unique<analysis::MsdAnalysis>("A4", md->system(), msd_config));
    // 20 steps, A1 analyses+outputs at 5/10/15/20, A4 at 10/20.
    schedule = scheduler::Schedule(
        20, {scheduler::AnalysisSchedule{"A1", {5, 10, 15, 20}, {5, 10, 15, 20}},
             scheduler::AnalysisSchedule{"A4", {10, 20}, {20}}});
  }
};

TEST(RuntimePolicy, SkipAndLogDropsTheFailedStepOnly) {
  RuntimeFixture fix;
  fault::ScopedFault f(fault::Hook::kRuntimeAnalyze, 1);
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, {});
  const runtime::RunMetrics metrics = rt.run();
  EXPECT_EQ(metrics.analysis_failures, 1);
  EXPECT_EQ(metrics.analyses_disabled, 0);
  // A1's first analysis step (step 5) failed; the other three still ran.
  EXPECT_EQ(metrics.analyses[0].failures, 1);
  EXPECT_EQ(metrics.analyses[0].analysis_steps, 3);
  EXPECT_EQ(metrics.analyses[1].analysis_steps, 2);  // A4 untouched
}

TEST(RuntimePolicy, DisableAnalysisTurnsTheOffenderOff) {
  RuntimeFixture fix;
  fault::ScopedFault f(fault::Hook::kRuntimeAnalyze, 1);
  runtime::RuntimeConfig config;
  config.on_analysis_failure = runtime::FailurePolicy::kDisableAnalysis;
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, config);
  const runtime::RunMetrics metrics = rt.run();
  EXPECT_EQ(metrics.analysis_failures, 1);
  EXPECT_EQ(metrics.analyses_disabled, 1);
  EXPECT_TRUE(metrics.analyses[0].disabled);
  EXPECT_EQ(metrics.analyses[0].analysis_steps, 0);   // never ran again
  EXPECT_EQ(metrics.analyses[1].analysis_steps, 2);   // A4 unaffected
  EXPECT_EQ(metrics.steps, 20);                       // simulation completed
}

TEST(RuntimePolicy, AbortPropagatesTheException) {
  RuntimeFixture fix;
  fault::ScopedFault f(fault::Hook::kRuntimeAnalyze, 1);
  runtime::RuntimeConfig config;
  config.on_analysis_failure = runtime::FailurePolicy::kAbort;
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, config);
  EXPECT_THROW(rt.run(), std::runtime_error);
}

TEST(RuntimePolicy, OutputFailureIsDroppedNotFatal) {
  RuntimeFixture fix;
  fault::ScopedFault f(fault::Hook::kRuntimeOutput, 1);
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, {});
  const runtime::RunMetrics metrics = rt.run();
  EXPECT_EQ(metrics.analysis_failures, 1);
  // The failed flush is dropped: one fewer output than scheduled, but the
  // analysis work itself completed.
  EXPECT_EQ(metrics.analyses[0].output_steps, 3);
  EXPECT_EQ(metrics.analyses[0].analysis_steps, 4);
}

TEST(RuntimePolicy, MemoryOverrunSkipAndLogCountsEveryViolation) {
  RuntimeFixture fix;
  runtime::RuntimeConfig config;
  config.memory_budget = 1.0;  // one byte: every committed step violates
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, config);
  const runtime::RunMetrics metrics = rt.run();
  EXPECT_GT(metrics.memory_overruns, 0);
  EXPECT_EQ(metrics.analyses_disabled, 0);
  EXPECT_EQ(metrics.steps, 20);
}

TEST(RuntimePolicy, MemoryOverrunDisableShedsTheLargestAnalysis) {
  RuntimeFixture fix;
  runtime::RuntimeConfig config;
  config.memory_budget = 1.0;
  config.on_memory_overrun = runtime::FailurePolicy::kDisableAnalysis;
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, config);
  const runtime::RunMetrics metrics = rt.run();
  EXPECT_GE(metrics.analyses_disabled, 1);
  EXPECT_EQ(metrics.steps, 20);  // the simulation itself is never sacrificed
}

TEST(RuntimePolicy, MemoryOverrunAbortThrows) {
  RuntimeFixture fix;
  runtime::RuntimeConfig config;
  config.memory_budget = 1.0;
  config.on_memory_overrun = runtime::FailurePolicy::kAbort;
  runtime::InsituRuntime rt(*fix.md, fix.registry, fix.schedule, config);
  EXPECT_THROW(rt.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Presolve restore edge cases (satellite: fully-fixed / empty reductions).

TEST(PresolveRestore, FullyFixedModelRestoresFromEmptySolution) {
  lp::Model m;
  m.add_column("x", 2.0, 2.0, 1.0);   // fixed at 2
  m.add_column("y", -1.0, -1.0, 1.0); // fixed at -1
  m.add_row("r", lp::RowType::kLe, 5.0, {{0, 1.0}, {1, 1.0}});
  const lp::PresolveResult pre = lp::presolve(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.removed_columns, 2);
  EXPECT_EQ(pre.reduced.num_columns(), 0);
  const std::vector<double> full = pre.restore({});
  ASSERT_EQ(full.size(), 2u);
  EXPECT_DOUBLE_EQ(full[0], 2.0);
  EXPECT_DOUBLE_EQ(full[1], -1.0);
  EXPECT_TRUE(m.is_feasible(full, 1e-9));
}

TEST(PresolveRestore, EmptyReductionPassesSolutionsThrough) {
  lp::Model m;
  m.add_column("x", 0.0, 5.0, 1.0);
  m.add_column("y", 0.0, 5.0, 2.0);
  m.add_row("r", lp::RowType::kLe, 6.0, {{0, 1.0}, {1, 2.0}});
  const lp::PresolveResult pre = lp::presolve(m);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.removed_columns, 0);
  const std::vector<double> full = pre.restore({1.5, 2.0});
  ASSERT_EQ(full.size(), 2u);
  EXPECT_DOUBLE_EQ(full[0], 1.5);
  EXPECT_DOUBLE_EQ(full[1], 2.0);
}

}  // namespace
}  // namespace insched
