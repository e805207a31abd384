// Crash-basis construction and the staircase fast path (lp/crash.hpp):
//  * unit sanity of crash_basis / extend_basis_with_slacks on small models;
//  * steps=2000 staircase LP regression — the crash-started dual solve must
//    reach the exact cold objective in no more iterations than the generic
//    all-slack path (the fast path exists to make this margin enormous);
//  * the three case-study staircase MILPs (water 63 / rhodo 78 / flash 150)
//    prove the same optima with the crash basis on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/lp/crash.hpp"
#include "insched/lp/model.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/mip/heuristics.hpp"
#include "insched/scheduler/timeexp_milp.hpp"

namespace {

using namespace insched;

// Mirrors the crash point the MIP root builds: every column at (clamped)
// zero, then greedy_fill flips on whatever binaries fit.
std::vector<double> crash_point(const lp::Model& model) {
  std::vector<double> x(static_cast<std::size_t>(model.num_columns()), 0.0);
  for (int j = 0; j < model.num_columns(); ++j) {
    const lp::Column& col = model.column(j);
    x[static_cast<std::size_t>(j)] = std::clamp(0.0, col.lower, col.upper);
  }
  mip::greedy_fill(model, &x);
  return x;
}

scheduler::ScheduleProblem staircase_problem(scheduler::ScheduleProblem p, long steps,
                                             double weight_scale) {
  // Mirrors bench/solver_perf.cpp run_staircase_mip.
  p.steps = steps;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, p.steps / 20);
    a.weight *= weight_scale;
  }
  return p;
}

struct Staircase {
  const char* name;
  lp::Model model;
  double optimum;  // MIP optimum at steps=500 (the recovery-suite gate values)
};

std::vector<Staircase> staircases(long steps) {
  std::vector<Staircase> out;
  out.push_back({"water",
                 scheduler::build_time_expanded_milp(
                     staircase_problem(casestudy::water_ions_problem(16384, 0.08), steps, 1.0))
                     .model,
                 63.0});
  out.push_back({"rhodo",
                 scheduler::build_time_expanded_milp(
                     staircase_problem(casestudy::rhodopsin_problem(100.0), steps, 3.0))
                     .model,
                 78.0});
  out.push_back({"flash",
                 scheduler::build_time_expanded_milp(
                     staircase_problem(casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08), steps,
                                       3.0))
                     .model,
                 150.0});
  return out;
}

// ---------------------------------------------------------------------------
// Unit sanity.

TEST(CrashBasis, FeasiblePointYieldsPrimalFeasibleBasis) {
  // max x0 + x1  s.t.  x0 + x1 <= 1.5, bounds [0, 1]: point (1, 0.5) is on
  // the row, (1, 0) is interior.
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  m.add_column("x0", 0.0, 1.0, 1.0);
  m.add_column("x1", 0.0, 1.0, 1.0);
  m.add_row("r", lp::RowType::kLe, 1.5, {{0, 1.0}, {1, 1.0}});

  const lp::CrashResult crash = lp::crash_basis(m, {1.0, 0.0});
  EXPECT_TRUE(crash.primal_feasible);
  EXPECT_EQ(crash.uncovered_rows, 0);

  const lp::SimplexResult warm = lp::solve_lp_dual(m, crash.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, 1.5, 1e-9);
}

TEST(CrashBasis, InfeasiblePointStillSolvesToTheOptimum) {
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  m.add_column("x0", 0.0, 2.0, 1.0);
  m.add_row("r", lp::RowType::kLe, 1.0, {{0, 1.0}});

  // x = 2 violates the row; the slack cannot carry the residual, so the
  // crash promotes the structural column into the basis instead and the
  // solve still lands on the optimum.
  const lp::CrashResult crash = lp::crash_basis(m, {2.0});
  EXPECT_EQ(crash.structural_basics, 1);

  const lp::SimplexResult warm = lp::solve_lp_dual(m, crash.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, 1.0, 1e-9);
}

TEST(CrashBasis, ExtendBasisWithSlacksSurvivesCutRows) {
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  m.add_column("x0", 0.0, 10.0, 1.0);
  m.add_column("x1", 0.0, 10.0, 1.0);
  m.add_row("r0", lp::RowType::kLe, 8.0, {{0, 1.0}, {1, 1.0}});

  lp::SimplexOptions opt;
  opt.collect_basis = true;
  const lp::SimplexResult first = lp::solve_lp(m, opt);
  ASSERT_TRUE(first.optimal());
  ASSERT_FALSE(first.basis.empty());
  EXPECT_NEAR(first.objective, 8.0, 1e-9);

  // Append a cut that makes the old optimum infeasible; the extended basis
  // stays dual feasible and the dual simplex repairs only the new row.
  lp::Model cutm = m;
  cutm.add_row("cut", lp::RowType::kLe, 5.0, {{0, 1.0}, {1, 1.0}});
  const lp::Basis ext = lp::extend_basis_with_slacks(first.basis, cutm.num_columns(), 1);
  const lp::SimplexResult second = lp::solve_lp_dual(cutm, ext);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, 5.0, 1e-9);

  const lp::SimplexResult cold = lp::solve_lp(cutm);
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(second.objective, cold.objective, 1e-9);
}

// ---------------------------------------------------------------------------
// steps=2000 staircase LP regression: identical objectives, and the crash
// start may never pivot more than the generic cold path.

TEST(StaircaseCrashLp, CrashMatchesColdObjectiveInFewerIterations) {
  for (const Staircase& cs : staircases(2000)) {
    const lp::SimplexResult cold = lp::solve_lp(cs.model);
    ASSERT_TRUE(cold.optimal()) << cs.name;

    const std::vector<double> point = crash_point(cs.model);
    ASSERT_TRUE(cs.model.is_feasible(point, 1e-6)) << cs.name;
    const lp::CrashResult crash = lp::crash_basis(cs.model, point);
    EXPECT_TRUE(crash.primal_feasible) << cs.name;

    const lp::SimplexResult warm = lp::solve_lp_dual(cs.model, crash.basis);
    ASSERT_TRUE(warm.optimal()) << cs.name;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << cs.name;
    EXPECT_LE(warm.iterations, cold.iterations) << cs.name;
  }
}

// ---------------------------------------------------------------------------
// Case-study optima: the crash-started search proves the same optima as the
// cold-started one (63 / 78 / 150 at steps=500, the recovery-suite values).

TEST(StaircaseCrashMip, CaseStudyOptimaAgreeWithAndWithoutCrash) {
  for (const Staircase& cs : staircases(500)) {
    mip::MipOptions opt;
    opt.threads = 1;
    opt.max_nodes = 512;
    opt.time_limit_s = 120.0;
    opt.lp.refactor_interval = 1024;

    opt.use_crash_basis = true;
    const mip::MipResult crashed = mip::solve_mip(cs.model, opt);
    ASSERT_TRUE(crashed.has_solution) << cs.name;
    EXPECT_NEAR(crashed.objective, cs.optimum, 1e-6) << cs.name;

    opt.use_crash_basis = false;
    const mip::MipResult cold = mip::solve_mip(cs.model, opt);
    ASSERT_TRUE(cold.has_solution) << cs.name;
    EXPECT_NEAR(cold.objective, cs.optimum, 1e-6) << cs.name;

    EXPECT_NEAR(crashed.objective, cold.objective, 1e-9) << cs.name;
    EXPECT_GE(crashed.counters.crash_warm, 1) << cs.name;
    EXPECT_EQ(cold.counters.crash_warm, 0) << cs.name;
  }
}

// ---------------------------------------------------------------------------
// Parallel root separation must be invisible to the result: fixed-order
// batch merging keeps cut ids, the appended rows, and the single-thread tree
// bit-identical to the sequential separators.

TEST(ParallelSeparation, SingleThreadTreeIsBitIdentical) {
  const Staircase cs = staircases(500)[2];  // flash: fastest of the three
  mip::MipOptions opt;
  opt.threads = 1;
  opt.max_nodes = 512;
  opt.time_limit_s = 120.0;
  opt.lp.refactor_interval = 1024;

  opt.parallel_separation = true;
  const mip::MipResult par = mip::solve_mip(cs.model, opt);
  opt.parallel_separation = false;
  const mip::MipResult seq = mip::solve_mip(cs.model, opt);

  ASSERT_TRUE(par.has_solution);
  ASSERT_TRUE(seq.has_solution);
  EXPECT_EQ(par.objective, seq.objective);  // bitwise, not approximate
  EXPECT_EQ(par.best_bound, seq.best_bound);
  EXPECT_EQ(par.nodes, seq.nodes);
  EXPECT_EQ(par.cuts_added, seq.cuts_added);
  EXPECT_EQ(par.counters.cuts_separated, seq.counters.cuts_separated);
  ASSERT_EQ(par.x.size(), seq.x.size());
  for (std::size_t j = 0; j < par.x.size(); ++j)
    EXPECT_EQ(par.x[j], seq.x[j]) << "column " << j;
}

}  // namespace
