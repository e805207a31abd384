// Tests for the parallel branch-and-bound search: a single-thread solve must
// repeat itself bit for bit from run to run, more threads must agree on the
// optimum (enforced on the three paper case-study MILPs), and the warm/cold
// counters must account for every node LP.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/lp/model.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/scheduler/aggregate_milp.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/support/random.hpp"

namespace insched::mip {
namespace {

using lp::Model;
using lp::RowEntry;
using lp::RowType;
using lp::Sense;
using lp::VarType;

struct CaseStudy {
  const char* name;
  Model model;
};

std::vector<CaseStudy> case_study_models() {
  std::vector<CaseStudy> cases;
  cases.push_back({"water", scheduler::build_aggregate_milp(
                                casestudy::water_ions_problem(16384, 0.10))
                                .model});
  cases.push_back(
      {"rhodo", scheduler::build_aggregate_milp(casestudy::rhodopsin_problem(100.0)).model});
  cases.push_back({"flash", scheduler::build_aggregate_milp(
                                casestudy::flash_problem({2.0, 1.0, 2.0}))
                                .model});
  return cases;
}

// Pins the cutting-plane engine off for tests whose point is the *tree*
// (node accounting, truncation): the cut engine closes these instances at
// the root, leaving no search to observe.
MipOptions tree_only(MipOptions opt = {}) {
  opt.use_probing = false;
  opt.use_cover_cuts = false;
  opt.use_clique_cuts = false;
  opt.use_gomory_cuts = false;
  opt.use_mir_cuts = false;
  opt.in_tree_cuts = false;
  return opt;
}

Model knapsack(int n, unsigned seed) {
  Model m;
  m.set_sense(Sense::kMaximize);
  Rng rng(seed);
  std::vector<RowEntry> cap;
  for (int j = 0; j < n; ++j) {
    m.add_column("b", 0, 1, rng.uniform(1.0, 2.0), VarType::kBinary);
    cap.push_back(RowEntry{j, rng.uniform(1.0, 2.0)});
  }
  m.add_row("cap", RowType::kLe, 0.6 * n, cap);
  return m;
}

// The reproducibility the default `threads = 1` solve promises: solving the
// same model twice gives the same point, objective and search, bit for bit
// (==, not near). Covered on the case studies, random knapsacks and a
// time-expanded staircase with the cut engine on, each once with default
// options and once tree-only.
TEST(MipParallel, SingleThreadRunToRunBitIdentical) {
  std::vector<CaseStudy> models = case_study_models();
  for (unsigned seed = 0; seed < 6; ++seed)
    models.push_back({"knapsack", knapsack(24, 500 + seed)});
  scheduler::ScheduleProblem p = casestudy::flash_problem({2.0, 1.0, 2.0});
  p.steps = 60;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) a.itv = std::max<long>(1, p.steps / 10);
  models.push_back({"flash-te60", scheduler::build_time_expanded_milp(p).model});

  int trees = 0;
  for (const CaseStudy& cs : models) {
    for (const MipOptions& base : {MipOptions{}, tree_only()}) {
      MipOptions opt = base;
      opt.threads = 1;
      const MipResult a = solve_mip(cs.model, opt);
      const MipResult b = solve_mip(cs.model, opt);
      ASSERT_TRUE(a.optimal()) << cs.name;
      ASSERT_TRUE(b.optimal()) << cs.name;
      EXPECT_EQ(a.x, b.x) << cs.name;
      EXPECT_EQ(a.objective, b.objective) << cs.name;
      EXPECT_EQ(a.nodes, b.nodes) << cs.name;
      EXPECT_EQ(a.lp_iterations, b.lp_iterations) << cs.name;
      EXPECT_EQ(a.counters.cuts_applied, b.counters.cuts_applied) << cs.name;
      EXPECT_EQ(a.counters.tree_restarts, b.counters.tree_restarts) << cs.name;
      if (a.nodes > 1) ++trees;
    }
  }
  // A check over root-only solves would never exercise the tree.
  EXPECT_GT(trees, 0);
}

TEST(MipParallel, AsyncSearchAgreesOnCaseStudyOptima) {
  for (CaseStudy& cs : case_study_models()) {
    MipOptions serial;
    serial.threads = 1;
    const MipResult ref = solve_mip(cs.model, serial);
    ASSERT_TRUE(ref.optimal()) << cs.name;
    for (const int threads : {2, 4}) {
      MipOptions opt;
      opt.threads = threads;
      opt.oversubscribe = true;
      const MipResult res = solve_mip(cs.model, opt);
      ASSERT_TRUE(res.optimal()) << cs.name << " threads=" << threads;
      // Alternative optima are allowed across schedules, but the optimal
      // objective value is unique.
      EXPECT_NEAR(res.objective, ref.objective, 1e-8) << cs.name;
      EXPECT_TRUE(cs.model.is_feasible(res.x, 1e-5)) << cs.name;
    }
  }
}

TEST(MipParallel, AsyncSearchAgreesOnRandomInstances) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    const Model m = knapsack(20, 900 + seed);
    MipOptions serial;
    serial.threads = 1;
    MipOptions parallel;
    parallel.threads = 4;
    parallel.oversubscribe = true;
    const MipResult a = solve_mip(m, serial);
    const MipResult b = solve_mip(m, parallel);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_NEAR(a.objective, b.objective, 1e-8) << "seed " << seed;
  }
}

TEST(MipParallel, CountersAccountForEveryNodeSolve) {
  for (CaseStudy& cs : case_study_models()) {
    MipOptions opt = tree_only();
    opt.threads = 1;
    // The rounding/dive/greedy-fill heuristics can close a root outright
    // (nodes == 0), which would make the node-accounting identity below
    // vacuous — force an actual tree.
    opt.use_rounding_heuristic = false;
    const MipResult res = solve_mip(cs.model, opt);
    ASSERT_TRUE(res.optimal()) << cs.name;
    // Every processed node is either a consumed root relaxation (one per
    // tree, and cut-and-branch restarts start a fresh tree), a warm dual
    // solve, or a cold primal solve.
    EXPECT_EQ(res.counters.warm_solves + res.counters.cold_solves + 1 +
                  res.counters.tree_restarts,
              res.nodes)
        << cs.name;
    EXPECT_GT(res.counters.warm_solves, 0) << cs.name << ": warm path never engaged";
    // Warm failures fall back to cold, so they can never exceed cold solves.
    EXPECT_LE(res.counters.warm_failures, res.counters.cold_solves) << cs.name;
  }
}

TEST(MipParallel, WarmStartOffRunsColdOnly) {
  for (CaseStudy& cs : case_study_models()) {
    MipOptions opt;
    opt.warm_start = false;
    const MipResult res = solve_mip(cs.model, opt);
    ASSERT_TRUE(res.optimal()) << cs.name;
    EXPECT_EQ(res.counters.warm_solves, 0) << cs.name;
    EXPECT_EQ(res.counters.warm_failures, 0) << cs.name;
  }
}

TEST(MipParallel, ThreadsZeroUsesAutoDetection) {
  const Model m = knapsack(12, 77);
  MipOptions opt;
  opt.threads = 0;
  const MipResult res = solve_mip(m, opt);
  ASSERT_TRUE(res.optimal());
  EXPECT_GE(res.threads_used, 1);
}

TEST(MipParallel, ParallelTruncationStillNeverOptimal) {
  const Model m = knapsack(30, 4242);
  MipOptions opt = tree_only();
  opt.threads = 4;
  opt.oversubscribe = true;
  opt.max_nodes = 8;
  const MipResult res = solve_mip(m, opt);
  EXPECT_FALSE(res.optimal());
  EXPECT_EQ(res.termination, MipTermination::kNodeLimit);
  ASSERT_TRUE(res.has_solution);
  EXPECT_GE(res.best_bound, res.objective - 1e-9);  // maximize
}

}  // namespace
}  // namespace insched::mip
