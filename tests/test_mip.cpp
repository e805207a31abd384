// Unit and property tests for the branch-and-bound MIP solver, heuristics,
// cover cuts, and cross-validation against exhaustive enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/lp/model.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/heuristics.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/support/random.hpp"

namespace insched::mip {
namespace {

using lp::kInf;
using lp::Model;
using lp::RowEntry;
using lp::RowType;
using lp::Sense;
using lp::VarType;

// Exhaustively enumerates all integer assignments of a pure-integer model
// with finite bounds; returns the best objective (nullopt if infeasible).
std::optional<double> brute_force(const Model& m) {
  const int n = m.num_columns();
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::optional<double> best;
  const bool maximize = m.sense() == Sense::kMaximize;
  std::function<void(int)> rec = [&](int j) {
    if (j == n) {
      if (!m.is_feasible(x, 1e-9)) return;
      const double obj = m.objective_value(x);
      if (!best || (maximize ? obj > *best : obj < *best)) best = obj;
      return;
    }
    const lp::Column& c = m.column(j);
    const auto lo = static_cast<long>(std::ceil(c.lower - 1e-9));
    const auto hi = static_cast<long>(std::floor(c.upper + 1e-9));
    for (long v = lo; v <= hi; ++v) {
      x[static_cast<std::size_t>(j)] = static_cast<double>(v);
      rec(j + 1);
    }
  };
  rec(0);
  return best;
}

TEST(Mip, SmallKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=0? enumerate: best is
  // a+c (17, weight 5) vs b+c (20, weight 6) -> 20.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int a = m.add_column("a", 0, 1, 10.0, VarType::kBinary);
  const int b = m.add_column("b", 0, 1, 13.0, VarType::kBinary);
  const int c = m.add_column("c", 0, 1, 7.0, VarType::kBinary);
  m.add_row("w", RowType::kLe, 6.0, {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 20.0, 1e-9);
  EXPECT_NEAR(res.x[1], 1.0, 1e-9);
  EXPECT_NEAR(res.x[2], 1.0, 1e-9);
}

TEST(Mip, IntegerRoundingMatters) {
  // max x + y, 2x + 2y <= 5 integer -> LP gives 2.5, MIP must give 2.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, kInf, 1.0, VarType::kInteger);
  const int y = m.add_column("y", 0, kInf, 1.0, VarType::kInteger);
  m.add_row("c", RowType::kLe, 5.0, {{x, 2.0}, {y, 2.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.0, 1e-9);
}

TEST(Mip, MixedIntegerContinuous) {
  // max 5i + c, i integer in [0,3], c in [0, 10], i + c <= 4.2.
  // Optimum: i=3 (15), c=1.2 -> 16.2.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int i = m.add_column("i", 0, 3, 5.0, VarType::kInteger);
  const int c = m.add_column("c", 0, 10, 1.0);
  m.add_row("cap", RowType::kLe, 4.2, {{i, 1.0}, {c, 1.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 16.2, 1e-8);
  EXPECT_NEAR(res.x[0], 3.0, 1e-9);
  EXPECT_NEAR(res.x[1], 1.2, 1e-8);
}

TEST(Mip, InfeasibleDetected) {
  Model m;
  const int x = m.add_column("x", 0, 1, 1.0, VarType::kBinary);
  const int y = m.add_column("y", 0, 1, 1.0, VarType::kBinary);
  m.add_row("ge", RowType::kGe, 3.0, {{x, 1.0}, {y, 1.0}});
  const MipResult res = solve_mip(m);
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
  EXPECT_FALSE(res.has_solution);
}

TEST(Mip, EqualityConstrainedInteger) {
  // min x + y with x + 2y = 7, x,y integer >= 0 -> (1,3) obj 4 or (3,2) obj 5
  // or (7,0)=7, (5,1)=6 -> best 4.
  Model m;
  const int x = m.add_column("x", 0, 20, 1.0, VarType::kInteger);
  const int y = m.add_column("y", 0, 20, 1.0, VarType::kInteger);
  m.add_row("eq", RowType::kEq, 7.0, {{x, 1.0}, {y, 2.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 4.0, 1e-9);
}

TEST(Mip, PureLpPassThrough) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0.0, 2.5, 1.0);
  m.add_row("r", RowType::kLe, 100.0, {{x, 1.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.5, 1e-9);
}

TEST(Mip, GapIsZeroOnProvenOptimum) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 10, 3.0, VarType::kInteger);
  m.add_row("r", RowType::kLe, 7.5, {{x, 1.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 21.0, 1e-9);
  EXPECT_LE(res.gap(), 1e-5);
}

TEST(Mip, RespectsBothBranchingRules) {
  for (const Branching rule : {Branching::kMostFractional, Branching::kPseudoCost}) {
    Model m;
    m.set_sense(Sense::kMaximize);
    std::vector<double> weights{3, 5, 7, 4, 6, 2, 9, 8};
    std::vector<double> profits{4, 7, 9, 5, 8, 3, 11, 10};
    for (std::size_t j = 0; j < weights.size(); ++j)
      m.add_column("b", 0, 1, profits[j], VarType::kBinary);
    std::vector<RowEntry> entries;
    for (std::size_t j = 0; j < weights.size(); ++j)
      entries.push_back(RowEntry{static_cast<int>(j), weights[j]});
    m.add_row("cap", RowType::kLe, 20.0, entries);
    MipOptions opt;
    opt.branching = rule;
    const MipResult res = solve_mip(m, opt);
    ASSERT_TRUE(res.optimal());
    const auto expected = brute_force(m);
    ASSERT_TRUE(expected.has_value());
    EXPECT_NEAR(res.objective, *expected, 1e-8);
  }
}

TEST(Heuristics, RoundAndFixFindsFeasible) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 5, 1.0, VarType::kInteger);
  const int y = m.add_column("y", 0.0, 10.0, 0.5);
  m.add_row("cap", RowType::kLe, 6.0, {{x, 1.0}, {y, 1.0}});
  const std::vector<double> lp_point{2.4, 3.6};
  const auto sol = round_and_fix(m, lp_point, {}, 1e-6);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(m.is_feasible(*sol, 1e-6));
  EXPECT_NEAR((*sol)[0], 2.0, 1e-9);
}

TEST(Heuristics, DiveReachesIntegrality) {
  Model m;
  m.set_sense(Sense::kMaximize);
  for (int j = 0; j < 6; ++j) m.add_column("b", 0, 1, 1.0 + j * 0.1, VarType::kBinary);
  std::vector<RowEntry> entries;
  for (int j = 0; j < 6; ++j) entries.push_back(RowEntry{j, 1.0 + j});
  m.add_row("cap", RowType::kLe, 9.5, entries);
  const lp::SimplexResult rel = lp::solve_lp(m);
  ASSERT_TRUE(rel.optimal());
  const auto sol = dive(m, rel.x, {}, 1e-6);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(m.is_feasible(*sol, 1e-6));
}

TEST(Cuts, CoverCutIsValidForAllIntegerPoints) {
  Model m;
  m.set_sense(Sense::kMaximize);
  for (int j = 0; j < 5; ++j) m.add_column("b", 0, 1, 1.0, VarType::kBinary);
  std::vector<RowEntry> entries;
  const std::vector<double> w{5, 4, 3, 3, 2};
  for (int j = 0; j < 5; ++j) entries.push_back(RowEntry{j, w[static_cast<std::size_t>(j)]});
  m.add_row("cap", RowType::kLe, 8.0, entries);
  const lp::SimplexResult rel = lp::solve_lp(m);
  ASSERT_TRUE(rel.optimal());
  const std::vector<Cut> cuts = generate_cover_cuts(m, rel.x);
  // Whatever cuts were produced must not exclude any feasible binary point.
  for (int mask = 0; mask < 32; ++mask) {
    std::vector<double> x(5);
    double weight = 0.0;
    for (int j = 0; j < 5; ++j) {
      x[static_cast<std::size_t>(j)] = (mask >> j) & 1;
      weight += x[static_cast<std::size_t>(j)] * w[static_cast<std::size_t>(j)];
    }
    if (weight > 8.0) continue;  // infeasible for the row anyway
    for (const Cut& cut : cuts) {
      double lhs = 0.0;
      for (const RowEntry& e : cut.entries) lhs += e.coeff * x[static_cast<std::size_t>(e.column)];
      EXPECT_LE(lhs, cut.rhs + 1e-9) << "cut excludes feasible point mask=" << mask;
    }
  }
}

TEST(Mip, CutsDoNotChangeOptimum) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    Model m;
    m.set_sense(Sense::kMaximize);
    const int n = 8;
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j) {
      m.add_column("b", 0, 1, rng.uniform(1.0, 10.0), VarType::kBinary);
      entries.push_back(RowEntry{j, rng.uniform(1.0, 6.0)});
    }
    m.add_row("cap", RowType::kLe, rng.uniform(6.0, 14.0), entries);
    MipOptions with_cuts;
    with_cuts.use_cover_cuts = true;
    MipOptions without_cuts;
    without_cuts.use_cover_cuts = false;
    const MipResult a = solve_mip(m, with_cuts);
    const MipResult b = solve_mip(m, without_cuts);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_NEAR(a.objective, b.objective, 1e-8);
  }
}


TEST(Mip, TimeLimitReturnsIncumbentNotOptimal) {
  // A symmetric time-indexed-style model with many equal-objective solutions
  // and a tiny time limit: the solver must return a feasible incumbent and
  // report the limit status.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int n = 40;
  std::vector<RowEntry> cap;
  for (int j = 0; j < n; ++j) {
    m.add_column("b", 0, 1, 1.0, VarType::kBinary);
    cap.push_back(RowEntry{j, 1.0});
  }
  m.add_row("half", RowType::kLe, n / 2.0 - 0.5, cap);  // fractional capacity
  MipOptions opt;
  opt.time_limit_s = 0.0;  // expire immediately after the root
  opt.use_rounding_heuristic = true;
  const MipResult res = solve_mip(m, opt);
  EXPECT_TRUE(res.has_solution);  // the root heuristic found something
  EXPECT_TRUE(m.is_feasible(res.x, 1e-6));
}

TEST(Mip, NodeLimitRespected) {
  Model m;
  m.set_sense(Sense::kMaximize);
  Rng rng(7);
  std::vector<RowEntry> cap;
  for (int j = 0; j < 30; ++j) {
    m.add_column("b", 0, 1, rng.uniform(1.0, 2.0), VarType::kBinary);
    cap.push_back(RowEntry{j, rng.uniform(1.0, 2.0)});
  }
  m.add_row("cap", RowType::kLe, 20.0, cap);
  MipOptions opt;
  opt.max_nodes = 5;
  const MipResult res = solve_mip(m, opt);
  EXPECT_LE(res.nodes, 5);
  EXPECT_TRUE(res.has_solution);
}

TEST(Mip, PresolvePathPreservesOptimum) {
  // Fixed columns + singleton rows: the presolve branch must restore the
  // full solution vector correctly.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int fixed = m.add_column("fixed", 3, 3, 2.0, VarType::kInteger);
  const int x = m.add_column("x", 0, 10, 1.0, VarType::kInteger);
  const int y = m.add_column("y", 0, 10, 1.0, VarType::kInteger);
  m.add_row("single", RowType::kLe, 4.2, {{x, 1.0}});  // singleton: x <= 4
  m.add_row("mix", RowType::kLe, 9.0, {{x, 1.0}, {y, 1.0}, {fixed, 1.0}});
  MipOptions with;
  with.use_presolve = true;
  MipOptions without;
  without.use_presolve = false;
  const MipResult a = solve_mip(m, with);
  const MipResult b = solve_mip(m, without);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  ASSERT_EQ(a.x.size(), 3u);
  EXPECT_DOUBLE_EQ(a.x[static_cast<std::size_t>(fixed)], 3.0);
  EXPECT_TRUE(m.is_feasible(a.x, 1e-6));
}

TEST(Mip, CoverCutsReduceNodesOnHardKnapsacks) {
  // Aggregate over several instances: cuts should not hurt and usually help.
  Rng rng(99);
  long nodes_with = 0, nodes_without = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Model m;
    m.set_sense(Sense::kMaximize);
    const int n = 24;
    std::vector<RowEntry> cap;
    for (int j = 0; j < n; ++j) {
      const double w = rng.uniform(3.0, 9.0);
      m.add_column("b", 0, 1, w + rng.uniform(-0.2, 0.2), VarType::kBinary);
      cap.push_back(RowEntry{j, w});
    }
    m.add_row("cap", RowType::kLe, 40.0, cap);
    MipOptions with;
    with.use_cover_cuts = true;
    MipOptions without;
    without.use_cover_cuts = false;
    const MipResult a = solve_mip(m, with);
    const MipResult b = solve_mip(m, without);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_NEAR(a.objective, b.objective, 1e-7);
    nodes_with += a.nodes;
    nodes_without += b.nodes;
  }
  // Not asserted strictly per-instance (branching luck varies); in aggregate
  // the cut version must not explode relative to the plain version.
  EXPECT_LT(nodes_with, nodes_without * 3 + 50);
}

// Property test: random small pure-integer programs vs exhaustive search.
class RandomIp : public ::testing::TestWithParam<int> {};

TEST_P(RandomIp, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337u + 17u);
  Model m;
  const bool maximize = rng.bernoulli(0.5);
  m.set_sense(maximize ? Sense::kMaximize : Sense::kMinimize);
  const int n = static_cast<int>(rng.uniform_int(2, 5));
  for (int j = 0; j < n; ++j) {
    const double lo = static_cast<double>(rng.uniform_int(0, 2));
    const double hi = lo + static_cast<double>(rng.uniform_int(1, 4));
    m.add_column("v", lo, hi, rng.uniform(-5.0, 5.0), VarType::kInteger);
  }
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < rows; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.7)) entries.push_back(RowEntry{j, rng.uniform(-3.0, 3.0)});
    if (entries.empty()) entries.push_back(RowEntry{0, 1.0});
    const double rhs = rng.uniform(-5.0, 15.0);
    const RowType type = rng.bernoulli(0.7) ? RowType::kLe : RowType::kGe;
    m.add_row("r", type, rhs, std::move(entries));
  }
  const auto expected = brute_force(m);
  const MipResult res = solve_mip(m);
  if (!expected.has_value()) {
    EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible) << m.to_string();
  } else {
    ASSERT_TRUE(res.optimal()) << m.to_string();
    EXPECT_NEAR(res.objective, *expected, 1e-7) << m.to_string();
    EXPECT_TRUE(m.is_feasible(res.x, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomIp, ::testing::Range(0, 60));

// ---------------------------------------------------------------------------
// Termination accounting: truncated searches must never claim optimality and
// gap()/best_bound must describe the open tree.

namespace {

// Knapsack with irrational-ish weights: no pruning shortcuts, so node and
// time limits actually truncate the search.
// The cutting-plane engine closes small knapsacks at the root; tests that
// specifically exercise the *tree* (truncation reporting, warm re-solves)
// pin it off so a search actually happens.
MipOptions tree_only(MipOptions opt = {}) {
  opt.use_probing = false;
  opt.use_cover_cuts = false;
  opt.use_clique_cuts = false;
  opt.use_gomory_cuts = false;
  opt.use_mir_cuts = false;
  opt.in_tree_cuts = false;
  return opt;
}

Model hard_knapsack(int n, unsigned seed) {
  Model m;
  m.set_sense(Sense::kMaximize);
  Rng rng(seed);
  std::vector<RowEntry> cap;
  for (int j = 0; j < n; ++j) {
    m.add_column("b", 0, 1, rng.uniform(1.0, 2.0), VarType::kBinary);
    cap.push_back(RowEntry{j, rng.uniform(1.0, 2.0)});
  }
  m.add_row("cap", RowType::kLe, 0.62 * n, cap);
  return m;
}

}  // namespace

TEST(MipTermination, ProvedOptimalHasZeroGap) {
  const Model m = hard_knapsack(12, 3);
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_EQ(res.termination, MipTermination::kProvedOptimal);
  EXPECT_FALSE(res.truncated());
  EXPECT_DOUBLE_EQ(res.gap(), 0.0);
  EXPECT_DOUBLE_EQ(res.gap_rel(), 0.0);
  EXPECT_DOUBLE_EQ(res.best_bound, res.objective);
}

TEST(MipTermination, NodeLimitNeverReportsOptimal) {
  const Model m = hard_knapsack(30, 11);
  MipOptions opt = tree_only();
  opt.max_nodes = 3;
  const MipResult res = solve_mip(m, opt);
  EXPECT_LE(res.nodes, 3);
  EXPECT_FALSE(res.optimal());
  EXPECT_EQ(res.status, lp::SolveStatus::kIterationLimit);
  EXPECT_EQ(res.termination, MipTermination::kNodeLimit);
  EXPECT_TRUE(res.truncated());
  ASSERT_TRUE(res.has_solution);  // heuristic incumbent survives truncation
  // Maximize: the proven bound must dominate the incumbent, and the gap must
  // be the distance between them (not zero, not infinity).
  EXPECT_GE(res.best_bound, res.objective - 1e-9);
  EXPECT_GE(res.gap(), 0.0);
  EXPECT_TRUE(std::isfinite(res.gap()));
  EXPECT_NEAR(res.gap(), std::fabs(res.best_bound - res.objective), 1e-12);
}

TEST(MipTermination, TimeLimitNeverReportsOptimal) {
  const Model m = hard_knapsack(30, 13);
  MipOptions opt;
  opt.time_limit_s = 0.0;  // expire immediately after the root
  const MipResult res = solve_mip(m, opt);
  EXPECT_FALSE(res.optimal());
  EXPECT_EQ(res.status, lp::SolveStatus::kIterationLimit);
  EXPECT_EQ(res.termination, MipTermination::kTimeLimit);
  EXPECT_TRUE(res.truncated());
  ASSERT_TRUE(res.has_solution);
  EXPECT_GE(res.best_bound, res.objective - 1e-9);
  EXPECT_TRUE(std::isfinite(res.gap()));
}

TEST(MipTermination, InfeasibleModelReportsProvedInfeasible) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 5, 1.0, VarType::kInteger);
  m.add_row("lo", RowType::kGe, 10.0, {{x, 1.0}});  // x >= 10 vs x <= 5
  const MipResult res = solve_mip(m);
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
  EXPECT_EQ(res.termination, MipTermination::kProvedInfeasible);
  EXPECT_FALSE(res.has_solution);
  EXPECT_TRUE(std::isinf(res.gap()));
}

TEST(MipTermination, PureLpPassthroughTermination) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 4, 1.0, VarType::kContinuous);
  m.add_row("cap", RowType::kLe, 2.5, {{x, 1.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_EQ(res.termination, MipTermination::kProvedOptimal);
  EXPECT_DOUBLE_EQ(res.gap(), 0.0);
}

TEST(MipTermination, WarmAndColdSearchesAgreeOnOptimum) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    const Model m = hard_knapsack(16, 100 + seed);
    MipOptions warm = tree_only();
    warm.warm_start = true;
    MipOptions cold = tree_only();
    cold.warm_start = false;
    const MipResult a = solve_mip(m, warm);
    const MipResult b = solve_mip(m, cold);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_NEAR(a.objective, b.objective, 1e-8) << "seed " << seed;
    EXPECT_GT(a.counters.warm_solves, 0) << "warm path never engaged";
  }
}

// ---------------------------------------------------------------------------
// Warm start from a MipSnapshot: a same-shape sibling restarts its root LP
// from the first solve's root basis; any other shape ignores it.

Model weight_scaled(Model m, double scale) {
  for (int j = 0; j < m.num_columns(); j += 2)
    m.set_objective(j, m.column(j).objective * scale);
  return m;
}

TEST(MipSnapshot, SameShapeSiblingStartsFromTheRootBasis) {
  const Model first = hard_knapsack(16, 7);
  const MipResult a = solve_mip(first);
  ASSERT_TRUE(a.optimal());
  ASSERT_NE(a.snapshot, nullptr);
  EXPECT_FALSE(a.snapshot->root_basis.empty());
  EXPECT_EQ(a.counters.shared_basis_warm + a.counters.shared_basis_failed, 0);

  const Model sibling = weight_scaled(first, 1.3);
  MipOptions warm;
  warm.snapshot = a.snapshot;
  const MipResult b = solve_mip(sibling, warm);
  const MipResult cold = solve_mip(sibling);
  ASSERT_TRUE(b.optimal());
  ASSERT_TRUE(cold.optimal());
  EXPECT_EQ(b.counters.shared_basis_warm, 1);
  EXPECT_NEAR(b.objective, cold.objective, 1e-8);
}

TEST(MipSnapshot, OtherShapeIsIgnored) {
  const MipResult small = solve_mip(hard_knapsack(12, 7));
  ASSERT_NE(small.snapshot, nullptr);
  const Model big = hard_knapsack(16, 7);
  MipOptions warm;
  warm.snapshot = small.snapshot;
  const MipResult b = solve_mip(big, warm);
  const MipResult cold = solve_mip(big);
  ASSERT_TRUE(b.optimal());
  EXPECT_EQ(b.counters.shared_basis_warm + b.counters.shared_basis_failed, 0);
  EXPECT_EQ(b.counters.pc_seeded, 0);
  EXPECT_NEAR(b.objective, cold.objective, 1e-8);
}

// ---------------------------------------------------------------------------
// Reduction pipeline: probing fixes and aggregations are substituted out of
// the model handed to the search, and PresolveResult::restore must expand
// the reduced solution back to the full original space.

TEST(Mip, ProbingReductionsRestoreInFullSpace) {
  // y == 1 - x via the equality row (complement aggregation), z forced to 0
  // by the budget row, w an ordinary free binary.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 1, 4.0, VarType::kBinary);
  const int y = m.add_column("y", 0, 1, 1.0, VarType::kBinary);
  const int z = m.add_column("z", 0, 1, 5.0, VarType::kBinary);
  const int w = m.add_column("w", 0, 1, 2.0, VarType::kBinary);
  m.add_row("complement", RowType::kEq, 1.0, {{x, 1.0}, {y, 1.0}});
  m.add_row("force_z", RowType::kLe, 1.0, {{z, 2.0}});
  m.add_row("cap", RowType::kLe, 1.0, {{x, 1.0}, {w, 1.0}});

  const ProbingResult probing = probe_binaries(m);
  ASSERT_FALSE(probing.infeasible);
  EXPECT_FALSE(probing.fixed_columns.empty());      // z = 0
  EXPECT_FALSE(probing.aggregations.empty());       // y = 1 - x

  // solve_mip runs the same reductions internally and must hand back a
  // full-space solution: every eliminated column re-derived.
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  ASSERT_EQ(res.x.size(), static_cast<std::size_t>(m.num_columns()));
  EXPECT_TRUE(m.is_feasible(res.x, 1e-7));
  EXPECT_NEAR(res.x[static_cast<std::size_t>(z)], 0.0, 1e-9);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(x)] + res.x[static_cast<std::size_t>(y)], 1.0,
              1e-9);
  // Optimum: x = 1 (4) beats y + w (3); cap stops x + w together.
  EXPECT_NEAR(res.objective, 4.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Counter record: one field table (kMipCounterFields) drives merging, the
// search's snapshots and every emitter, so its rows must name each field
// exactly once. The header's static_assert already ties the row count to
// sizeof(MipCounters).

bool is_identifier(const std::string& name) {
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name.front())) != 0)
    return false;
  return std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
  });
}

TEST(MipCounterTable, NamesAreUniqueIdentifiersAndMembersDistinct) {
  std::set<std::string> names;
  for (const CounterField& f : kMipCounterFields) {
    EXPECT_TRUE(is_identifier(f.name)) << "'" << f.name << "'";
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate name " << f.name;
  }
  // Distinct members + the sizeof static_assert = every field has a row.
  for (std::size_t i = 0; i < std::size(kMipCounterFields); ++i)
    for (std::size_t j = i + 1; j < std::size(kMipCounterFields); ++j)
      EXPECT_NE(kMipCounterFields[i].member, kMipCounterFields[j].member)
          << kMipCounterFields[i].name << " and " << kMipCounterFields[j].name;
}

TEST(MipCounterTable, MergeSumsCountsAndMaxesPeaks) {
  MipCounters a;
  MipCounters b;
  long v = 1;
  for (const CounterField& f : kMipCounterFields) {
    a.*f.member = v;
    b.*f.member = 100 * v;
    ++v;
  }
  MipCounters merged = a;
  merged += b;
  for (const CounterField& f : kMipCounterFields) {
    const long expect = f.merge == CounterMerge::kMax ? std::max(a.*f.member, b.*f.member)
                                                      : a.*f.member + b.*f.member;
    EXPECT_EQ(merged.*f.member, expect) << f.name;
  }
}

// A MIP that stops at the root still reports the root's LP work: the bail
// path snapshots the same tally as a finished search.
TEST(MipCounterTable, RootInfeasibleReportsItsLpWork) {
  Model m;
  const int x = m.add_column("x", 0, 1, 1.0, VarType::kBinary);
  const int y = m.add_column("y", 0, 1, 1.0, VarType::kBinary);
  m.add_row("ge", RowType::kGe, 3.0, {{x, 1.0}, {y, 1.0}});
  MipOptions opt;
  opt.use_presolve = false;  // leave the infeasibility for the root LP
  opt.use_probing = false;
  const MipResult res = solve_mip(m, opt);
  ASSERT_EQ(res.termination, MipTermination::kProvedInfeasible);
  ASSERT_GT(res.lp_iterations, 0);
  const MipCounters& c = res.counters;
  EXPECT_GT(c.lp_ftran, 0);
  EXPECT_GT(c.lp_btran, 0);
  EXPECT_GT(c.lp_refactorizations, 0);
  EXPECT_EQ(c.lp_staircase_orderings + c.lp_staircase_fallbacks, c.lp_refactorizations);
  // No feasible greedy point exists, so the root never tried a crash start.
  EXPECT_EQ(c.crash_warm, 0);
  EXPECT_EQ(c.crash_failed, 0);
}

TEST(MipCounterTable, RootUnboundedReportsTheFailedCrash) {
  // The all-zero point is feasible, so the root crash-starts the dual
  // simplex; the LP is unbounded, so the crash fails over to the cold path.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, kInf, 1.0, VarType::kInteger);
  const int y = m.add_column("y", 0, kInf, 1.0, VarType::kInteger);
  m.add_row("d", RowType::kLe, 2.0, {{x, 1.0}, {y, -1.0}});
  MipOptions opt;
  opt.use_presolve = false;
  opt.use_probing = false;
  const MipResult res = solve_mip(m, opt);
  ASSERT_EQ(res.termination, MipTermination::kUnbounded);
  const MipCounters& c = res.counters;
  EXPECT_EQ(c.crash_warm, 0);
  EXPECT_EQ(c.crash_failed, 1);
  EXPECT_GT(c.lp_ftran, 0);
  EXPECT_GT(c.lp_refactorizations, 0);
}

// Every applied cut is tallied under exactly one family, and the staircase's
// Eq 9 windows reach the conflict graph's clique table. The FLASH staircase
// at steps=200 applies cuts of all four families.
TEST(MipCounterTable, CutFamiliesSumToAppliedOnStaircase) {
  scheduler::ScheduleProblem p = casestudy::flash_problem({2.0, 1.0, 2.0});
  p.steps = 200;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) a.itv = std::max<long>(1, p.steps / 20);
  MipOptions opt;
  opt.threads = 1;
  const MipResult res = solve_mip(scheduler::build_time_expanded_milp(p).model, opt);
  ASSERT_TRUE(res.optimal());
  const MipCounters& c = res.counters;
  EXPECT_GT(c.cuts_applied, 0);
  EXPECT_EQ(c.cuts_applied_cover + c.cuts_applied_clique + c.cuts_applied_gomory +
                c.cuts_applied_mir,
            c.cuts_applied);
  EXPECT_GT(c.conflict_cliques, 0);
}

// A model without integer columns skips the tree, but still reports the
// work of its one LP.
TEST(MipCounterTable, PureLpReportsItsLpWork) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 4, 3.0);
  const int y = m.add_column("y", 0, 4, 2.0);
  m.add_row("a", RowType::kLe, 5.0, {{x, 1.0}, {y, 1.0}});
  m.add_row("b", RowType::kLe, 7.0, {{x, 2.0}, {y, 1.0}});
  const MipResult res = solve_mip(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_GT(res.lp_iterations, 0);
  EXPECT_GT(res.counters.lp_ftran, 0);
  EXPECT_GT(res.counters.lp_refactorizations, 0);
}

}  // namespace
}  // namespace insched::mip
