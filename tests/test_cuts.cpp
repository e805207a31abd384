// Validity and concurrency tests for the cutting-plane layer: separators
// (lifted covers, cliques, MIR, Gomory) must never cut an integer feasible
// point, the conflict graph's clique table must agree with the pair scan it
// replaced, the cut pool must stay consistent under concurrent offers, probing
// reductions must round-trip through PresolveResult::restore, and the
// deterministic wave mode must stay bit-identical with the cut engine on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/lp/model.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/mip/cut_pool.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/probing.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/support/random.hpp"

namespace insched::mip {
namespace {

using insched::Rng;
using lp::Model;
using lp::RowEntry;
using lp::RowType;
using lp::Sense;
using lp::VarType;

double cut_lhs(const Cut& cut, const std::vector<double>& x) {
  double lhs = 0.0;
  for (const RowEntry& e : cut.entries) lhs += e.coeff * x[static_cast<std::size_t>(e.column)];
  return lhs;
}

bool cut_satisfied(const Cut& cut, const std::vector<double>& x, double tol = 1e-7) {
  const double lhs = cut_lhs(cut, x);
  switch (cut.type) {
    case RowType::kLe: return lhs <= cut.rhs + tol;
    case RowType::kGe: return lhs >= cut.rhs - tol;
    case RowType::kEq: return std::fabs(lhs - cut.rhs) <= tol;
  }
  return false;
}

// Runs `check` on every integer-feasible point of a pure-binary model.
void for_each_feasible(const Model& m, const std::function<void(const std::vector<double>&)>& check) {
  const int n = m.num_columns();
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::function<void(int)> rec = [&](int j) {
    if (j == n) {
      if (m.is_feasible(x, 1e-9)) check(x);
      return;
    }
    for (int v = 0; v <= 1; ++v) {
      x[static_cast<std::size_t>(j)] = v;
      rec(j + 1);
    }
  };
  rec(0);
}

// Random binary knapsack model: `rows` <= rows over `n` binaries with
// positive coefficients, maximizing a positive objective.
Model random_knapsack(Rng* rng, int n, int rows) {
  Model m;
  m.set_sense(Sense::kMaximize);
  for (int j = 0; j < n; ++j)
    m.add_column("x", 0, 1, rng->uniform(1.0, 10.0), VarType::kBinary);
  for (int r = 0; r < rows; ++r) {
    std::vector<RowEntry> entries;
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = rng->uniform(1.0, 8.0);
      entries.push_back({j, a});
      total += a;
    }
    m.add_row("k", RowType::kLe, rng->uniform(0.3, 0.7) * total, std::move(entries));
  }
  return m;
}

// Every cut a separator emits must hold at every integer feasible point —
// separators only see rows and global bounds, so validity is global.
TEST(Cuts, SeparatorsNeverCutIntegerPointsOnRandomKnapsacks) {
  Rng rng(20240807);
  for (int trial = 0; trial < 20; ++trial) {
    const Model m = random_knapsack(&rng, 9, trial % 3 + 1);
    lp::SimplexOptions lpopt;
    lpopt.collect_basis = true;
    const lp::SimplexResult rel = lp::solve_lp(m, lpopt);
    ASSERT_TRUE(rel.optimal());

    std::vector<Cut> cuts;
    for (Cut& c : generate_cover_cuts(m, rel.x, 1e-5, /*lift=*/true))
      cuts.push_back(std::move(c));
    for (Cut& c : generate_mir_cuts(m, rel.x, 1e-5)) cuts.push_back(std::move(c));
    ConflictGraph conflicts;
    conflicts.build(m, {});
    for (Cut& c : generate_clique_cuts(m, rel.x, conflicts, 1e-5))
      cuts.push_back(std::move(c));
    if (!rel.basis.empty()) {
      for (Cut& c : generate_gomory_cuts(m, rel.x, rel.basis, rel.factor.get()))
        cuts.push_back(std::move(c));
    }

    // Every emitted cut is violated at the fractional LP optimum (that is
    // what makes it a cut)...
    for (const Cut& cut : cuts) EXPECT_FALSE(cut_satisfied(cut, rel.x, 1e-9));
    // ...and satisfied at every integer feasible point (what makes it valid).
    for_each_feasible(m, [&](const std::vector<double>& x) {
      for (const Cut& cut : cuts)
        ASSERT_TRUE(cut_satisfied(cut, x))
            << cut_family_name(cut.family) << " cut violated by an integer point";
    });
  }
}

// MIR rounding on a budget row with near-equal costs must produce the
// cardinality bound that plain branching cannot infer.
TEST(Cuts, MirClosesNearEqualCostBudgetRow) {
  Model m;
  m.set_sense(Sense::kMaximize);
  std::vector<RowEntry> budget;
  for (int j = 0; j < 10; ++j) {
    const int col = m.add_column("x", 0, 1, 1.0, VarType::kBinary);
    budget.push_back({col, 17.193 + 1e-3 * j});
  }
  m.add_row("budget", RowType::kLe, 100.0, std::move(budget));
  // Fractional point spreading the budget: 100 / ~17.2 = 5.8 per-unit total.
  std::vector<double> x(10, 0.58);
  const std::vector<Cut> cuts = generate_mir_cuts(m, x, 1e-4);
  ASSERT_FALSE(cuts.empty());
  const Cut& cut = cuts.front();
  EXPECT_EQ(cut.family, CutFamily::kMir);
  // floor(100 / 17.193..) = 5: at most five analysis steps fit the budget.
  EXPECT_NEAR(cut.rhs, 5.0, 1e-9);
  EXPECT_GT(cut.violation, 0.5);
  for_each_feasible(m, [&](const std::vector<double>& xi) {
    EXPECT_TRUE(cut_satisfied(cut, xi));
  });
}

// Cuts separated at the root of the three case-study staircase MILPs must
// be satisfied by the (independently proved) integer optimum.
TEST(Cuts, CaseStudyOptimaSatisfyAllRootCuts) {
  struct Case {
    const char* name;
    scheduler::ScheduleProblem problem;
  };
  const Case cases[] = {
      {"water", casestudy::water_ions_problem(16384, 0.10)},
      {"rhodo", casestudy::rhodopsin_problem(100.0)},
      {"flash", casestudy::flash_problem({2.0, 1.0, 2.0})},
  };
  for (const Case& cs : cases) {
    scheduler::ScheduleProblem p = cs.problem;
    p.steps = 40;
    p.mth = scheduler::kNoLimit;
    for (auto& a : p.analyses) a.itv = std::max<long>(1, p.steps / 5);
    const Model model = scheduler::build_time_expanded_milp(p).model;

    MipOptions opt;
    opt.threads = 1;
    const MipResult res = solve_mip(model, opt);
    ASSERT_TRUE(res.optimal()) << cs.name;

    lp::SimplexOptions lpopt;
    lpopt.collect_basis = true;
    const lp::SimplexResult rel = lp::solve_lp(model, lpopt);
    ASSERT_TRUE(rel.optimal()) << cs.name;

    std::vector<Cut> cuts;
    for (Cut& c : generate_cover_cuts(model, rel.x)) cuts.push_back(std::move(c));
    for (Cut& c : generate_mir_cuts(model, rel.x)) cuts.push_back(std::move(c));
    ConflictGraph conflicts;
    conflicts.build(model, {});
    for (Cut& c : generate_clique_cuts(model, rel.x, conflicts))
      cuts.push_back(std::move(c));
    if (!rel.basis.empty()) {
      for (Cut& c : generate_gomory_cuts(model, rel.x, rel.basis, rel.factor.get()))
        cuts.push_back(std::move(c));
    }
    for (const Cut& cut : cuts) {
      EXPECT_TRUE(cut_satisfied(cut, res.x))
          << cs.name << ": " << cut_family_name(cut.family)
          << " cut violated by the integer optimum";
    }
  }
}

// --- Conflict graph: the clique table against the pair scan it replaced ---

bool binary_column(const lp::Column& c) {
  return c.type != VarType::kContinuous && c.lower == 0.0 && c.upper == 1.0;
}

// Reference conflict graph: the O(w^2) pair scan. Two positive binaries of a
// <= / = row conflict when the row's minimum activity plus both coefficients
// exceeds the rhs. A row wider than `max_row_entries` counts only when every
// such pair conflicts (a clique row). The pairs enter as implications over
// a rowless copy of the columns, so the reference holds explicit edges only.
ConflictGraph pair_scan_graph(const Model& m, std::vector<Implication> pairs,
                              int max_row_entries = 96) {
  for (const lp::Row& row : m.rows()) {
    if (row.type == RowType::kGe) continue;
    double amin = 0.0;
    for (const RowEntry& e : row.entries) {
      const lp::Column& c = m.column(e.column);
      amin += e.coeff > 0 ? e.coeff * c.lower : e.coeff * c.upper;
    }
    if (!std::isfinite(amin)) continue;
    const auto member = [&](const RowEntry& e) {
      return e.coeff > 0 && binary_column(m.column(e.column));
    };
    std::vector<Implication> row_pairs;
    bool every_pair = true;
    for (std::size_t p = 0; p < row.entries.size(); ++p) {
      const RowEntry& ep = row.entries[p];
      if (!member(ep)) continue;
      for (std::size_t q = p + 1; q < row.entries.size(); ++q) {
        const RowEntry& eq = row.entries[q];
        if (!member(eq)) continue;
        if (amin + ep.coeff + eq.coeff > row.rhs + lp::tol::kFeasTol)
          row_pairs.push_back(Implication{ep.column, true, eq.column, false});
        else
          every_pair = false;
      }
    }
    if (static_cast<int>(row.entries.size()) > max_row_entries && !every_pair) continue;
    pairs.insert(pairs.end(), row_pairs.begin(), row_pairs.end());
  }
  Model columns;
  for (const lp::Column& c : m.columns())
    columns.add_column(c.name, c.lower, c.upper, 0.0, c.type);
  ConflictGraph graph;
  graph.build(columns, pairs);
  return graph;
}

// Compares adjacency on every column pair; returns the reference's number
// of conflicting pairs so callers can check the comparison was not vacuous.
long expect_same_conflicts(const ConflictGraph& graph, const ConflictGraph& ref,
                           const std::string& what) {
  EXPECT_EQ(graph.columns(), ref.columns()) << what;
  long conflicts = 0;
  long mismatches = 0;
  for (int a = 0; a < ref.columns(); ++a) {
    EXPECT_FALSE(graph.adjacent(a, a)) << what;
    if (graph.has_conflicts(a) != ref.has_conflicts(a) && ++mismatches <= 5)
      ADD_FAILURE() << what << ": has_conflicts(" << a << ") differs";
    for (int b = a + 1; b < ref.columns(); ++b) {
      const bool want = ref.adjacent(a, b);
      conflicts += want ? 1 : 0;
      if ((graph.adjacent(a, b) != want || graph.adjacent(b, a) != want) && ++mismatches <= 5)
        ADD_FAILURE() << what << ": columns " << a << ", " << b << " should "
                      << (want ? "" : "not ") << "conflict";
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
  return conflicts;
}

void expect_same_cuts(const std::vector<Cut>& got, const std::vector<Cut>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].rhs, want[k].rhs) << what;
    EXPECT_EQ(got[k].violation, want[k].violation) << what;
    ASSERT_EQ(got[k].entries.size(), want[k].entries.size()) << what;
    for (std::size_t e = 0; e < got[k].entries.size(); ++e) {
      EXPECT_EQ(got[k].entries[e].column, want[k].entries[e].column) << what;
      EXPECT_EQ(got[k].entries[e].coeff, want[k].entries[e].coeff) << what;
    }
  }
}

// `count` distinct entries of `pool`, in random order.
std::vector<int> sample(Rng* rng, std::vector<int> pool, int count) {
  count = std::min<int>(count, static_cast<int>(pool.size()));
  for (int k = 0; k < count; ++k) {
    const auto pick = static_cast<std::size_t>(k) +
                      rng->uniform_index(pool.size() - static_cast<std::size_t>(k));
    std::swap(pool[static_cast<std::size_t>(k)], pool[pick]);
  }
  pool.resize(static_cast<std::size_t>(count));
  return pool;
}

// Random model for the conflict graph: binaries (some typed integer in
// [0, 1]), continuous and general-integer columns, an unbounded column, and
// rows mixing set-packing windows (some wider than 96 entries), weighted
// cliques, knapsacks whose pairs only partly conflict, = rows, >= rows,
// negative coefficients and continuous entries. The all-zero point is
// feasible and the LP is bounded.
Model random_conflict_model(Rng* rng, int n) {
  Model m;
  m.set_sense(Sense::kMaximize);
  std::vector<int> binaries;
  std::vector<int> all;
  for (int j = 0; j < n; ++j) {
    const double u = rng->uniform();
    const double obj = rng->uniform(0.5, 2.0);
    int col = 0;
    if (u < 0.7) col = m.add_column("b", 0, 1, obj, VarType::kBinary);
    else if (u < 0.8) col = m.add_column("i01", 0, 1, obj, VarType::kInteger);
    else if (u < 0.9) col = m.add_column("c", 0, rng->uniform(0.5, 3.0), obj);
    else if (u < 0.95) col = m.add_column("i03", 0, 3, obj, VarType::kInteger);
    else col = m.add_column("c-", -1, 2, obj);
    if (u < 0.8) binaries.push_back(col);
    all.push_back(col);
  }
  const int unbounded = m.add_column("u", 0, lp::kInf, -1.0);
  const int rows = 40;
  for (int r = 0; r < rows; ++r) {
    std::vector<RowEntry> entries;
    RowType type = RowType::kLe;
    double rhs = 1.0;
    switch (rng->uniform_index(7)) {
      case 0:  // set packing, some wider than 96 entries
        for (const int j : sample(rng, binaries, static_cast<int>(rng->uniform_int(2, 130))))
          entries.push_back({j, 1.0});
        if (rng->uniform() < 0.3) entries.push_back({unbounded, 0.5});
        break;
      case 1:  // weighted clique: any two coefficients exceed the rhs
        for (const int j : sample(rng, binaries, static_cast<int>(rng->uniform_int(2, 110))))
          entries.push_back({j, rng->uniform(0.55, 1.0)});
        break;
      case 2:  // knapsack whose pairs only partly conflict
        for (const int j : sample(rng, binaries, static_cast<int>(rng->uniform_int(3, 110))))
          entries.push_back({j, rng->uniform(1.0, 8.0)});
        rhs = rng->uniform(6.0, 14.0);
        break;
      case 3:  // = row: a few binaries sum to one more column
        for (const int j : sample(rng, all, static_cast<int>(rng->uniform_int(3, 9))))
          entries.push_back({j, 1.0});
        entries.back().coeff = -1.0;
        type = RowType::kEq;
        rhs = 0.0;
        break;
      case 4:  // mixed signs over every column type
        for (const int j : sample(rng, all, static_cast<int>(rng->uniform_int(2, 30))))
          entries.push_back({j, rng->uniform(-3.0, 5.0)});
        rhs = rng->uniform(0.0, 6.0);
        break;
      case 5:  // an unbounded column with a negative coefficient: no finite min activity
        for (const int j : sample(rng, binaries, 4)) entries.push_back({j, 1.0});
        entries.push_back({unbounded, -1.0});
        break;
      default:  // >= rows give no upper side
        for (const int j : sample(rng, binaries, 5)) entries.push_back({j, 1.0});
        type = RowType::kGe;
        rhs = 0.0;
        break;
    }
    m.add_row("r", type, rhs, std::move(entries));
  }
  return m;
}

std::vector<Implication> random_implications(Rng* rng, int n, int count) {
  std::vector<Implication> out;
  for (int k = 0; k < count; ++k) {
    out.push_back(Implication{static_cast<int>(rng->uniform_int(-1, n - 1)), rng->uniform() < 0.7,
                              static_cast<int>(rng->uniform_int(0, n)), rng->uniform() < 0.3});
  }
  return out;
}

// Every column pair of random models conflicts in the clique table exactly
// when it does in the pair scan, and the clique separator returns the same
// cuts from both. One graph is rebuilt across models of different sizes, so
// stale lists from an earlier build would show as mismatches.
TEST(ConflictGraph, MatchesPairScanOnRandomModels) {
  Rng rng(20261017);
  ConflictGraph graph;
  long conflicts = 0;
  long cliques = 0;
  std::size_t cuts = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 180 + 7 * trial;
    const Model m = random_conflict_model(&rng, n);
    const std::vector<Implication> imps = random_implications(&rng, m.num_columns(), 40);
    graph.build(m, imps);
    const ConflictGraph ref = pair_scan_graph(m, imps);
    const std::string what = "trial " + std::to_string(trial);
    conflicts += expect_same_conflicts(graph, ref, what);
    cliques += graph.cliques();

    const lp::SimplexResult rel = lp::solve_lp(m);
    ASSERT_TRUE(rel.optimal()) << what;
    std::vector<double> fractional(static_cast<std::size_t>(m.num_columns()));
    for (double& v : fractional) v = rng.uniform(0.0, 0.6);
    for (const std::vector<double>& x : {rel.x, fractional}) {
      const std::vector<Cut> got = generate_clique_cuts(m, x, graph);
      expect_same_cuts(got, generate_clique_cuts(m, x, ref), what);
      cuts += got.size();
    }
  }
  EXPECT_GT(conflicts, 0);
  EXPECT_GT(cliques, 0);
  EXPECT_GT(cuts, 0u);
}

scheduler::ScheduleProblem case_study_staircase(scheduler::ScheduleProblem p, long steps) {
  p.steps = steps;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) a.itv = std::max<long>(1, p.steps / 20);
  return p;
}

// The same differential on the three case-study time-expanded models at
// steps=200, with their probing implications, and the same clique cuts at
// each model's LP optimum.
TEST(ConflictGraph, MatchesPairScanOnCaseStudies) {
  struct Case {
    const char* name;
    scheduler::ScheduleProblem problem;
  };
  const Case cases[] = {
      {"water", casestudy::water_ions_problem(16384, 0.10)},
      {"rhodo", casestudy::rhodopsin_problem(100.0)},
      {"flash", casestudy::flash_problem({2.0, 1.0, 2.0})},
  };
  for (const Case& cs : cases) {
    const Model model =
        scheduler::build_time_expanded_milp(case_study_staircase(cs.problem, 200)).model;
    const ProbingResult probing = probe_binaries(model);
    ConflictGraph graph;
    graph.build(model, probing.implications);
    const ConflictGraph ref = pair_scan_graph(model, probing.implications);
    EXPECT_GT(expect_same_conflicts(graph, ref, cs.name), 0) << cs.name;
    EXPECT_GT(graph.cliques(), 0) << cs.name;

    const lp::SimplexResult rel = lp::solve_lp(model);
    ASSERT_TRUE(rel.optimal()) << cs.name;
    expect_same_cuts(generate_clique_cuts(model, rel.x, graph),
                     generate_clique_cuts(model, rel.x, ref), cs.name);
  }
}

// Structural guard against a return to pair expansion: on the steps=2000
// water staircase every Eq 9 window is stored as one clique, and the only
// explicit edges are probing implications.
TEST(ConflictGraph, WaterStaircaseStoresWindowsAsCliques) {
  const Model model = scheduler::build_time_expanded_milp(
                          case_study_staircase(casestudy::water_ions_problem(16384, 0.08), 2000))
                          .model;
  const ProbingResult probing = probe_binaries(model);
  ConflictGraph graph;
  graph.build(model, probing.implications);
  long windows = 0;
  for (const lp::Row& row : model.rows()) {
    if (row.name.rfind("itv_", 0) != 0) continue;
    ++windows;
    EXPECT_TRUE(graph.adjacent(row.entries.front().column, row.entries.back().column))
        << row.name;
  }
  ASSERT_GT(windows, 0);
  EXPECT_GE(graph.cliques(), windows);
  EXPECT_LE(graph.edges(), static_cast<long>(probing.implications.size()));
}

Cut make_cut(int col_a, int col_b, double rhs) {
  Cut cut;
  cut.type = RowType::kLe;
  cut.family = CutFamily::kCover;
  cut.rhs = rhs;
  cut.entries = {{col_a, 1.0}, {col_b, 1.0}};
  cut.violation = 0.5;
  return cut;
}

TEST(CutPool, DeduplicatesAcrossSelect) {
  CutPool pool(/*max_age=*/4);
  EXPECT_TRUE(pool.add(make_cut(0, 1, 1.0)));
  EXPECT_FALSE(pool.add(make_cut(0, 1, 1.0)));  // identical: rejected
  EXPECT_TRUE(pool.add(make_cut(0, 2, 1.0)));
  EXPECT_EQ(pool.size(), 2);

  // Select everything; the pool must remember applied cuts forever so a
  // restart never appends a duplicate row.
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<Cut> picked = pool.select(x, 8, 1e-6, 1.0);
  EXPECT_EQ(picked.size(), 2u);
  EXPECT_EQ(pool.size(), 0);
  EXPECT_FALSE(pool.add(make_cut(0, 1, 1.0)));
  EXPECT_FALSE(pool.add(make_cut(0, 2, 1.0)));
  const CutPoolCounters c = pool.counters();
  EXPECT_EQ(c.separated, 5);  // every offer, fresh or not
  EXPECT_EQ(c.duplicates, 3);
  EXPECT_EQ(c.applied, 2);
}

TEST(CutPool, UnselectedCutsAgeOut) {
  CutPool pool(/*max_age=*/2);
  ASSERT_TRUE(pool.add(make_cut(0, 1, 1.0)));
  // x satisfies the cut: zero violation, never selected, ages each round.
  const std::vector<double> x = {0.0, 0.0};
  for (int round = 0; round < 3; ++round) EXPECT_TRUE(pool.select(x, 8).empty());
  EXPECT_EQ(pool.size(), 0);
  EXPECT_GE(pool.counters().aged_out, 1L);
}

TEST(CutPool, ConcurrentOffersStayConsistent) {
  CutPool pool(/*max_age=*/4);
  constexpr int kThreads = 8;
  constexpr int kCutsPerThread = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      for (int i = 0; i < kCutsPerThread; ++i) {
        // Half the ids collide across threads, half are thread-unique.
        const int a = (i % 2 == 0) ? i : t * kCutsPerThread + i;
        (void)pool.add(make_cut(a, a + 1, 1.0));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const CutPoolCounters c = pool.counters();
  EXPECT_EQ(c.separated, static_cast<long>(kThreads) * kCutsPerThread);
  EXPECT_EQ(pool.size(), static_cast<int>(c.separated - c.duplicates));
  EXPECT_GT(c.duplicates, 0L);
}

// Probing on a model with a forced variable and a binary equivalence must
// reproduce both through PresolveResult::restore.
TEST(Probing, ApplyAndRestoreRoundTrip) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_column("x", 0, 1, 3.0, VarType::kBinary);
  const int y = m.add_column("y", 0, 1, 2.0, VarType::kBinary);
  const int z = m.add_column("z", 0, 1, 1.0, VarType::kBinary);
  // y == x (equality links them), z is forced to 0 by the budget row.
  m.add_row("link", RowType::kEq, 0.0, {{x, 1.0}, {y, -1.0}});
  m.add_row("force", RowType::kLe, 1.5, {{x, 1.0}, {z, 2.0}});

  const ProbingResult probing = probe_binaries(m);
  ASSERT_FALSE(probing.infeasible);
  EXPECT_TRUE(probing.has_reductions());

  long tightened = 0;
  const lp::PresolveResult pre = apply_probing(m, probing, &tightened);
  ASSERT_FALSE(pre.infeasible);
  ASSERT_LT(pre.reduced.num_columns(), m.num_columns());

  // Solve the reduced MIP and expand: the original-space point must be
  // feasible for the original model and reproduce the eliminated columns.
  MipOptions opt;
  opt.threads = 1;
  const MipResult res = solve_mip(pre.reduced, opt);
  ASSERT_TRUE(res.optimal());
  const std::vector<double> full = pre.restore(res.x);
  ASSERT_EQ(full.size(), static_cast<std::size_t>(m.num_columns()));
  EXPECT_TRUE(m.is_feasible(full, 1e-7));
  EXPECT_NEAR(full[static_cast<std::size_t>(x)], full[static_cast<std::size_t>(y)], 1e-9);
  EXPECT_NEAR(full[static_cast<std::size_t>(z)], 0.0, 1e-9);
  // Optimum of the original model: x = y = 1, z = 0 -> 5.
  EXPECT_NEAR(m.objective_value(full), 5.0, 1e-9);
}

// Deterministic wave mode must stay bit-identical across thread counts with
// the full cut engine (root + in-tree separation and restarts) enabled.
TEST(Cuts, DeterministicModeBitIdenticalWithCuts) {
  scheduler::ScheduleProblem p = casestudy::flash_problem({2.0, 1.0, 2.0});
  p.steps = 60;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) a.itv = std::max<long>(1, p.steps / 10);
  const Model model = scheduler::build_time_expanded_milp(p).model;

  const auto run = [&](int threads) {
    MipOptions opt;
    opt.threads = threads;
    opt.deterministic = true;
    return solve_mip(model, opt);
  };
  const MipResult one = run(1);
  const MipResult four = run(4);
  ASSERT_TRUE(one.optimal());
  ASSERT_TRUE(four.optimal());
  EXPECT_EQ(one.objective, four.objective);  // bitwise, not approximate
  EXPECT_EQ(one.nodes, four.nodes);
  ASSERT_EQ(one.x.size(), four.x.size());
  for (std::size_t j = 0; j < one.x.size(); ++j) EXPECT_EQ(one.x[j], four.x[j]);
  EXPECT_EQ(one.counters.cuts_applied, four.counters.cuts_applied);
  EXPECT_EQ(one.counters.tree_restarts, four.counters.tree_restarts);
}

}  // namespace
}  // namespace insched::mip
