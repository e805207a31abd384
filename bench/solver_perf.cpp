// Solver microbenchmarks (google-benchmark): LP simplex, MIP branch and
// bound, and the full scheduling solve on the paper's instances. The paper
// reports CPLEX solve times of 0.17 - 1.36 s for these models; the
// insched_schedule_* timings are the comparable numbers.

#include <benchmark/benchmark.h>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/support/random.hpp"
#include "insched/support/simd.hpp"

namespace {

using namespace insched;

lp::Model random_lp(int vars, int rows, std::uint64_t seed) {
  Rng rng(seed);
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  for (int j = 0; j < vars; ++j) m.add_column("x", 0.0, rng.uniform(1.0, 10.0),
                                              rng.uniform(0.1, 5.0));
  for (int i = 0; i < rows; ++i) {
    std::vector<lp::RowEntry> entries;
    for (int j = 0; j < vars; ++j)
      if (rng.bernoulli(0.4)) entries.push_back({j, rng.uniform(0.1, 3.0)});
    if (entries.empty()) entries.push_back({0, 1.0});
    m.add_row("r", lp::RowType::kLe, rng.uniform(5.0, 40.0), std::move(entries));
  }
  return m;
}

// Every MipCounters field under its own name, from the one field table,
// plus the derived ratios and the recovery total. Recovery actions
// (docs/ROBUSTNESS.md) are all zero on a healthy run, so any drift there
// flags a numerical regression before it costs accuracy.
void emit_counters(benchmark::State& state, const mip::MipCounters& counters) {
  for (const mip::CounterField& field : mip::kMipCounterFields)
    state.counters[field.name] = static_cast<double>(counters.*field.member);
  state.counters["lp_rhs_density"] = counters.lp_rhs_density();
  state.counters["lp_fill_ratio"] = counters.lp_fill_ratio();
  state.counters["lp_staircase_hit_rate"] = counters.lp_staircase_hit_rate();
  state.counters["recoveries"] = static_cast<double>(counters.recoveries());
}

void BM_simplex_dense(benchmark::State& state) {
  const auto vars = static_cast<int>(state.range(0));
  const lp::Model m = random_lp(vars, vars / 2, 7);
  for (auto _ : state) {
    const lp::SimplexResult res = lp::solve_lp(m);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_simplex_dense)->Arg(20)->Arg(60)->Arg(150)->Arg(300);

void BM_mip_knapsack(benchmark::State& state) {
  const auto items = static_cast<int>(state.range(0));
  Rng rng(13);
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  std::vector<lp::RowEntry> entries;
  for (int j = 0; j < items; ++j) {
    m.add_column("b", 0, 1, rng.uniform(1.0, 10.0), lp::VarType::kBinary);
    entries.push_back({j, rng.uniform(1.0, 8.0)});
  }
  m.add_row("cap", lp::RowType::kLe, items * 1.5, std::move(entries));
  for (auto _ : state) {
    const mip::MipResult res = mip::solve_mip(m);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_mip_knapsack)->Arg(10)->Arg(20)->Arg(40);

void BM_schedule_water_table5(benchmark::State& state) {
  const scheduler::ScheduleProblem p = casestudy::water_ions_problem(16384, 0.10);
  for (auto _ : state) {
    const auto sol = scheduler::solve_schedule(p);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_schedule_water_table5)->Unit(benchmark::kMillisecond);

void BM_schedule_rhodo_table6(benchmark::State& state) {
  const scheduler::ScheduleProblem p = casestudy::rhodopsin_problem(100.0);
  for (auto _ : state) {
    const auto sol = scheduler::solve_schedule(p);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_schedule_rhodo_table6)->Unit(benchmark::kMillisecond);

void BM_schedule_flash_lexicographic(benchmark::State& state) {
  const scheduler::ScheduleProblem p = casestudy::flash_problem({2.0, 1.0, 2.0});
  scheduler::SolveOptions options;
  options.weight_mode = scheduler::WeightMode::kLexicographic;
  for (auto _ : state) {
    const auto sol = scheduler::solve_schedule(p, options);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_schedule_flash_lexicographic)->Unit(benchmark::kMillisecond);

// Warm-start / thread-count axes over the case-study solves: args are
// (threads, warm). threads=1 warm=0 approximates the seed serial solver;
// threads=4 warm=1 is the configuration the >=2x parallel speedup target is
// measured on. Objectives are proved optima, so they are identical across
// all configurations.
void BM_schedule_config(benchmark::State& state, const scheduler::ScheduleProblem& p,
                        scheduler::SolveOptions options) {
  options.mip.threads = static_cast<int>(state.range(0));
  options.mip.warm_start = state.range(1) != 0;
  double objective = 0.0;
  mip::MipCounters counters;
  for (auto _ : state) {
    const auto sol = scheduler::solve_schedule(p, options);
    objective = sol.objective;
    counters = sol.mip_counters;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["objective"] = objective;
  // Counters of the last solve, among them the factor-cache footprint vs
  // what dense inverse snapshots would have cost.
  emit_counters(state, counters);
}

void BM_schedule_water_config(benchmark::State& state) {
  BM_schedule_config(state, casestudy::water_ions_problem(16384, 0.10), {});
}
BENCHMARK(BM_schedule_water_config)
    ->ArgNames({"threads", "warm"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

void BM_schedule_rhodo_config(benchmark::State& state) {
  BM_schedule_config(state, casestudy::rhodopsin_problem(100.0), {});
}
BENCHMARK(BM_schedule_rhodo_config)
    ->ArgNames({"threads", "warm"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

void BM_schedule_flash_config(benchmark::State& state) {
  scheduler::SolveOptions options;
  options.weight_mode = scheduler::WeightMode::kLexicographic;
  BM_schedule_config(state, casestudy::flash_problem({2.0, 1.0, 2.0}), options);
}
BENCHMARK(BM_schedule_flash_config)
    ->ArgNames({"threads", "warm"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

void BM_schedule_time_expanded(benchmark::State& state) {
  // Scaled-down horizon: the exact per-step program. Memory is left
  // unconstrained here — the big-M memory recurrence makes the relaxation
  // weak enough that node counts explode, which is exactly why the
  // aggregate formulation is the default (see ablation_formulations).
  scheduler::ScheduleProblem p = casestudy::water_ions_problem(16384, 0.10);
  p.steps = state.range(0);
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) a.itv = std::max<long>(1, p.steps / 10);
  scheduler::SolveOptions options;
  options.formulation = scheduler::Formulation::kTimeExpanded;
  options.mip.time_limit_s = 3.0;
  for (auto _ : state) {
    const auto sol = scheduler::solve_schedule(p, options);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_schedule_time_expanded)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

// Steps-heavy time-expanded MILPs: the staircase regime the cutting-plane
// engine targets. The budget row spans hundreds of interchangeable step
// positions, so the LP bound is invariant under individual branchings and a
// plain tree only closes through an exactly-optimal incumbent — cuts are
// what move the dual bound. Args are (steps, cuts): cuts=0 is the pre-PR
// engine (pseudo-cost branch and bound, no presolve, no separation), cuts=1
// is the full default stack (probing, covers, cliques, Gomory/MIR, in-tree
// separation, reliability branching). Both arms share a node cap so the
// headline counter is `nodes` at identical `objective` values; the >=2x
// node-reduction acceptance gate for the cut engine reads exactly these two
// rows. Weights are scaled per case to open an integrality gap > 1 that
// branching alone cannot close (see docs/FORMULATION.md, "Why cuts close
// these trees"); memory is left unconstrained for the same conditioning
// reason as BM_schedule_time_expanded above.
void run_staircase_mip(benchmark::State& state, scheduler::ScheduleProblem p,
                       double weight_scale) {
  p.steps = state.range(0);
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, p.steps / 20);
    a.weight *= weight_scale;
  }
  const lp::Model model = scheduler::build_time_expanded_milp(p).model;
  mip::MipOptions opt;
  opt.threads = 1;
  opt.max_nodes = 512;
  opt.time_limit_s = 120.0;
  if (state.range(0) >= 2000) {
    // The steps>=2000 arms are the fast-path gate rows and must measure the
    // solver, not a limit: under a wall-clock cap the hard flash instance
    // (root gap that cuts do not close) saturates the limit in every build
    // and the row's real_time degenerates to the cap. Cap by explored nodes
    // instead — water/rhodo still prove optimality at the root (nodes=0),
    // and flash becomes a time-to-96-nodes throughput row (check the
    // proved_optimal / best_bound counters, not objective, on that one).
    opt.max_nodes = 96;
    opt.time_limit_s = 3600.0;
  }
  if (state.range(1) == 0) {
    opt.use_probing = false;
    opt.use_cover_cuts = false;
    opt.use_clique_cuts = false;
    opt.use_gomory_cuts = false;
    opt.use_mir_cuts = false;
    opt.in_tree_cuts = false;
    opt.branching = mip::Branching::kPseudoCost;
  }
  mip::MipResult res;
  for (auto _ : state) {
    res = mip::solve_mip(model, opt);
    benchmark::DoNotOptimize(res.objective);
  }
  state.counters["objective"] = res.objective;
  state.counters["best_bound"] = res.best_bound;
  state.counters["nodes"] = static_cast<double>(res.nodes);
  state.counters["proved_optimal"] = res.optimal() ? 1.0 : 0.0;
  // Counters of the last solve: cut/probing/strong-branch activity, the
  // staircase LU kernel (fill per input nonzero, static pre-order hit rate,
  // dense-mode FTRAN/BTRAN traffic), crash-basis and cut-round warm starts,
  // and the recovery ladder; plus whether the SIMD annotations were live in
  // this build.
  emit_counters(state, res.counters);
  state.counters["simd_enabled"] = insched::support::simd_enabled() ? 1.0 : 0.0;
}

void BM_schedule_water_staircase_config(benchmark::State& state) {
  run_staircase_mip(state, casestudy::water_ions_problem(16384, 0.08), 1.0);
}
BENCHMARK(BM_schedule_water_staircase_config)
    ->ArgNames({"steps", "cuts"})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_schedule_rhodo_staircase_config(benchmark::State& state) {
  run_staircase_mip(state, casestudy::rhodopsin_problem(100.0), 3.0);
}
BENCHMARK(BM_schedule_rhodo_staircase_config)
    ->ArgNames({"steps", "cuts"})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_schedule_flash_staircase_config(benchmark::State& state) {
  run_staircase_mip(state, casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08), 3.0);
}
BENCHMARK(BM_schedule_flash_staircase_config)
    ->ArgNames({"steps", "cuts"})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main) so the JSON context records the
// compile mode of *this* tree. benchmark's built-in library_build_type key
// reflects how the installed benchmark library was compiled — a property of
// the machine, not of our flags — so run_benchmarks.sh's refusal to record
// debug numbers and bench_compare.py's build-type mismatch check both key
// on insched_build_type.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("insched_build_type", "release");
#else
  benchmark::AddCustomContext("insched_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
