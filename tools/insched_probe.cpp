// insched_probe — measures the Table-1 cost parameters of the built-in
// analysis kernels on synthetic systems and emits ready-to-edit [analysis]
// config blocks for insched_plan. Closes the paper's workflow loop:
// profile (Section 4) -> model -> schedule.
//
//   insched_probe water [molecules=4000] [write_bw=1e9]
//   insched_probe rhodopsin [particles=32000] [write_bw=1e9]
//   insched_probe sedov [grid=32] [write_bw=1e9]
//
// The `solver` subcommand instead probes the MIP engine itself: it solves
// the three case-study staircase MILPs and prints every MipCounters field,
// with and without the cutting-plane engine.
//
//   insched_probe solver [steps=500] [cuts=0|1|both] [slots=20]
//
// The `resolve` subcommand is the CLI face of the warm-delta re-solve
// engine (mip::ReSolveContext, docs/ONLINE.md): cold-solve a case-study
// staircase MILP, perturb the budget-row costs by a relative noise level,
// then re-solve warm and cold and print the iteration and wall-time ratios.
//
//   insched_probe resolve [steps=500] [noise=0.05] [case=water] [slots=20] [wscale=1]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "insched/analysis/cost_probe.hpp"
#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/mip/resolve.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/support/random.hpp"
#include "insched/support/simd.hpp"
#include "insched/analysis/density_histogram.hpp"
#include "insched/analysis/error_norms.hpp"
#include "insched/analysis/gyration.hpp"
#include "insched/analysis/msd.hpp"
#include "insched/analysis/rdf.hpp"
#include "insched/analysis/vacf.hpp"
#include "insched/analysis/vorticity.hpp"
#include "insched/sim/grid/sedov.hpp"
#include "insched/sim/particles/builders.hpp"
#include "insched/sim/particles/lj_md.hpp"
#include "insched/support/string_util.hpp"

namespace {

using namespace insched;

void emit(const scheduler::AnalysisParams& p) {
  std::printf("\n[analysis]\nname = %s\n", p.name.c_str());
  if (p.ft > 1e-9) std::printf("ft = %.6g s\n", p.ft);
  if (p.it > 1e-9) std::printf("it = %.6g s\n", p.it);
  std::printf("ct = %.6g s\n", p.ct);
  if (p.ot > 1e-12) std::printf("ot = %.6g s\n", p.ot);
  if (p.fm > 0.5) std::printf("fm = %.6g\n", p.fm);
  if (p.im > 0.5) std::printf("im = %.6g\n", p.im);
  if (p.cm > 0.5) std::printf("cm = %.6g\n", p.cm);
  if (p.om > 0.5) std::printf("om = %.6g\n", p.om);
  std::printf("itv = 1   ; edit: minimum interval between analysis steps\n");
}

double measure_sim_step(const std::function<void()>& step, int rounds = 5) {
  const auto begin = std::chrono::steady_clock::now();
  for (int s = 0; s < rounds; ++s) step();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count() /
         rounds;
}

int probe_water(std::size_t molecules, double write_bw) {
  sim::WaterIonsSpec spec;
  spec.molecules = molecules;
  spec.hydronium_fraction = 0.02;
  spec.ion_fraction = 0.02;
  sim::LjSimulation md(sim::water_ions(spec), sim::MdParams{});
  md.minimize(100);
  md.thermalize(9);
  const double sim_step = measure_sim_step([&] { md.step(); });

  std::printf("# probed on a %zu-particle water+ions system\n[run]\n", md.system().size());
  std::printf("steps = 1000\nsim_time_per_step = %.6g s\nthreshold = 10 %%\n", sim_step);
  std::printf("threshold_kind = fraction\nbandwidth = %.6g\noutput_policy = every_analysis\n",
              write_bw);

  analysis::ProbeOptions options;
  options.write_bw = write_bw;

  analysis::RdfConfig a1;
  a1.pairs = {{sim::Species::kHydronium, sim::Species::kWaterO},
              {sim::Species::kHydronium, sim::Species::kHydronium},
              {sim::Species::kHydronium, sim::Species::kIon}};
  analysis::RdfAnalysis rdf1("hydronium rdf (A1)", md.system(), a1);
  emit(analysis::probe_analysis(rdf1, options));

  analysis::RdfConfig a2;
  a2.pairs = {{sim::Species::kIon, sim::Species::kWaterO},
              {sim::Species::kIon, sim::Species::kIon}};
  analysis::RdfAnalysis rdf2("ion rdf (A2)", md.system(), a2);
  emit(analysis::probe_analysis(rdf2, options));

  analysis::VacfConfig a3;
  a3.group = {sim::Species::kWaterO, sim::Species::kHydronium, sim::Species::kIon};
  analysis::VacfAnalysis vacf("vacf (A3)", md.system(), a3);
  emit(analysis::probe_analysis(vacf, options));

  analysis::MsdConfig a4;
  a4.group = {sim::Species::kHydronium, sim::Species::kIon};
  analysis::MsdAnalysis msd("msd (A4)", md.system(), a4);
  emit(analysis::probe_analysis(msd, options));
  return 0;
}

int probe_rhodopsin(std::size_t particles, double write_bw) {
  sim::RhodopsinSpec spec;
  spec.total_particles = particles;
  sim::LjSimulation md(sim::rhodopsin_like(spec), sim::MdParams{});
  md.minimize(60);
  md.thermalize(9);
  const double sim_step = measure_sim_step([&] { md.step(); });

  std::printf("# probed on a %zu-particle rhodopsin-like system\n[run]\n",
              md.system().size());
  std::printf("steps = 1000\nsim_time_per_step = %.6g s\nthreshold = 10 %%\n", sim_step);
  std::printf("threshold_kind = fraction\nbandwidth = %.6g\noutput_policy = every_analysis\n",
              write_bw);

  analysis::ProbeOptions options;
  options.write_bw = write_bw;
  analysis::GyrationAnalysis rg("radius of gyration (R1)", md.system(),
                                sim::Species::kProtein);
  emit(analysis::probe_analysis(rg, options));
  analysis::DensityHistogramConfig r2;
  r2.group = sim::Species::kMembrane;
  analysis::DensityHistogramAnalysis mem("membrane histogram (R2)", md.system(), r2);
  emit(analysis::probe_analysis(mem, options));
  analysis::DensityHistogramConfig r3;
  r3.group = sim::Species::kProtein;
  analysis::DensityHistogramAnalysis prot("protein histogram (R3)", md.system(), r3);
  emit(analysis::probe_analysis(prot, options));
  return 0;
}

int probe_sedov(std::size_t grid, double write_bw) {
  sim::EulerSolver solver(sim::GridGeometry{grid, 1.0}, sim::EulerParams{});
  sim::SedovSpec blast;
  sim::initialize_sedov(solver, blast);
  const sim::SedovReference reference(blast, solver.params().gamma);
  const double sim_step = measure_sim_step([&] { solver.step(); });

  std::printf("# probed on a %zu^3 Sedov grid\n[run]\n", grid);
  std::printf("steps = 1000\nsim_time_per_step = %.6g s\nthreshold = 5 %%\n", sim_step);
  std::printf("threshold_kind = fraction\nbandwidth = %.6g\noutput_policy = every_analysis\n",
              write_bw);

  analysis::ProbeOptions options;
  options.write_bw = write_bw;
  analysis::VorticityAnalysis vort("vorticity (F1)", solver);
  emit(analysis::probe_analysis(vort, options));
  analysis::ErrorNormAnalysis l1("L1 error norm (F2)", solver, reference,
                                 analysis::NormKind::kL1DensityPressure);
  emit(analysis::probe_analysis(l1, options));
  analysis::ErrorNormAnalysis l2("L2 error norm (F3)", solver, reference,
                                 analysis::NormKind::kL2Velocity);
  emit(analysis::probe_analysis(l2, options));
  return 0;
}

// Solves one case-study staircase MILP and prints the tree shape, the
// derived factorization ratios, and every MipCounters field (one per line,
// from the field table): cut/probing/strong-branch activity, warm-start and
// cache traffic, recovery-ladder actions, and the FTRAN/BTRAN/eta
// observability of the underlying LU kernel. Returns 0 on a solve with an
// incumbent, 1 otherwise.
int solve_and_report(const char* name, const scheduler::ScheduleProblem& base, long steps,
                     bool cuts, long slots, bool own_mth, double wscale,
                     long max_nodes) {
  scheduler::ScheduleProblem p = base;
  p.steps = steps;
  if (!own_mth) p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, p.steps / slots);
    a.weight *= wscale;
  }
  const lp::Model model = scheduler::build_time_expanded_milp(p).model;

  mip::MipOptions opt;
  opt.threads = 1;
  if (max_nodes > 0) opt.max_nodes = max_nodes;
  if (!cuts) {
    opt.use_probing = false;
    opt.use_cover_cuts = false;
    opt.use_clique_cuts = false;
    opt.use_gomory_cuts = false;
    opt.use_mir_cuts = false;
    opt.in_tree_cuts = false;
    opt.branching = mip::Branching::kPseudoCost;
  }
  const mip::MipResult res = mip::solve_mip(model, opt);
  const mip::MipCounters& c = res.counters;

  std::printf("%-6s cuts=%d  %s  obj %.6f  %.1f ms\n", name, cuts ? 1 : 0,
              mip::to_string(res.termination), res.objective, res.solve_seconds * 1e3);
  std::printf("  tree    : nodes %ld  lp_iters %ld  rows %d  cols %d  cut rows +%d\n",
              res.nodes, res.lp_iterations, model.num_rows(), model.num_columns(),
              res.cuts_added);
  std::printf("  derived : lp_rhs_density %.4f  lp_fill_ratio %.3f  "
              "lp_staircase_hit_rate %.3f  recoveries %ld  simd %s\n",
              c.lp_rhs_density(), c.lp_fill_ratio(), c.lp_staircase_hit_rate(),
              c.recoveries(), insched::support::simd_enabled() ? "on" : "off");
  for (const mip::CounterField& field : mip::kMipCounterFields)
    std::printf("    %-30s %ld\n", field.name, c.*field.member);
  if (!res.has_solution) {
    std::fprintf(stderr, "error: %s staircase MILP solve failed (%s): no incumbent\n",
                 name, mip::to_string(res.termination));
    return 1;
  }
  return 0;
}

int probe_solver(long steps, const std::string& cuts_arg, long slots,
                 const std::string& only, bool own_mth, double wscale,
                 long max_nodes) {
  struct Case {
    const char* name;
    scheduler::ScheduleProblem problem;
  };
  const Case cases[] = {
      {"water", casestudy::water_ions_problem(16384, 0.10)},
      {"rhodo", casestudy::rhodopsin_problem(100.0)},
      {"flash", casestudy::flash_problem({2.0, 1.0, 2.0})},
  };
  int rc = 0;
  for (const Case& cs : cases) {
    if (!only.empty() && only != cs.name) continue;
    if (cuts_arg == "both" || cuts_arg == "0")
      rc |= solve_and_report(cs.name, cs.problem, steps, false, slots, own_mth, wscale,
                             max_nodes);
    if (cuts_arg == "both" || cuts_arg == "1")
      rc |= solve_and_report(cs.name, cs.problem, steps, true, slots, own_mth, wscale,
                             max_nodes);
  }
  return rc;
}

// Per-analysis measured-cost drift: scales each analysis's compute/output/
// memory costs by an independent (1 + noise * U[-1,1)) factor — the shape of
// perturbation the online feedback loop produces when measured kernel costs
// replace the predicted Table-1 parameters. Coherent across steps by
// construction: one analysis's ct changes once, not per-step.
scheduler::ScheduleProblem perturb_costs(const scheduler::ScheduleProblem& base,
                                         double noise, std::uint64_t seed) {
  scheduler::ScheduleProblem p = base;
  Rng rng(seed);
  for (auto& a : p.analyses) {
    a.ct *= 1.0 + noise * rng.uniform(-1.0, 1.0);
    a.ot *= 1.0 + noise * rng.uniform(-1.0, 1.0);
    a.cm *= 1.0 + noise * rng.uniform(-1.0, 1.0);
  }
  return p;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int probe_resolve(long steps, double noise, const std::string& only, long slots,
                  double wscale) {
  struct Case {
    const char* name;
    scheduler::ScheduleProblem problem;
  };
  const Case cases[] = {
      {"water", casestudy::water_ions_problem(16384, 0.10)},
      {"rhodo", casestudy::rhodopsin_problem(100.0)},
      {"flash", casestudy::flash_problem({2.0, 1.0, 2.0})},
  };
  int rc = 0;
  for (const Case& cs : cases) {
    if (!only.empty() && only != cs.name) continue;
    scheduler::ScheduleProblem p = cs.problem;
    p.steps = steps;
    p.mth = scheduler::kNoLimit;
    for (auto& a : p.analyses) {
      a.itv = std::max<long>(1, p.steps / slots);
      a.weight *= wscale;
    }
    const lp::Model model = scheduler::build_time_expanded_milp(p).model;

    mip::MipOptions opt;
    opt.threads = 1;

    mip::ReSolveContext ctx;
    double t0 = now_seconds();
    const mip::MipResult cold = ctx.solve(model, opt);
    const double cold_s = now_seconds() - t0;
    if (!cold.has_solution) {
      std::fprintf(stderr, "error: %s cold solve failed (%s)\n", cs.name,
                   mip::to_string(cold.termination));
      rc = 1;
      continue;
    }

    const lp::Model perturbed =
        scheduler::build_time_expanded_milp(perturb_costs(p, noise, 42)).model;
    t0 = now_seconds();
    const mip::MipResult warm = ctx.resolve(perturbed, opt);
    const double warm_s = now_seconds() - t0;

    t0 = now_seconds();
    const mip::MipResult ref = mip::solve_mip(perturbed, opt);
    const double ref_s = now_seconds() - t0;

    const bool match = warm.has_solution && ref.has_solution &&
                       std::abs(warm.objective - ref.objective) <
                           1e-6 * (1.0 + std::abs(ref.objective));
    const mip::ReSolveCounters& rc_counters = ctx.counters();
    std::printf("%-6s steps=%ld noise=%.0f%%  cold obj %.6f (%ld iters, %.1f ms)\n",
                cs.name, steps, noise * 100.0, cold.objective, cold.lp_iterations,
                cold_s * 1e3);
    std::printf("  warm  : obj %.6f  nodes %ld  lp_iters %ld  %.1f ms (solver %.1f ms)  "
                "shared %ld/%ld crash %ld/%ld\n",
                warm.objective, warm.nodes, warm.lp_iterations, warm_s * 1e3,
                warm.solve_seconds * 1e3, warm.counters.shared_basis_warm,
                warm.counters.shared_basis_warm + warm.counters.shared_basis_failed,
                warm.counters.crash_warm,
                warm.counters.crash_warm + warm.counters.crash_failed);
    std::printf("  coldP : obj %.6f  nodes %ld  lp_iters %ld  %.1f ms\n", ref.objective,
                ref.nodes, ref.lp_iterations, ref_s * 1e3);
    std::printf("  ratio : iters %.2fx  wall %.2fx  objectives %s\n",
                warm.lp_iterations > 0
                    ? static_cast<double>(ref.lp_iterations) /
                          static_cast<double>(warm.lp_iterations)
                    : 0.0,
                warm_s > 0 ? ref_s / warm_s : 0.0, match ? "MATCH" : "MISMATCH");
    std::printf("  reuse : basis %ld/%ld  cuts %ld reused (%ld repaired) / %ld dropped  "
                "slack_promoted %ld  new_cols %ld  incumbent %ld\n",
                rc_counters.basis_mapped,
                rc_counters.basis_mapped + rc_counters.basis_skipped,
                rc_counters.cuts_reused, rc_counters.cuts_repaired,
                rc_counters.cuts_dropped, rc_counters.rows_slack_promoted,
                rc_counters.columns_new, rc_counters.incumbent_seeded);
    if (!match) {
      std::fprintf(stderr, "error: %s warm objective %.9f != cold %.9f\n", cs.name,
                   warm.objective, ref.objective);
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: %s <water|rhodopsin|sedov> [size] [write_bw]\n", argv[0]);
    std::printf("       %s solver [steps=500] [cuts=0|1|both] [slots=20] [case] [mth|-]"
                " [wscale=1] [max_nodes]\n",
                argv[0]);
    std::printf("       %s resolve [steps=500] [noise=0.05] [case] [slots=20]"
                " [wscale=1]\n",
                argv[0]);
    return 2;
  }
  const std::string which = argv[1];
  if (which == "resolve" || which == "--resolve") {
    const long steps = argc > 2 ? std::strtol(argv[2], nullptr, 10) : 500;
    const double noise = argc > 3 ? std::strtod(argv[3], nullptr) : 0.05;
    const std::string only = argc > 4 ? argv[4] : "";
    const long slots = argc > 5 ? std::strtol(argv[5], nullptr, 10) : 20;
    const double wscale = argc > 6 ? std::strtod(argv[6], nullptr) : 1.0;
    return probe_resolve(steps, noise, only, slots, wscale);
  }
  if (which == "solver") {
    const long steps = argc > 2 ? std::strtol(argv[2], nullptr, 10) : 500;
    const std::string cuts = argc > 3 ? argv[3] : "both";
    const long slots = argc > 4 ? std::strtol(argv[4], nullptr, 10) : 20;
    const std::string only = argc > 5 ? argv[5] : "";
    const bool own_mth = argc > 6 && std::strcmp(argv[6], "mth") == 0;
    const double wscale = argc > 7 ? std::strtod(argv[7], nullptr) : 1.0;
    const long max_nodes = argc > 8 ? std::strtol(argv[8], nullptr, 10) : 0;
    return probe_solver(steps, cuts, slots, only, own_mth, wscale, max_nodes);
  }
  const std::size_t size = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 0;
  const double bw = argc > 3 ? std::strtod(argv[3], nullptr) : 1e9;
  if (which == "water") return probe_water(size ? size : 4000, bw);
  if (which == "rhodopsin") return probe_rhodopsin(size ? size : 32000, bw);
  if (which == "sedov") return probe_sedov(size ? size : 32, bw);
  std::fprintf(stderr, "unknown system '%s'\n", which.c_str());
  return 2;
}
