// insched_plan — command-line in-situ analysis planner.
//
// Reads a problem description (INI format, see scheduler/problem_io.hpp),
// solves for the optimal schedule and prints the recommendation, the
// validation report and optionally the timeline / baselines / sensitivity.
//
//   insched_plan run.ini [options]
//     --lexicographic       strict-priority treatment of weights
//     --time-expanded       use the paper's per-step 0-1 formulation
//     --baselines           compare against greedy and fixed frequencies
//     --sensitivity         budget shadow price and next-improvement budget
//     --render N            print the first N steps of the timeline
//     --csv FILE            write per-analysis schedule rows as CSV
//     --json FILE           write the full solution as JSON
//     --gantt               print a per-analysis timeline
//     --pareto              budget-vs-objective frontier around the budget
//     --dump-model          print the MILP in CPLEX LP format
//     --hybrid              in-situ / in-transit placement (needs [staging])
//     --lint[=strict]       pre-solve lint of the instance and generated
//                           MILP; errors (warnings too under =strict) abort
//                           the solve with exit code 4

#include <cmath>
#include <cstdio>
#include <fstream>
#include <cstring>
#include <stdexcept>
#include <string>

#include "insched/lp/lp_format.hpp"
#include "insched/scheduler/aggregate_milp.hpp"
#include "insched/scheduler/coanalysis.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/problem_io.hpp"
#include "insched/scheduler/recommend.hpp"
#include "insched/scheduler/sensitivity.hpp"
#include "insched/scheduler/serialize.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/support/csv.hpp"
#include "insched/support/string_util.hpp"
#include "insched/support/table.hpp"

namespace {

using namespace insched;

int usage(const char* argv0) {
  std::printf(
      "usage: %s <problem.ini> [--lexicographic] [--time-expanded]\n"
      "          [--baselines] [--sensitivity] [--render N] [--csv FILE]\n"
      "          [--dump-model]   (prints the MILP in CPLEX LP format)\n"
      "          [--hybrid]       (in-situ / in-transit; needs [staging])\n"
      "          [--lint[=strict]] (pre-solve lint; blocking findings exit 4)\n",
      argv0);
  return 2;
}

void print_baselines(const scheduler::ScheduleProblem& problem,
                     const scheduler::ScheduleSolution& optimal) {
  Table table("baselines vs optimizer");
  table.set_header({"method", "frequencies", "objective", "budget %", "feasible"});
  std::vector<double> weights;
  for (const auto& a : problem.analyses) weights.push_back(a.weight);
  const auto row = [&](const char* name, const scheduler::Schedule& s) {
    const auto rep = scheduler::validate_schedule(problem, s);
    std::string freqs;
    for (long f : s.frequencies()) freqs += format("%ld ", f);
    table.add_row({name, freqs, format("%.2f", s.objective(weights)),
                   format("%.1f", 100.0 * rep.utilization()),
                   rep.feasible ? "yes" : "NO"});
  };
  row("MILP optimal", optimal.schedule);
  row("greedy", scheduler::greedy_schedule(problem));
  for (long interval : {problem.steps / 10, problem.steps / 4}) {
    if (interval >= 1)
      row(format("fixed every %ld", interval).c_str(),
          scheduler::fixed_frequency(problem, interval));
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  std::string config_path;
  bool lexicographic = false;
  bool time_expanded = false;
  bool baselines = false;
  bool sensitivity = false;
  bool dump_model = false;
  bool hybrid = false;
  bool lint = false;
  bool lint_strict = false;
  long render_steps = 0;
  bool gantt = false;
  bool pareto = false;
  std::string csv_path;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--lexicographic") {
      lexicographic = true;
    } else if (arg == "--time-expanded") {
      time_expanded = true;
    } else if (arg == "--baselines") {
      baselines = true;
    } else if (arg == "--sensitivity") {
      sensitivity = true;
    } else if (arg == "--dump-model") {
      dump_model = true;
    } else if (arg == "--hybrid") {
      hybrid = true;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint=strict") {
      lint = true;
      lint_strict = true;
    } else if (arg == "--render" && i + 1 < argc) {
      render_steps = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--pareto") {
      pareto = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path.empty()) return usage(argv[0]);

  // 0 = optimal/feasible plan, 1 = no schedule, 2 = usage, 3 = degraded
  // (greedy fallback printed, but the MILP solve failed), 4 = --lint found
  // blocking diagnostics and the solve was not attempted.
  int exit_code = 0;
  try {
    const Config config = Config::load(config_path);

    if (hybrid) {
      const scheduler::CoanalysisProblem problem = scheduler::coanalysis_from_config(config);
      const scheduler::CoanalysisSolution sol = scheduler::solve_coanalysis(problem);
      if (!sol.solved) {
        std::printf("no feasible hybrid schedule\n");
        return 1;
      }
      Table table("hybrid in-situ / in-transit plan");
      table.set_header({"analysis", "mode", "frequency"});
      for (std::size_t i = 0; i < problem.base.size(); ++i) {
        table.add_row({problem.base.analyses[i].name, to_string(sol.modes[i]),
                       format("%ld", sol.frequencies[i])});
      }
      table.print();
      std::printf("sim-side %.2f s of %.2f s budget; staging %.2f s; shipped %s\n",
                  sol.sim_side_seconds, problem.base.time_budget(), sol.staging_seconds,
                  format_bytes(sol.network_bytes).c_str());
      std::printf("solver: %.2f ms, %ld nodes, %s\n", sol.solver_seconds * 1e3, sol.nodes,
                  sol.proven_optimal ? "proven optimal" : "feasible (limit hit)");
      return 0;
    }

    // Under --lint the config is read leniently so the linter can report
    // every value error at once instead of throwing on the first; blocking
    // findings exit before the unvalidated values could reach the solver.
    const scheduler::ScheduleProblem problem =
        lint ? scheduler::problem_from_config_lenient(config)
             : scheduler::problem_from_config(config);

    if (lint) {
      // Pre-solve static analysis; purely advisory unless it finds blocking
      // diagnostics, so a clean config plans exactly as without --lint.
      scheduler::LintReport lint_report = scheduler::lint_problem(problem);
      // The generated model is only meaningful for a sane instance.
      if (!lint_report.has_errors())
        lint_report.merge(
            scheduler::lint_model(scheduler::build_aggregate_milp(problem).model));
      if (!lint_report.clean())
        std::fprintf(stderr, "%s", lint_report.to_string().c_str());
      if (lint_report.exit_code(lint_strict) >= 2) {
        std::fprintf(stderr, "lint: blocking diagnostics, not solving\n");
        return 4;
      }
    }

    if (dump_model) {
      // CPLEX LP format: feed the exact instance to an external solver.
      const scheduler::AggregateModel built = scheduler::build_aggregate_milp(problem);
      std::printf("%s\n", lp::write_lp(built.model).c_str());
    }

    scheduler::SolveOptions options;
    if (lexicographic) options.weight_mode = scheduler::WeightMode::kLexicographic;
    if (time_expanded) options.formulation = scheduler::Formulation::kTimeExpanded;

    const scheduler::Recommendation rec = scheduler::recommend(problem, options);
    if (!rec.solution.solved) {
      const auto& d = rec.solution.diagnostics;
      std::fprintf(stderr, "error: no feasible schedule (%s%s%s)\n",
                   scheduler::to_string(d.failure),
                   d.message.empty() ? "" : ": ", d.message.c_str());
      return 1;
    }
    if (rec.solution.degraded) {
      // The MILP failed and the greedy fallback was substituted; the plan
      // below is feasible but carries no optimality certificate.
      const auto& d = rec.solution.diagnostics;
      std::fprintf(stderr, "warning: DEGRADED schedule (%s: %s); greedy fallback, "
                   "no optimality certificate\n",
                   scheduler::to_string(d.failure), d.message.c_str());
      exit_code = 3;
    }
    std::printf("%s", rec.summary.c_str());
    const auto& report = rec.solution.validation;
    std::printf("\npredicted totals: analysis %.3f s of %.3f s budget (%.1f%%), "
                "peak memory %s of %s\n",
                report.total_analysis_time, report.time_budget,
                100.0 * report.utilization(), format_bytes(report.peak_memory).c_str(),
                std::isfinite(report.memory_budget)
                    ? format_bytes(report.memory_budget).c_str()
                    : "unbounded");
    std::printf("solver: %.2f ms, %ld nodes, %s\n", rec.solution.solver_seconds * 1e3,
                rec.solution.nodes,
                rec.solution.proven_optimal     ? "proven optimal"
                : rec.solution.degraded         ? "DEGRADED (greedy fallback)"
                                                : "feasible (limit hit)");
    if (!rec.solution.proven_optimal && !rec.solution.degraded &&
        std::isfinite(rec.solution.diagnostics.gap_abs))
      std::printf("gap: %.6g absolute (%.3f%% relative)\n",
                  rec.solution.diagnostics.gap_abs,
                  100.0 * rec.solution.diagnostics.gap_rel);
    if (rec.solution.mip_counters.recoveries() > 0)
      std::printf("numerical recoveries during solve: %ld\n",
                  rec.solution.mip_counters.recoveries());

    if (render_steps > 0)
      std::printf("\ntimeline: %s\n", rec.solution.schedule.render(render_steps).c_str());

    if (gantt) std::printf("\n%s", scheduler::render_gantt(rec.solution.schedule).c_str());

    if (!json_path.empty()) {
      std::ofstream json_out(json_path);
      json_out << scheduler::solution_to_json(rec.solution) << "\n";
      std::printf("\nsolution written to %s\n", json_path.c_str());
    }

    if (baselines) {
      std::printf("\n");
      print_baselines(problem, rec.solution);
    }

    if (pareto) {
      const double budget = problem.time_budget();
      const auto frontier =
          scheduler::pareto_frontier(problem, budget * 0.1, budget * 4.0, 20);
      Table table("\nbudget vs objective (Pareto frontier)");
      table.set_header({"budget (s)", "objective", "frequencies"});
      for (const auto& point : frontier) {
        std::string freqs;
        for (long f : point.frequencies) freqs += format("%ld ", f);
        table.add_row({format("%.2f", point.budget_seconds),
                       format("%.1f", point.objective), freqs});
      }
      table.print();
    }

    if (sensitivity) {
      const scheduler::SensitivityReport sens = scheduler::analyze_sensitivity(problem);
      std::printf("\nsensitivity:\n");
      std::printf("  time budget %s (LP shadow price %.4f obj/s)\n",
                  sens.time_constraint_binding ? "BINDING" : "slack",
                  sens.time_shadow_price);
      if (std::isfinite(problem.mth))
        std::printf("  memory budget %s (LP shadow price %.3g obj/byte)\n",
                    sens.memory_constraint_binding ? "BINDING" : "slack",
                    sens.memory_shadow_price);
      if (sens.next_improvement_seconds >= 0.0)
        std::printf("  +%.2f s of budget buys the next analysis step (obj %.2f -> %.2f)\n",
                    sens.next_improvement_seconds, sens.objective, sens.objective_plus);
      else
        std::printf("  no objective improvement within +100%% budget\n");
    }

    if (!csv_path.empty()) {
      CsvWriter csv(csv_path);
      csv.write_row({"analysis", "frequency", "outputs", "steps"});
      for (std::size_t i = 0; i < problem.size(); ++i) {
        const auto& s = rec.solution.schedule.analysis(i);
        std::string steps;
        for (long step : s.analysis_steps) steps += format("%ld ", step);
        csv.write_row({problem.analyses[i].name, format("%ld", s.analysis_count()),
                       format("%ld", s.output_count()), steps});
      }
      std::printf("\nschedule written to %s\n", csv_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return exit_code;
}
