#include "insched/scheduler/timeexp_milp.hpp"

#include <algorithm>
#include <cmath>

#include "insched/support/assert.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

namespace {

/// Shared builder for the full model (`state == nullptr`) and the
/// remaining-horizon variant. The column set and ordering are identical in
/// both shapes — the suffix model expresses "already executed" purely through
/// bounds, budget-row coefficients and the memory boundary condition, so a
/// warm-delta re-solve maps basis, cuts and incumbent by identity.
TimeExpandedModel build_impl(const ScheduleProblem& problem, const HorizonState* state) {
  problem.validate();
  const long completed =
      state ? std::min(std::max(state->completed, 0L), problem.steps) : 0;
  const std::size_t n_check = problem.size();
  if (state) {
    INSCHED_EXPECTS(state->analysis_steps.empty() ||
                    state->analysis_steps.size() == n_check);
    INSCHED_EXPECTS(state->output_steps.empty() ||
                    state->output_steps.size() == n_check);
    INSCHED_EXPECTS(state->mem_end.empty() || state->mem_end.size() == n_check);
  }
  // Executed decisions as step-indexed masks over the prefix.
  const auto executed_mask = [&](const std::vector<std::vector<long>>* lists,
                                 std::size_t i) {
    std::vector<char> mask(static_cast<std::size_t>(completed), 0);
    if (lists && !lists->empty()) {
      for (const long j : (*lists)[i])
        if (j >= 1 && j <= completed) mask[static_cast<std::size_t>(j - 1)] = 1;
    }
    return mask;
  };

  TimeExpandedModel built;
  built.policy = problem.output_policy;
  lp::Model& m = built.model;
  m.set_sense(lp::Sense::kMaximize);

  const std::size_t n = problem.size();
  const long steps = problem.steps;
  const bool memory_constrained = std::isfinite(problem.mth);
  const bool separate_outputs = problem.output_policy == OutputPolicy::kOptimized;
  const bool has_outputs = problem.output_policy != OutputPolicy::kNone;

  built.vars.active.assign(n, -1);
  built.vars.analysis.assign(n, {});
  built.vars.output.assign(n, {});
  built.vars.mem_start.assign(n, {});
  built.vars.mem_end.assign(n, {});

  // Measured memory state cuts the recurrence at the boundary: prefix mS/mE
  // columns lose their defining rows and are pinned, and mE at `completed`
  // carries the measurement into the first remaining-horizon recurrence row.
  const bool mem_measured =
      memory_constrained && completed > 0 && state && !state->mem_end.empty();

  // --- Variables -----------------------------------------------------------
  // Identical names/order in both shapes; executed decisions become [v, v]
  // bounds so every shared column keeps its index across re-solves.
  std::vector<char> active_fixed(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& p = problem.analyses[i];
    const std::vector<char> ran =
        executed_mask(state ? &state->analysis_steps : nullptr, i);
    const std::vector<char> wrote =
        executed_mask(state ? &state->output_steps : nullptr, i);
    bool executed_active = false;
    for (const char r : ran) executed_active |= r != 0;
    active_fixed[i] = executed_active ? 1 : 0;
    built.vars.active[i] = m.add_column(format("a_%s", p.name.c_str()),
                                        executed_active ? 1 : 0, 1, 1.0,
                                        lp::VarType::kBinary);
    auto& xs = built.vars.analysis[i];
    xs.reserve(static_cast<std::size_t>(steps));
    for (long j = 1; j <= steps; ++j) {
      const bool fixed = j <= completed;
      const double v = fixed && ran[static_cast<std::size_t>(j - 1)] ? 1.0 : 0.0;
      xs.push_back(m.add_column(format("x_%s_%ld", p.name.c_str(), j), fixed ? v : 0,
                                fixed ? v : 1, p.weight, lp::VarType::kBinary));
    }
    if (separate_outputs) {
      auto& os = built.vars.output[i];
      os.reserve(static_cast<std::size_t>(steps));
      for (long j = 1; j <= steps; ++j) {
        const bool fixed = j <= completed;
        const double v = fixed && wrote[static_cast<std::size_t>(j - 1)] ? 1.0 : 0.0;
        os.push_back(m.add_column(format("z_%s_%ld", p.name.c_str(), j), fixed ? v : 0,
                                  fixed ? v : 1, 0.0, lp::VarType::kBinary));
      }
    }
    if (memory_constrained) {
      auto& ms = built.vars.mem_start[i];
      auto& me = built.vars.mem_end[i];
      ms.reserve(static_cast<std::size_t>(steps));
      me.reserve(static_cast<std::size_t>(steps));
      for (long j = 1; j <= steps; ++j) {
        double lo = 0.0, hi = lp::kInf;
        if (mem_measured && j <= completed) lo = hi = 0.0;  // rows dropped, pin inert
        ms.push_back(
            m.add_column(format("mS_%s_%ld", p.name.c_str(), j), lo, hi, 0.0));
        if (mem_measured && j == completed) {
          const double measured = std::max(0.0, state->mem_end[i]);
          me.push_back(m.add_column(format("mE_%s_%ld", p.name.c_str(), j), measured,
                                    measured, 0.0));
        } else {
          me.push_back(
              m.add_column(format("mE_%s_%ld", p.name.c_str(), j), lo, hi, 0.0));
        }
      }
    }
  }

  // --- Linking, interval and output-subset rows ----------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& p = problem.analyses[i];
    const int a = built.vars.active[i];
    const auto& xs = built.vars.analysis[i];

    // analysis_{i,j} <= a_i ; a_i <= sum_j analysis_{i,j}.
    std::vector<lp::RowEntry> sum_entries{{a, -1.0}};
    for (long j = 0; j < steps; ++j) {
      m.add_row(format("act_%s_%ld", p.name.c_str(), j + 1), lp::RowType::kLe, 0.0,
                {{xs[static_cast<std::size_t>(j)], 1.0}, {a, -1.0}});
      sum_entries.push_back({xs[static_cast<std::size_t>(j)], 1.0});
    }
    m.add_row(format("act_lb_%s", p.name.c_str()), lp::RowType::kGe, 0.0, sum_entries);

    // Eq 9 cardinality cap: sum_j analysis_{i,j} <= Steps/itv_i. Stricter
    // than the sliding-window gap rule when itv does not divide Steps.
    {
      std::vector<lp::RowEntry> cap;
      cap.reserve(static_cast<std::size_t>(steps));
      for (long j = 0; j < steps; ++j) cap.push_back({xs[static_cast<std::size_t>(j)], 1.0});
      m.add_row(format("card_%s", p.name.c_str()), lp::RowType::kLe,
                static_cast<double>(problem.max_analysis_steps(i)), std::move(cap));
    }

    // Interval rule: at most one analysis step inside any itv-wide window.
    if (p.itv > 1) {
      for (long j = 0; j + 1 < steps; ++j) {
        std::vector<lp::RowEntry> window;
        for (long k = j; k < std::min(steps, j + p.itv); ++k)
          window.push_back({xs[static_cast<std::size_t>(k)], 1.0});
        if (window.size() > 1)
          m.add_row(format("itv_%s_%ld", p.name.c_str(), j + 1), lp::RowType::kLe, 1.0,
                    std::move(window));
      }
    }

    // Outputs only at analysis steps.
    if (separate_outputs) {
      const auto& os = built.vars.output[i];
      for (long j = 0; j < steps; ++j) {
        m.add_row(format("out_%s_%ld", p.name.c_str(), j + 1), lp::RowType::kLe, 0.0,
                  {{os[static_cast<std::size_t>(j)], 1.0},
                   {xs[static_cast<std::size_t>(j)], -1.0}});
      }
    }
  }

  // --- Time budget (Eqs 2-4 collapsed) --------------------------------------
  // Suffix shape: only *future* cost appears. Executed x/z steps are already
  // paid for inside spent_seconds (measured, not modeled), an executed-active
  // analysis keeps only its remaining per-step it cost (ft was paid), and a
  // not-yet-active one pays ft plus it over the remaining horizon. With
  // completed == 0 / spent == 0 this is exactly the full model's row.
  {
    const double future = static_cast<double>(steps - completed);
    std::vector<lp::RowEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      const AnalysisParams& p = problem.analyses[i];
      const double fixed = (active_fixed[i] ? 0.0 : p.ft) + p.it * future;
      if (fixed > 0.0) entries.push_back({built.vars.active[i], fixed});
      const double ot = has_outputs ? problem.output_time(i) : 0.0;
      for (long j = completed; j < steps; ++j) {
        double coeff = p.ct;
        if (has_outputs && !separate_outputs) coeff += ot;  // output rides on x
        if (coeff > 0.0)
          entries.push_back({built.vars.analysis[i][static_cast<std::size_t>(j)], coeff});
        if (separate_outputs && ot > 0.0)
          entries.push_back({built.vars.output[i][static_cast<std::size_t>(j)], ot});
      }
    }
    const double budget =
        problem.time_budget() - (state ? state->spent_seconds : 0.0);
    m.add_row("time_budget", lp::RowType::kLe, budget, std::move(entries));
  }

  // --- Memory recurrence (Eqs 5-8) -------------------------------------------
  // With measured mem_end the prefix recurrence rows are dropped entirely:
  // the first kept row (step completed+1) reads mEnd_{completed}, which the
  // variable section fixed to the measurement. Without measurements the full
  // modeled recurrence stays and the fixed prefix binaries drive it.
  const long mem_from = mem_measured ? completed : 0;
  if (memory_constrained) {
    for (std::size_t i = 0; i < n; ++i) {
      const AnalysisParams& p = problem.analyses[i];
      const int a = built.vars.active[i];
      const auto& xs = built.vars.analysis[i];
      const auto& ms = built.vars.mem_start[i];
      const auto& me = built.vars.mem_end[i];
      const double big_m =
          p.fm + p.im * static_cast<double>(steps) + p.cm + p.om + 1.0;

      for (long j = mem_from; j < steps; ++j) {
        const int m_start = ms[static_cast<std::size_t>(j)];
        const int m_end = me[static_cast<std::size_t>(j)];
        const int x = xs[static_cast<std::size_t>(j)];
        // Output indicator for this step: its own variable or x itself.
        const int z = separate_outputs ? built.vars.output[i][static_cast<std::size_t>(j)]
                                       : (has_outputs ? x : -1);

        // Eq 5: mStart_j = mEnd_{j-1} + im a + cm x + om z.
        std::vector<lp::RowEntry> rec{{m_start, 1.0}, {a, -p.im}, {x, -p.cm}};
        if (z >= 0) {
          if (z == x) {
            rec[2].coeff -= p.om;  // cm and om on the same indicator
          } else {
            rec.push_back({z, -p.om});
          }
        }
        if (j == 0) {
          rec.push_back({a, -p.fm});  // mEnd_{i,0} = fm a (Eq 7)
        } else {
          rec.push_back({me[static_cast<std::size_t>(j - 1)], -1.0});
        }
        m.add_row(format("mrec_%s_%ld", p.name.c_str(), j + 1), lp::RowType::kEq, 0.0,
                  std::move(rec));

        // Eq 6 linearized: z = 1 -> mEnd = fm a ; z = 0 -> mEnd = mStart.
        if (z >= 0) {
          // z = 1 -> mEnd = fm a:
          m.add_row("", lp::RowType::kLe, big_m,
                    {{m_end, 1.0}, {a, -p.fm}, {z, big_m}});
          m.add_row("", lp::RowType::kGe, -big_m,
                    {{m_end, 1.0}, {a, -p.fm}, {z, -big_m}});
          // z = 0 -> mEnd = mStart:
          m.add_row("", lp::RowType::kLe, 0.0,
                    {{m_end, 1.0}, {m_start, -1.0}, {z, -big_m}});
          m.add_row("", lp::RowType::kGe, 0.0,
                    {{m_end, 1.0}, {m_start, -1.0}, {z, big_m}});
        } else {
          m.add_row("", lp::RowType::kEq, 0.0, {{m_end, 1.0}, {m_start, -1.0}});
        }
      }
    }
    // Eq 8: per-step total mStart <= mth.
    for (long j = mem_from; j < steps; ++j) {
      std::vector<lp::RowEntry> entries;
      for (std::size_t i = 0; i < n; ++i)
        entries.push_back({built.vars.mem_start[i][static_cast<std::size_t>(j)], 1.0});
      m.add_row(format("mth_%ld", j + 1), lp::RowType::kLe, problem.mth, std::move(entries));
    }
  }

  return built;
}

}  // namespace

TimeExpandedModel build_time_expanded_milp(const ScheduleProblem& problem) {
  return build_impl(problem, nullptr);
}

TimeExpandedModel build_suffix_horizon_milp(const ScheduleProblem& problem,
                                            const HorizonState& state) {
  return build_impl(problem, &state);
}

Schedule decode_time_expanded(const ScheduleProblem& problem, const TimeExpandedModel& built,
                              const std::vector<double>& x) {
  const std::size_t n = problem.size();
  std::vector<AnalysisSchedule> analyses;
  analyses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AnalysisSchedule s;
    s.name = problem.analyses[i].name;
    for (long j = 0; j < problem.steps; ++j) {
      const bool on =
          x.at(static_cast<std::size_t>(built.vars.analysis[i][static_cast<std::size_t>(j)])) >
          0.5;
      if (!on) continue;
      s.analysis_steps.push_back(j + 1);
      bool out = false;
      if (built.policy == OutputPolicy::kEveryAnalysis) {
        out = true;
      } else if (built.policy == OutputPolicy::kOptimized) {
        out = x.at(static_cast<std::size_t>(
                  built.vars.output[i][static_cast<std::size_t>(j)])) > 0.5;
      }
      if (out) s.output_steps.push_back(j + 1);
    }
    analyses.push_back(std::move(s));
  }
  return Schedule(problem.steps, std::move(analyses));
}

}  // namespace insched::scheduler
