#include "insched/scheduler/aggregate_milp.hpp"

#include <algorithm>
#include <cmath>

#include "insched/support/assert.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

namespace {

/// Worst steps-between-resets when k outputs are placed on the analysis
/// grid over Steps steps.
///  - coupled (o = c = k): outputs at every analysis step, so the gap is the
///    analysis spacing ceil(Steps/k) plus the small stagger offset.
///  - decoupled (o = k <= c): outputs can only land on analysis steps;
///    placing each at the last grid point before its ideal position
///    r*Steps/k bounds the gap by ceil(Steps/k) + floor(Steps/k) + offset.
///    (ceil(Steps/k) alone is NOT realizable in general: with c = 15, k = 2
///    over 500 steps the best grid placement still leaves a 264-step gap.)
/// `offset_slack` covers placement's per-analysis stagger (< #analyses).
long reset_gap(long steps, long k, bool coupled, long offset_slack) {
  if (k <= 0) return steps;
  const long base = coupled ? (steps + k - 1) / k : (steps + k - 1) / k + steps / k;
  return std::min(steps, base + offset_slack);
}

/// Memory peak of analysis `p` when it performs outputs k times (0 = never).
/// Eq 5/6: cm allocated at an analysis step persists until the next output
/// reset, so a reset window holds up to ceil(c/k) analysis steps worth of
/// cm. The decoupled expansion does not know c, so it assumes the worst
/// (c = maxc); the coupled mode (o = c) pays cm exactly once per window.
double memory_peak(const AnalysisParams& p, long steps, long maxc, long k,
                   bool coupled = false, long offset_slack = 0) {
  const long cm_steps =
      coupled ? 1 : (k <= 0 ? maxc : std::min(maxc, (maxc + k - 1) / k + 1));
  double peak = p.fm +
                p.im * static_cast<double>(reset_gap(steps, k, coupled, offset_slack)) +
                p.cm * static_cast<double>(cm_steps);
  if (k >= 1) peak += p.om;
  return peak;
}

/// Memory peak with no information about the output count: assumes the
/// worst (no resets at all) — the conservative fallback bound.
double memory_peak_worst(const AnalysisParams& p, long steps, long maxc) {
  return p.fm + p.im * static_cast<double>(steps) +
         p.cm * static_cast<double>(maxc) + p.om;
}

}  // namespace

AggregateModel build_aggregate_milp(const ScheduleProblem& problem,
                                    const std::vector<std::optional<long>>& fixed_counts,
                                    const AggregateBuildOptions& options) {
  problem.validate();
  INSCHED_EXPECTS(fixed_counts.empty() || fixed_counts.size() == problem.size());
  AggregateModel built;
  built.policy = problem.output_policy;
  lp::Model& m = built.model;
  m.set_sense(lp::Sense::kMaximize);

  const std::size_t n = problem.size();
  const bool memory_constrained = std::isfinite(problem.mth);
  long max_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_count = std::max(max_count, problem.max_analysis_steps(i));
  built.used_expansion = options.allow_expansion && memory_constrained &&
                         max_count <= kMaxExpansion &&
                         problem.output_policy != OutputPolicy::kNone;

  built.vars.active.assign(n, -1);
  built.vars.count.assign(n, -1);
  built.vars.out_count.assign(n, -1);
  built.vars.out_choice.assign(n, {});
  built.vars.out_choice_coupled.assign(n, {});

  // --- Variables -----------------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& p = problem.analyses[i];
    const long maxc = problem.max_analysis_steps(i);
    built.vars.active[i] =
        m.add_column(format("a_%s", p.name.c_str()), 0, 1, 1.0, lp::VarType::kBinary);
    built.vars.count[i] = m.add_column(format("c_%s", p.name.c_str()), 0,
                                       static_cast<double>(maxc), p.weight,
                                       lp::VarType::kInteger);
    if (problem.output_policy == OutputPolicy::kOptimized && !built.used_expansion) {
      built.vars.out_count[i] = m.add_column(format("o_%s", p.name.c_str()), 0,
                                             static_cast<double>(maxc), 0.0,
                                             lp::VarType::kInteger);
    }
    if (built.used_expansion) {
      auto& choice = built.vars.out_choice[i];
      choice.reserve(static_cast<std::size_t>(maxc) + 1);
      for (long k = 0; k <= maxc; ++k) {
        choice.push_back(m.add_column(format("y_%s_%ld", p.name.c_str(), k), 0, 1, 0.0,
                                      lp::VarType::kBinary));
      }
      if (problem.output_policy == OutputPolicy::kOptimized) {
        auto& coupled = built.vars.out_choice_coupled[i];
        coupled.reserve(static_cast<std::size_t>(maxc));
        for (long k = 1; k <= maxc; ++k) {
          coupled.push_back(m.add_column(format("w_%s_%ld", p.name.c_str(), k), 0, 1, 0.0,
                                         lp::VarType::kBinary));
        }
      }
    }
  }

  // --- Per-analysis structural rows ---------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const AnalysisParams& p = problem.analyses[i];
    const long maxc = problem.max_analysis_steps(i);
    const int a = built.vars.active[i];
    const int c = built.vars.count[i];

    // c_i <= maxc * a_i  and  c_i >= a_i (active iff at least one step).
    m.add_row(format("link_hi_%s", p.name.c_str()), lp::RowType::kLe, 0.0,
              {{c, 1.0}, {a, -static_cast<double>(maxc)}});
    m.add_row(format("link_lo_%s", p.name.c_str()), lp::RowType::kGe, 0.0,
              {{c, 1.0}, {a, -1.0}});

    // Lexicographic support: freeze this analysis's count.
    if (!fixed_counts.empty() && fixed_counts[i].has_value()) {
      m.add_row(format("fix_%s", p.name.c_str()), lp::RowType::kEq,
                static_cast<double>(*fixed_counts[i]), {{c, 1.0}});
    }

    if (built.used_expansion) {
      const auto& y = built.vars.out_choice[i];
      const auto& w = built.vars.out_choice_coupled[i];
      // Exactly one mode+count selected when active, none when inactive:
      //   sum_k y_ik + sum_k w_ik = a_i.
      {
        std::vector<lp::RowEntry> entries;
        for (int col : y) entries.push_back({col, 1.0});
        for (int col : w) entries.push_back({col, 1.0});
        entries.push_back({a, -1.0});
        m.add_row(format("pick_%s", p.name.c_str()), lp::RowType::kEq, 0.0,
                  std::move(entries));
      }
      // Decoupled: o_i = sum_k k y_ik <= c_i.
      {
        std::vector<lp::RowEntry> entries;
        for (long k = 0; k <= maxc; ++k)
          entries.push_back({y[static_cast<std::size_t>(k)], static_cast<double>(k)});
        entries.push_back({c, -1.0});
        m.add_row(format("out_le_count_%s", p.name.c_str()), lp::RowType::kLe, 0.0,
                  std::move(entries));
      }
      if (!w.empty()) {
        // Coupled: selecting w_ik pins c_i = k (and o_i = k).
        //   c_i >= sum_k k w_ik
        //   c_i <= sum_k k w_ik + maxc * sum_k y_ik
        std::vector<lp::RowEntry> ge_entries{{c, 1.0}};
        std::vector<lp::RowEntry> le_entries{{c, 1.0}};
        for (long k = 1; k <= maxc; ++k) {
          ge_entries.push_back({w[static_cast<std::size_t>(k - 1)], -static_cast<double>(k)});
          le_entries.push_back({w[static_cast<std::size_t>(k - 1)], -static_cast<double>(k)});
        }
        for (int col : y) le_entries.push_back({col, -static_cast<double>(maxc)});
        m.add_row(format("coupled_ge_%s", p.name.c_str()), lp::RowType::kGe, 0.0,
                  std::move(ge_entries));
        m.add_row(format("coupled_le_%s", p.name.c_str()), lp::RowType::kLe, 0.0,
                  std::move(le_entries));
      }
      if (problem.output_policy == OutputPolicy::kEveryAnalysis) {
        // o_i = c_i: the selected output count must equal the step count.
        std::vector<lp::RowEntry> entries;
        for (long k = 0; k <= maxc; ++k)
          entries.push_back({y[static_cast<std::size_t>(k)], static_cast<double>(k)});
        entries.push_back({c, -1.0});
        m.add_row(format("out_eq_count_%s", p.name.c_str()), lp::RowType::kEq, 0.0,
                  std::move(entries));
      }
    } else if (built.vars.out_count[i] >= 0) {
      // kOptimized without expansion: 1 <= o_i <= c_i when active (at least
      // one output so results persist and the fallback memory bound holds).
      m.add_row(format("out_le_count_%s", p.name.c_str()), lp::RowType::kLe, 0.0,
                {{built.vars.out_count[i], 1.0}, {c, -1.0}});
      m.add_row(format("out_ge_active_%s", p.name.c_str()), lp::RowType::kGe, 0.0,
                {{built.vars.out_count[i], 1.0}, {a, -1.0}});
    }
  }

  // --- Time budget (Eq 4) ---------------------------------------------------
  {
    std::vector<lp::RowEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      const AnalysisParams& p = problem.analyses[i];
      const double fixed = p.ft + p.it * static_cast<double>(problem.steps);
      if (fixed > 0.0) entries.push_back({built.vars.active[i], fixed});
      if (p.ct > 0.0) entries.push_back({built.vars.count[i], p.ct});
      const double ot = problem.output_time(i);
      if (ot > 0.0 && problem.output_policy != OutputPolicy::kNone) {
        if (built.used_expansion) {
          const auto& y = built.vars.out_choice[i];
          for (std::size_t k = 1; k < y.size(); ++k)
            entries.push_back({y[k], ot * static_cast<double>(k)});
          const auto& w = built.vars.out_choice_coupled[i];
          for (std::size_t k = 0; k < w.size(); ++k)
            entries.push_back({w[k], ot * static_cast<double>(k + 1)});
        } else if (built.vars.out_count[i] >= 0) {
          entries.push_back({built.vars.out_count[i], ot});
        } else {
          // kEveryAnalysis without expansion: outputs ride on the count.
          entries.push_back({built.vars.count[i], ot});
        }
      }
      m.set_objective(built.vars.active[i], 1.0);
    }
    m.add_row("time_budget", lp::RowType::kLe, problem.time_budget(), std::move(entries));
  }

  // --- Memory budget (Eq 8 upper bound) --------------------------------------
  if (memory_constrained) {
    std::vector<lp::RowEntry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      const AnalysisParams& p = problem.analyses[i];
      if (built.used_expansion) {
        const long stagger = static_cast<long>(n);
        const auto& y = built.vars.out_choice[i];
        // Under kEveryAnalysis the y expansion encodes o = c, so the tight
        // coupled gap applies; under kOptimized it is the decoupled mode.
        const bool y_coupled = problem.output_policy == OutputPolicy::kEveryAnalysis;
        const long maxc_i = problem.max_analysis_steps(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          const double peak = memory_peak(p, problem.steps, maxc_i,
                                          static_cast<long>(k), y_coupled, stagger);
          if (peak > 0.0) entries.push_back({y[k], peak});
        }
        const auto& w = built.vars.out_choice_coupled[i];
        for (std::size_t k = 0; k < w.size(); ++k) {
          const double peak = memory_peak(p, problem.steps, maxc_i,
                                          static_cast<long>(k + 1),
                                          /*coupled=*/true, stagger);
          if (peak > 0.0) entries.push_back({w[k], peak});
        }
      } else {
        const long maxc_i = problem.max_analysis_steps(i);
        double peak = memory_peak_worst(p, problem.steps, maxc_i);
        if (problem.output_policy == OutputPolicy::kOptimized &&
            built.vars.out_count[i] >= 0) {
          // o_i >= 1 is enforced above, so the k = 1 bound applies.
          peak = memory_peak(p, problem.steps, maxc_i, 1);
        } else if (problem.output_policy == OutputPolicy::kNone) {
          peak = memory_peak(p, problem.steps, maxc_i, 0);  // no om ever
        }
        if (peak > 0.0) entries.push_back({built.vars.active[i], peak});
      }
    }
    if (!entries.empty())
      m.add_row("memory_budget", lp::RowType::kLe, problem.mth, std::move(entries));
  }

  return built;
}

AggregateCounts decode_aggregate(const AggregateModel& built, const std::vector<double>& x) {
  const std::size_t n = built.vars.active.size();
  AggregateCounts counts;
  counts.analysis_counts.assign(n, 0);
  counts.output_counts.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const long c = std::lround(x.at(static_cast<std::size_t>(built.vars.count[i])));
    counts.analysis_counts[i] = c;
    long o = 0;
    if (!built.vars.out_choice[i].empty()) {
      for (std::size_t k = 0; k < built.vars.out_choice[i].size(); ++k) {
        if (x.at(static_cast<std::size_t>(built.vars.out_choice[i][k])) > 0.5)
          o = static_cast<long>(k);
      }
      for (std::size_t k = 0; k < built.vars.out_choice_coupled[i].size(); ++k) {
        if (x.at(static_cast<std::size_t>(built.vars.out_choice_coupled[i][k])) > 0.5)
          o = static_cast<long>(k + 1);
      }
    } else if (built.vars.out_count[i] >= 0) {
      o = std::lround(x.at(static_cast<std::size_t>(built.vars.out_count[i])));
    } else {
      o = built.policy == OutputPolicy::kNone ? 0 : c;  // kEveryAnalysis rides on c
    }
    counts.output_counts[i] = std::min(o, c);
  }
  return counts;
}

}  // namespace insched::scheduler
