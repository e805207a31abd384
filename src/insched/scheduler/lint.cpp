#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/recurrence.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "insched/support/json.hpp"
#include "insched/support/string_util.hpp"

namespace insched::scheduler {

namespace {

constexpr double kRangeLimit = 1e8;  ///< max/min magnitude ratio before a numerics warning

std::string analysis_locus(const AnalysisParams& a, const char* key) {
  return format("[analysis] '%s' / %s", a.name.c_str(), key);
}

/// max/min ratio over the nonzero magnitudes in `values`; 1 when fewer than
/// two nonzeros.
double magnitude_range(const std::vector<double>& values) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const double v : values) {
    const double m = std::fabs(v);
    if (m <= 0.0 || !std::isfinite(m)) continue;
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  return hi > 0.0 && std::isfinite(lo) ? hi / lo : 1.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report plumbing

const char* to_string(LintSeverity severity) noexcept {
  switch (severity) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "?";
}

std::string LintDiagnostic::to_string() const {
  std::string out = format("%s: %s: %s", scheduler::to_string(severity), locus.c_str(),
                           message.c_str());
  if (!hint.empty()) out += format(" (hint: %s)", hint.c_str());
  out += format(" [%s]", id.c_str());
  return out;
}

int LintReport::count(LintSeverity severity) const noexcept {
  int n = 0;
  for (const LintDiagnostic& d : diagnostics)
    if (d.severity == severity) ++n;
  return n;
}

void LintReport::add(LintSeverity severity, std::string id, std::string locus,
                     std::string message, std::string hint) {
  diagnostics.push_back(LintDiagnostic{severity, std::move(id), std::move(locus),
                                       std::move(message), std::move(hint)});
}

void LintReport::merge(const LintReport& other) {
  diagnostics.insert(diagnostics.end(), other.diagnostics.begin(), other.diagnostics.end());
}

int LintReport::exit_code(bool strict) const noexcept {
  if (has_errors()) return 2;
  if (has_warnings()) return strict ? 2 : 1;
  return 0;
}

std::string LintReport::to_string() const {
  // Errors first so the blocking findings lead; stable within a severity.
  std::vector<const LintDiagnostic*> sorted;
  sorted.reserve(diagnostics.size());
  for (const LintDiagnostic& d : diagnostics) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return static_cast<int>(a->severity) > static_cast<int>(b->severity);
  });
  std::string out;
  for (const LintDiagnostic* d : sorted) out += d->to_string() + "\n";
  out += format("lint: %d error(s), %d warning(s), %d note(s)\n",
                count(LintSeverity::kError), count(LintSeverity::kWarning),
                count(LintSeverity::kInfo));
  return out;
}

std::string LintReport::to_json() const {
  std::string out = "{\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const LintDiagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    const auto member = [&out](const char* key, const std::string& value) {
      out += format(",\"%s\":", key);
      json::append_string(out, value);
    };
    out += format("{\"severity\":\"%s\"", scheduler::to_string(d.severity));
    member("id", d.id);
    member("locus", d.locus);
    member("message", d.message);
    if (!d.hint.empty()) member("hint", d.hint);
    out += "}";
  }
  out += format("],\"errors\":%d,\"warnings\":%d,\"infos\":%d}", count(LintSeverity::kError),
                count(LintSeverity::kWarning), count(LintSeverity::kInfo));
  return out;
}

// ---------------------------------------------------------------------------
// Shared field checks

std::optional<LintDiagnostic> check_positive_number(const std::string& locus, const char* key,
                                                    double value, const char* hint) {
  if (value > 0.0 && !std::isnan(value)) return std::nullopt;
  LintDiagnostic d;
  d.severity = LintSeverity::kError;
  d.id = format("%s-not-positive", key);
  std::replace(d.id.begin(), d.id.end(), '_', '-');
  d.locus = locus + " / " + key;
  d.message = format("'%s' must be positive, got %g", key, value);
  if (hint != nullptr) d.hint = hint;
  return d;
}

std::optional<LintDiagnostic> check_positive_integer(const std::string& locus, const char* key,
                                                     long value, const char* hint) {
  if (value > 0) return std::nullopt;
  LintDiagnostic d;
  d.severity = LintSeverity::kError;
  d.id = format("%s-not-positive", key);
  std::replace(d.id.begin(), d.id.end(), '_', '-');
  d.locus = locus + " / " + key;
  d.message = format("'%s' must be positive, got %ld", key, value);
  if (hint != nullptr) d.hint = hint;
  return d;
}

std::optional<LintDiagnostic> check_nonnegative_number(const std::string& locus,
                                                       const char* key, double value) {
  if (value >= 0.0 && std::isfinite(value)) return std::nullopt;
  LintDiagnostic d;
  d.severity = LintSeverity::kError;
  d.id = "parameter-negative";
  d.locus = locus + " / " + key;
  d.message = format("'%s' must be a finite number >= 0, got %g", key, value);
  d.hint = "all Table 1 times and memories are magnitudes";
  return d;
}

std::optional<LintDiagnostic> check_interval_within_steps(const std::string& locus, long itv,
                                                          long steps) {
  if (itv <= steps) return std::nullopt;
  LintDiagnostic d;
  d.severity = LintSeverity::kError;
  d.id = "interval-exceeds-steps";
  d.locus = locus + " / itv";
  d.message = format("'itv' (%ld) exceeds [run] steps (%ld): the analysis could never run",
                     itv, steps);
  d.hint = "shorten the interval or lengthen the run";
  return d;
}

std::string config_error_message(const LintDiagnostic& diagnostic) {
  std::string out = "config: " + diagnostic.locus + ": " + diagnostic.message;
  if (!diagnostic.hint.empty()) out += " (" + diagnostic.hint + ")";
  return out;
}

// ---------------------------------------------------------------------------
// Instance lint

namespace {

void lint_run_section(const ScheduleProblem& problem, LintReport& report) {
  const std::string locus = "[run]";
  if (auto d = check_positive_integer(locus, "steps", problem.steps)) report.diagnostics.push_back(*d);
  if (auto d = check_positive_number(locus, "sim_time_per_step", problem.sim_time_per_step))
    report.diagnostics.push_back(*d);
  if (auto d = check_positive_number(locus, "threshold", problem.threshold,
                                     "a zero analysis budget schedules nothing"))
    report.diagnostics.push_back(*d);
  // Infinity means "unlimited" for both budgets, so only the sign is checked.
  if (auto d = check_positive_number(locus, "memory", problem.mth,
                                     "omit the key for an unlimited memory budget"))
    report.diagnostics.push_back(*d);
  if (auto d = check_positive_number(locus, "bandwidth", problem.bw,
                                     "derived output time ot = om/bw would divide by zero; "
                                     "omit the key for unlimited bandwidth"))
    report.diagnostics.push_back(*d);
}

void lint_analysis_fields(const ScheduleProblem& problem, const AnalysisParams& a,
                          LintReport& report) {
  const std::string locus = format("[analysis] '%s'", a.name.c_str());
  const auto nonneg = [&](const char* key, double value) {
    if (auto d = check_nonnegative_number(locus, key, value)) report.diagnostics.push_back(*d);
  };
  nonneg("ft", a.ft);
  nonneg("it", a.it);
  nonneg("ct", a.ct);
  if (a.ot >= 0.0 || std::isnan(a.ot)) nonneg("ot", a.ot);  // negative = derive om/bw
  nonneg("fm", a.fm);
  nonneg("im", a.im);
  nonneg("cm", a.cm);
  nonneg("om", a.om);
  nonneg("weight", a.weight);
  if (auto d = check_positive_integer(locus, "itv", a.itv)) report.diagnostics.push_back(*d);
  if (a.itv > 0 && problem.steps > 0)
    if (auto d = check_interval_within_steps(locus, a.itv, problem.steps))
      report.diagnostics.push_back(*d);
}

/// Budget cross-checks that need a consistent run section; skipped while
/// sign errors are present (garbage budgets would mis-fire them). These are
/// warnings, not errors: activation is a decision variable, so an analysis
/// whose cheapest step or activation footprint already busts a budget does
/// not make the model infeasible — the solver just proves a_i = 0 — but it
/// is dead weight the user almost certainly did not intend.
void lint_analysis_budgets(const ScheduleProblem& problem, LintReport& report) {
  const double budget = problem.time_budget();
  for (std::size_t i = 0; i < problem.analyses.size(); ++i) {
    const AnalysisParams& a = problem.analyses[i];
    const std::string locus = format("[analysis] '%s'", a.name.c_str());

    // Memory: activating the analysis at all costs fm + one step of im.
    const double activation_memory = a.fm + a.im;
    if (std::isfinite(problem.mth) && activation_memory > problem.mth)
      report.add(LintSeverity::kWarning, "memory-exceeds-budget", locus + " / fm",
                 format("activation memory fm + im = %g bytes exceeds the [run] memory "
                        "budget (%g bytes): the analysis can never be enabled",
                        activation_memory, problem.mth),
                 "raise [run] memory or shrink the analysis footprint");

    // Time: the cheapest possible schedule that runs the analysis once pays
    // setup + one compute step (+ one output under every_analysis).
    double single_step = a.ft + a.ct;
    if (problem.output_policy == OutputPolicy::kEveryAnalysis)
      single_step += problem.output_time(i);
    if (std::isfinite(budget) && single_step > budget)
      report.add(LintSeverity::kWarning, "step-cost-exceeds-budget", locus + " / ct",
                 format("a single analysis step costs %g s (ft + ct + ot) but the whole-run "
                        "analysis budget is %g s: the analysis can never run",
                        single_step, budget),
                 "raise [run] threshold or drop the analysis");

    if (a.weight == 0.0)
      report.add(LintSeverity::kWarning, "zero-weight", locus + " / weight",
                 "weight is 0: the objective ignores this analysis and the solver will "
                 "schedule it only by accident",
                 "give it a positive weight or remove it");
  }
}

void lint_analysis_relations(const ScheduleProblem& problem, LintReport& report) {
  // Duplicate names: everything downstream (reports, fixed counts, runtime
  // metrics) keys analyses by name.
  std::map<std::string, std::size_t> first_seen;
  for (std::size_t i = 0; i < problem.analyses.size(); ++i) {
    const AnalysisParams& a = problem.analyses[i];
    const auto [it, inserted] = first_seen.emplace(a.name, i);
    if (!inserted)
      report.add(LintSeverity::kWarning, "duplicate-name", analysis_locus(a, "name"),
                 format("analysis name '%s' already used by analysis #%zu", a.name.c_str(),
                        it->second),
                 "names key reports and fixed-count overrides; make them unique");
  }

  // Exact cost twins: identical resource vector and interval with no larger
  // weight — the schedule never prefers the copy, so it is dominated.
  const auto same_costs = [](const AnalysisParams& x, const AnalysisParams& y) {
    return x.ft == y.ft && x.it == y.it && x.ct == y.ct && x.ot == y.ot && x.fm == y.fm &&
           x.im == y.im && x.cm == y.cm && x.om == y.om && x.itv == y.itv;
  };
  for (std::size_t i = 0; i < problem.analyses.size(); ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const AnalysisParams& a = problem.analyses[i];
      const AnalysisParams& b = problem.analyses[j];
      if (!same_costs(a, b)) continue;
      const AnalysisParams& loser = a.weight <= b.weight ? a : b;
      const AnalysisParams& keeper = a.weight <= b.weight ? b : a;
      report.add(LintSeverity::kInfo, "dominated-analysis", analysis_locus(loser, "weight"),
                 format("identical cost vector and interval as '%s' with weight %g <= %g: "
                        "a dominated duplicate",
                        keeper.name.c_str(), loser.weight, keeper.weight),
                 "merge the twins (sum their weights) to shrink the model");
      break;  // one report per analysis is enough
    }
}

void lint_numerics(const ScheduleProblem& problem, LintReport& report) {
  // Kappa-style proxy: the time budget row mixes every time coefficient and
  // the memory rows mix every memory coefficient; a huge magnitude spread
  // within either class makes the simplex fight round-off.
  std::vector<double> times, memories;
  for (std::size_t i = 0; i < problem.analyses.size(); ++i) {
    const AnalysisParams& a = problem.analyses[i];
    times.insert(times.end(), {a.ft, a.it, a.ct, problem.output_time(i)});
    memories.insert(memories.end(), {a.fm, a.im, a.cm, a.om});
  }
  const double time_range = magnitude_range(times);
  if (time_range > kRangeLimit)
    report.add(LintSeverity::kWarning, "extreme-coefficient-range", "[analysis] * / ct",
               format("time coefficients span %.1e : 1 across analyses; the budget row "
                      "will mix them and lose precision",
                      time_range),
               "rescale near-zero times to 0 or split the run");
  const double mem_range = magnitude_range(memories);
  if (mem_range > kRangeLimit)
    report.add(LintSeverity::kWarning, "extreme-coefficient-range", "[analysis] * / fm",
               format("memory coefficients span %.1e : 1 across analyses; the memory rows "
                      "will mix them and lose precision",
                      mem_range),
               "rescale near-zero footprints to 0");
}

void lint_degenerate_bigm(const ScheduleProblem& problem, LintReport& report) {
  // The ROADMAP 2b stall shape: a finite memory budget with solver-chosen
  // outputs makes the time-expanded model linearize the Eq 6 reset with
  // big-M rows around every output indicator. Their LP relaxation is highly
  // degenerate (fractional outputs let mStart float between its bounds at
  // zero cost), so the root LP can spend tens of seconds on zero-progress
  // pivots. Informational: the model is correct, just slow to solve.
  if (!std::isfinite(problem.mth) || problem.output_policy != OutputPolicy::kOptimized)
    return;
  report.add(LintSeverity::kInfo, "degenerate-bigm-memory", "[run] / memory",
             format("finite memory budget (%.0f) with output_policy = optimized generates "
                    "big-M memory-recurrence rows whose LP relaxation is degenerate; "
                    "time-expanded solves may stall near the root",
                    problem.mth),
             "prefer the aggregate formulation, set a solver time limit, or use "
             "bound-strengthened big-M (M = the analysis' own peak, not mth)");
}

}  // namespace

LintReport lint_problem(const ScheduleProblem& problem) {
  LintReport report;
  lint_run_section(problem, report);
  if (problem.analyses.empty())
    report.add(LintSeverity::kError, "no-analyses", "[analysis]",
               "the instance declares no analyses: nothing to schedule",
               "add at least one [analysis] section");
  for (const AnalysisParams& a : problem.analyses) lint_analysis_fields(problem, a, report);
  // Budget cross-checks assume the run section and the per-field values are
  // sane; with errors already present they would only add noise.
  if (!report.has_errors()) lint_analysis_budgets(problem, report);
  lint_analysis_relations(problem, report);
  lint_numerics(problem, report);
  lint_degenerate_bigm(problem, report);
  return report;
}

// ---------------------------------------------------------------------------
// Generated-model lint

namespace {

std::string row_locus(const lp::Row& row, int index) {
  return row.name.empty() ? format("row #%d", index) : format("row '%s'", row.name.c_str());
}

/// Entries with zero coefficients dropped, sorted by column — the canonical
/// pattern used for duplicate detection.
std::vector<lp::RowEntry> canonical_entries(const lp::Row& row) {
  std::vector<lp::RowEntry> entries;
  for (const lp::RowEntry& e : row.entries)
    if (e.coeff != 0.0) entries.push_back(e);
  std::sort(entries.begin(), entries.end(),
            [](const lp::RowEntry& a, const lp::RowEntry& b) { return a.column < b.column; });
  return entries;
}

bool zero_violates(const lp::Row& row) {
  switch (row.type) {
    case lp::RowType::kLe: return 0.0 > row.rhs + recurrence::kModelRhsTol;
    case lp::RowType::kGe: return 0.0 < row.rhs - recurrence::kModelRhsTol;
    case lp::RowType::kEq: return std::fabs(row.rhs) > recurrence::kModelRhsTol;
  }
  return false;
}

}  // namespace

LintReport lint_model(const lp::Model& model) {
  LintReport report;
  std::map<std::pair<int, double>, std::vector<std::pair<std::vector<lp::RowEntry>, int>>>
      by_shape;  // (type, rhs) -> [(pattern, row index)]

  for (int i = 0; i < model.num_rows(); ++i) {
    const lp::Row& row = model.row(i);
    const std::vector<lp::RowEntry> entries = canonical_entries(row);
    const std::string locus = row_locus(row, i);

    if (entries.empty()) {
      if (zero_violates(row))
        report.add(LintSeverity::kError, "empty-row-infeasible", locus,
                   format("row has no nonzero coefficients but rhs %g cannot be satisfied "
                          "by an empty sum: the model is trivially infeasible",
                          row.rhs),
                   "the generator emitted a constraint over eliminated variables");
      else
        report.add(LintSeverity::kInfo, "empty-row", locus,
                   "row has no nonzero coefficients and is vacuously satisfied",
                   "drop the row; it only enlarges the basis");
      continue;
    }

    // Rows whose every column is fixed by its bounds have a constant
    // activity: either dead weight or a contradiction.
    bool all_fixed = true;
    double activity = 0.0;
    for (const lp::RowEntry& e : entries) {
      const lp::Column& col = model.column(e.column);
      if (col.lower != col.upper) {
        all_fixed = false;
        break;
      }
      activity += e.coeff * col.lower;
    }
    if (all_fixed) {
      const bool violated = (row.type == lp::RowType::kLe && activity > row.rhs + recurrence::kModelActivityTol) ||
                            (row.type == lp::RowType::kGe && activity < row.rhs - recurrence::kModelActivityTol) ||
                            (row.type == lp::RowType::kEq &&
                             std::fabs(activity - row.rhs) > recurrence::kModelActivityTol);
      if (violated)
        report.add(LintSeverity::kError, "fixed-row-infeasible", locus,
                   format("every column in the row is fixed; activity %g violates rhs %g",
                          activity, row.rhs),
                   "the fixed bounds contradict the constraint");
      else
        report.add(LintSeverity::kInfo, "fixed-row", locus,
                   format("every column in the row is fixed; activity is constant %g",
                          activity),
                   "presolve can delete the row");
    } else if (entries.size() == 1) {
      report.add(LintSeverity::kInfo, "singleton-row", locus,
                 format("row constrains the single column '%s': it is a bound in disguise",
                        model.column(entries.front().column).name.c_str()),
                 "fold it into the column bounds to shrink the basis");
    }

    std::vector<double> magnitudes;
    magnitudes.reserve(entries.size());
    for (const lp::RowEntry& e : entries) magnitudes.push_back(e.coeff);
    const double range = magnitude_range(magnitudes);
    if (range > kRangeLimit)
      report.add(LintSeverity::kWarning, "row-coefficient-range", locus,
                 format("coefficient magnitudes span %.1e : 1 within one row; pivots on the "
                        "small entries will amplify round-off",
                        range),
                 "rescale the row or the offending columns");

    auto& bucket = by_shape[{static_cast<int>(row.type), row.rhs}];
    bool duplicate = false;
    for (const auto& [pattern, other] : bucket) {
      if (pattern.size() != entries.size()) continue;
      bool same = true;
      for (std::size_t k = 0; k < entries.size(); ++k)
        if (pattern[k].column != entries[k].column || pattern[k].coeff != entries[k].coeff) {
          same = false;
          break;
        }
      if (same) {
        report.add(LintSeverity::kInfo, "duplicate-row", locus,
                   format("identical to %s (same type, rhs and coefficients)",
                          row_locus(model.row(other), other).c_str()),
                   "drop one copy; duplicate rows create degenerate bases");
        duplicate = true;
        break;
      }
    }
    if (!duplicate) bucket.emplace_back(entries, i);
  }
  return report;
}

}  // namespace insched::scheduler
