#include "insched/serve/canonical.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "insched/support/string_util.hpp"

namespace insched::serve {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// One analysis rendered in scale-free units. %.12g keeps full float
/// identity for exactly-rescaled inputs while quantizing away nothing that
/// the full-key equality guard would not catch anyway.
std::string canonical_analysis(const scheduler::ScheduleProblem& problem, std::size_t i,
                               double time_unit, double mem_unit) {
  const scheduler::AnalysisParams& a = problem.analyses[i];
  return format("ft=%.12g it=%.12g ct=%.12g ot=%.12g fm=%.12g im=%.12g cm=%.12g om=%.12g "
                "w=%.12g itv=%ld",
                a.ft / time_unit, a.it / time_unit, a.ct / time_unit,
                problem.output_time(i) / time_unit, a.fm / mem_unit, a.im / mem_unit,
                a.cm / mem_unit, a.om / mem_unit, a.weight, a.itv);
}

}  // namespace

CanonicalInstance canonicalize(const scheduler::ScheduleProblem& problem) {
  const std::size_t n = problem.size();

  // Time unit: the whole-run analysis budget. Dividing by it folds
  // threshold / threshold_kind / sim_time_per_step into "budget = 1", and
  // resolving output_time(i) folds bw into the per-analysis tuple. A
  // non-positive or infinite budget cannot serve as a unit, so times stay
  // raw and the budget value itself joins the key.
  const double budget = problem.time_budget();
  const bool budget_normalized = std::isfinite(budget) && budget > 0.0;
  const double time_unit = budget_normalized ? budget : 1.0;

  // Memory unit: the cap when finite. With no cap, memory parameters are
  // inert, but normalizing by the largest one keeps the key conservative
  // (distinct profiles stay distinct) while still rescale-stable.
  const bool mem_capped = std::isfinite(problem.mth) && problem.mth > 0.0;
  double mem_unit = mem_capped ? problem.mth : 0.0;
  if (!mem_capped) {
    for (const scheduler::AnalysisParams& a : problem.analyses)
      mem_unit = std::max({mem_unit, a.fm, a.im, a.cm, a.om});
    if (!(mem_unit > 0.0) || !std::isfinite(mem_unit)) mem_unit = 1.0;
  }

  std::vector<std::string> rows(n);
  for (std::size_t i = 0; i < n; ++i)
    rows[i] = canonical_analysis(problem, i, time_unit, mem_unit);

  CanonicalInstance out;
  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  std::sort(out.order.begin(), out.order.end(), [&rows](std::size_t a, std::size_t b) {
    if (rows[a] != rows[b]) return rows[a] < rows[b];
    return a < b;  // deterministic; equal rows are interchangeable anyway
  });

  out.key = format("insched-canonical-v1 n=%zu steps=%ld policy=%d budget=%s mcap=%s", n,
                   problem.steps, static_cast<int>(problem.output_policy),
                   budget_normalized ? "1" : format("%.12g", budget).c_str(),
                   mem_capped ? "1" : format("%.12g", problem.mth).c_str());
  for (std::size_t k = 0; k < n; ++k) {
    out.key += " | ";
    out.key += rows[out.order[k]];
  }
  out.fingerprint = fnv1a64(out.key);

  // Family: only what fixes the MILP shape — dimension, horizon, interval
  // structure, output variables, memory rows. Cost numbers are exactly what
  // the warm-start snapshot is meant to bridge, so they stay out. The
  // intervals stay in request order: the model is built in that order, and
  // a snapshot's basis is only worth reusing over the same columns.
  std::string family = format("insched-family-v1 n=%zu steps=%ld policy=%d mcap=%d", n,
                              problem.steps, static_cast<int>(problem.output_policy),
                              mem_capped ? 1 : 0);
  for (const scheduler::AnalysisParams& a : problem.analyses) family += format(" %ld", a.itv);
  out.family = fnv1a64(family);
  return out;
}

namespace {

/// permuted[k] = source[order[k]] when sizes agree; otherwise a copy
/// (solutions without per-analysis rows, e.g. unsolved failures).
template <typename T>
std::vector<T> apply_order(const std::vector<T>& source, const std::vector<std::size_t>& order) {
  if (source.size() != order.size()) return source;
  std::vector<T> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(source[i]);
  return out;
}

/// inverse[order[k]] = source[k]: maps canonical-order rows back to the
/// request's order.
template <typename T>
std::vector<T> invert_order(const std::vector<T>& source, const std::vector<std::size_t>& order) {
  if (source.size() != order.size()) return source;
  std::vector<T> out(source.size());
  for (std::size_t k = 0; k < order.size(); ++k) out[order[k]] = source[k];
  return out;
}

}  // namespace

scheduler::ScheduleSolution to_canonical_order(const scheduler::ScheduleSolution& solution,
                                               const std::vector<std::size_t>& order) {
  scheduler::ScheduleSolution out = solution;
  std::vector<scheduler::AnalysisSchedule> rows =
      apply_order(solution.schedule.analyses(), order);
  for (scheduler::AnalysisSchedule& row : rows) row.name.clear();
  out.schedule = scheduler::Schedule(solution.schedule.steps(), std::move(rows));
  out.frequencies = apply_order(solution.frequencies, order);
  out.output_counts = apply_order(solution.output_counts, order);
  out.snapshot = nullptr;
  return out;
}

scheduler::ScheduleSolution from_canonical_order(const scheduler::ScheduleSolution& canonical,
                                                 const std::vector<std::size_t>& order,
                                                 const scheduler::ScheduleProblem& problem) {
  scheduler::ScheduleSolution out = canonical;
  std::vector<scheduler::AnalysisSchedule> rows =
      invert_order(canonical.schedule.analyses(), order);
  if (rows.size() == problem.size())
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i].name = problem.analyses[i].name;
  out.schedule = scheduler::Schedule(canonical.schedule.steps(), std::move(rows));
  out.frequencies = invert_order(canonical.frequencies, order);
  out.output_counts = invert_order(canonical.output_counts, order);
  return out;
}

}  // namespace insched::serve
