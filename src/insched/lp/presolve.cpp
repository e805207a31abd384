#include "insched/lp/presolve.hpp"
#include "insched/lp/tolerances.hpp"

#include <cmath>

#include "insched/support/assert.hpp"

namespace insched::lp {

namespace {
constexpr double kTol = tol::kCoeffTol;

/// Rounds integer-variable bounds inward to the integer lattice.
void integralize_bounds(VarType type, double& lo, double& hi) {
  if (type == VarType::kContinuous) return;
  if (std::isfinite(lo)) lo = std::ceil(lo - kTol);
  if (std::isfinite(hi)) hi = std::floor(hi + kTol);
}
}  // namespace

std::vector<double> PresolveResult::restore(const std::vector<double>& reduced_x) const {
  std::vector<double> x(column_map.size(), 0.0);
  for (std::size_t j = 0; j < column_map.size(); ++j) {
    const int mapped = column_map[j];
    x[j] = mapped >= 0 ? reduced_x.at(static_cast<std::size_t>(mapped)) : fixed_values[j];
  }
  // Aggregated columns read their (already restored) source column. A source
  // may itself be aggregated; resolve in passes so chains settle regardless
  // of record order (chains are short — binary equivalence classes).
  for (std::size_t pass = 0; pass < aggregated.size() + 1; ++pass) {
    bool changed = false;
    for (const AggregatedColumn& a : aggregated) {
      const double v =
          a.scale * x.at(static_cast<std::size_t>(a.source)) + a.offset;
      auto& slot = x.at(static_cast<std::size_t>(a.column));
      if (slot != v) {
        slot = v;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return x;
}

PresolveResult presolve(const Model& model) {
  PresolveResult out;
  const int n = model.num_columns();
  const int m = model.num_rows();

  std::vector<double> lo(static_cast<std::size_t>(n));
  std::vector<double> hi(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lo[static_cast<std::size_t>(j)] = model.column(j).lower;
    hi[static_cast<std::size_t>(j)] = model.column(j).upper;
    integralize_bounds(model.column(j).type, lo[static_cast<std::size_t>(j)],
                       hi[static_cast<std::size_t>(j)]);
    if (lo[static_cast<std::size_t>(j)] > hi[static_cast<std::size_t>(j)] + kTol) {
      out.infeasible = true;
      return out;
    }
  }

  // Singleton-row bound tightening, iterated to a fixed point (each pass can
  // expose new singletons only through fixing, so a couple of sweeps suffice;
  // we loop until no change for full generality).
  std::vector<bool> row_dropped(static_cast<std::size_t>(m), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < m; ++i) {
      if (row_dropped[static_cast<std::size_t>(i)]) continue;
      const Row& row = model.row(i);
      // Count entries on not-yet-fixed columns; accumulate fixed activity.
      int live = -1;
      int live_count = 0;
      double fixed_activity = 0.0;
      for (const RowEntry& e : row.entries) {
        const auto j = static_cast<std::size_t>(e.column);
        if (hi[j] - lo[j] <= kTol) {
          fixed_activity += e.coeff * lo[j];
        } else {
          ++live_count;
          live = e.column;
        }
      }
      if (live_count > 1) continue;
      const double rhs = row.rhs - fixed_activity;
      if (live_count == 0) {
        const bool ok = (row.type == RowType::kLe && rhs >= -tol::kFeasTol) ||
                        (row.type == RowType::kGe && rhs <= tol::kFeasTol) ||
                        (row.type == RowType::kEq && std::fabs(rhs) <= tol::kFeasTol);
        if (!ok) {
          out.infeasible = true;
          return out;
        }
        row_dropped[static_cast<std::size_t>(i)] = true;
        changed = true;
        continue;
      }
      // Singleton: a * x (op) rhs tightens x's bounds.
      const auto j = static_cast<std::size_t>(live);
      double a = 0.0;
      for (const RowEntry& e : row.entries)
        if (e.column == live) a += e.coeff;
      if (std::fabs(a) <= kTol) continue;
      double new_lo = lo[j];
      double new_hi = hi[j];
      const double bound = rhs / a;
      switch (row.type) {
        case RowType::kLe:
          if (a > 0) new_hi = std::min(new_hi, bound);
          else new_lo = std::max(new_lo, bound);
          break;
        case RowType::kGe:
          if (a > 0) new_lo = std::max(new_lo, bound);
          else new_hi = std::min(new_hi, bound);
          break;
        case RowType::kEq:
          new_lo = std::max(new_lo, bound);
          new_hi = std::min(new_hi, bound);
          break;
      }
      integralize_bounds(model.column(live).type, new_lo, new_hi);
      if (new_lo > new_hi + tol::kFeasTol) {
        out.infeasible = true;
        return out;
      }
      if (new_lo > lo[j] + kTol || new_hi < hi[j] - kTol) {
        lo[j] = std::max(lo[j], new_lo);
        hi[j] = std::min(hi[j], new_hi);
        changed = true;
      }
      row_dropped[static_cast<std::size_t>(i)] = true;
    }
  }

  // Build the reduced model: drop fixed columns and dropped rows.
  out.column_map.assign(static_cast<std::size_t>(n), -1);
  out.fixed_values.assign(static_cast<std::size_t>(n), 0.0);
  out.reduced.set_sense(model.sense());
  double obj_constant = model.objective_constant();
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const Column& c = model.column(j);
    if (hi[js] - lo[js] <= kTol) {
      out.fixed_values[js] = lo[js];
      obj_constant += c.objective * lo[js];
      ++out.removed_columns;
      continue;
    }
    out.column_map[js] =
        out.reduced.add_column(c.name, lo[js], hi[js], c.objective, c.type);
  }
  out.reduced.set_objective_constant(obj_constant);

  for (int i = 0; i < m; ++i) {
    if (row_dropped[static_cast<std::size_t>(i)]) {
      ++out.removed_rows;
      continue;
    }
    const Row& row = model.row(i);
    double fixed_activity = 0.0;
    std::vector<RowEntry> entries;
    entries.reserve(row.entries.size());
    for (const RowEntry& e : row.entries) {
      const int mapped = out.column_map[static_cast<std::size_t>(e.column)];
      if (mapped < 0) {
        fixed_activity += e.coeff * out.fixed_values[static_cast<std::size_t>(e.column)];
      } else {
        entries.push_back(RowEntry{mapped, e.coeff});
      }
    }
    if (entries.empty()) {
      const double rhs = row.rhs - fixed_activity;
      const bool ok = (row.type == RowType::kLe && rhs >= -tol::kFeasTol) ||
                      (row.type == RowType::kGe && rhs <= tol::kFeasTol) ||
                      (row.type == RowType::kEq && std::fabs(rhs) <= tol::kFeasTol);
      if (!ok) {
        out.infeasible = true;
        return out;
      }
      ++out.removed_rows;
      continue;
    }
    out.reduced.add_row(row.name, row.type, row.rhs - fixed_activity, std::move(entries));
  }
  return out;
}

}  // namespace insched::lp
