#include "insched/lp/tolerances.hpp"
#include "insched/mip/probing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "insched/support/assert.hpp"

namespace insched::mip {
namespace {

constexpr double kChangeTol = lp::tol::kBoundChangeTol;  ///< minimum bound improvement worth keeping
constexpr double kFtol = lp::tol::kFeasTol;  ///< bound-crossing and fixed-width slack
constexpr int kMaxProbeColumns = 2048;  ///< binaries probed, in column order
constexpr long kMaxPasses = 3;          ///< per-probe visit budget, in multiples of nnz

/// The pass stops once its row-entry visits reach max(kMinWork,
/// kWorkPerNonzero * nnz): probing cost on the staircase models otherwise
/// grows quadratically in the step count while fixing next to nothing, and
/// the limit keeps the pass a deterministic prefix of the probe order.
constexpr long kMinWork = 1L << 20;
constexpr long kWorkPerNonzero = 32;

/// Rounds a derived bound onto the integer lattice for integer columns. The
/// margin is looser than the presolve one because propagated bounds carry
/// accumulated arithmetic error from chained rows.
double round_down(double v) { return std::floor(v + lp::tol::kIntTol + lp::tol::kCoeffTol * std::fabs(v)); }
double round_up(double v) { return std::ceil(v - lp::tol::kIntTol - lp::tol::kCoeffTol * std::fabs(v)); }

/// Queue-driven activity-bound propagator over the rows of a fixed model.
/// Bound vectors are owned by the caller so one Propagator serves both the
/// global bounds and the per-probe scratch copies.
class Propagator {
 public:
  explicit Propagator(const lp::Model& model) : model_(&model) {
    const int n = model.num_columns();
    col_rows_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < model.num_rows(); ++i) {
      for (const lp::RowEntry& e : model.row(i).entries)
        col_rows_[static_cast<std::size_t>(e.column)].push_back(i);
    }
    in_queue_.assign(static_cast<std::size_t>(model.num_rows()), 0);
    col_touched_.assign(static_cast<std::size_t>(n), 0);
  }

  void seed_all_rows() {
    for (int i = 0; i < model_->num_rows(); ++i) enqueue(i);
  }
  void seed_column(int j) {
    for (int r : col_rows_[static_cast<std::size_t>(j)]) enqueue(r);
  }

  /// Drains the queue, tightening `lo`/`hi` in place. Columns whose bounds
  /// move are appended to `touched` (each at most once per run). Returns
  /// false when a row is proven infeasible. `budget` caps entry visits so
  /// pathological big-M chains cannot spin; running out is safe (bounds stay
  /// valid, just less tight).
  bool run(std::vector<double>& lo, std::vector<double>& hi, std::vector<int>& touched,
           long budget, long* spent = nullptr) {
    touched.clear();
    bool feasible = true;
    while (!queue_.empty()) {
      const int r = queue_.back();
      queue_.pop_back();
      in_queue_[static_cast<std::size_t>(r)] = 0;
      if (!feasible) continue;  // drain bookkeeping, no more work
      const lp::Row& row = model_->row(r);
      budget -= static_cast<long>(row.entries.size());
      if (spent) *spent += static_cast<long>(row.entries.size());
      if (budget < 0) {
        // Out of budget: drain remaining queue flags and stop tightening.
        for (int q : queue_) in_queue_[static_cast<std::size_t>(q)] = 0;
        queue_.clear();
        break;
      }
      if (!process_row(r, row, lo, hi, touched)) feasible = false;
    }
    for (int j : touched) col_touched_[static_cast<std::size_t>(j)] = 0;
    return feasible;
  }

 private:
  void enqueue(int r) {
    auto& flag = in_queue_[static_cast<std::size_t>(r)];
    if (flag) return;
    flag = 1;
    queue_.push_back(r);
  }

  void touch(int j, std::vector<int>& touched) {
    auto& flag = col_touched_[static_cast<std::size_t>(j)];
    if (!flag) {
      flag = 1;
      touched.push_back(j);
    }
    seed_column(j);
  }

  bool process_row(int /*r*/, const lp::Row& row, std::vector<double>& lo,
                   std::vector<double>& hi, std::vector<int>& touched) {
    // Activity bounds with infinity counting so a single unbounded column can
    // still receive a bound from the finite remainder.
    double amin = 0.0;
    double amax = 0.0;
    int inf_min = 0;
    int inf_max = 0;
    int inf_min_col = -1;
    int inf_max_col = -1;
    for (const lp::RowEntry& e : row.entries) {
      const auto j = static_cast<std::size_t>(e.column);
      const double cmin = e.coeff > 0 ? e.coeff * lo[j] : e.coeff * hi[j];
      const double cmax = e.coeff > 0 ? e.coeff * hi[j] : e.coeff * lo[j];
      if (std::isfinite(cmin)) {
        amin += cmin;
      } else {
        ++inf_min;
        inf_min_col = e.column;
      }
      if (std::isfinite(cmax)) {
        amax += cmax;
      } else {
        ++inf_max;
        inf_max_col = e.column;
      }
    }
    const double rtol = kFtol * (1.0 + std::fabs(row.rhs));
    const bool need_le = row.type != lp::RowType::kGe;  // Le or Eq: activity <= rhs
    const bool need_ge = row.type != lp::RowType::kLe;  // Ge or Eq: activity >= rhs
    if (need_le && inf_min == 0 && amin > row.rhs + rtol) return false;
    if (need_ge && inf_max == 0 && amax < row.rhs - rtol) return false;

    for (const lp::RowEntry& e : row.entries) {
      const auto j = static_cast<std::size_t>(e.column);
      const bool integral = model_->column(e.column).type != lp::VarType::kContinuous;
      if (need_le && (inf_min == 0 || (inf_min == 1 && inf_min_col == e.column))) {
        const double cmin = e.coeff > 0 ? e.coeff * lo[j] : e.coeff * hi[j];
        const double rest = inf_min == 0 ? amin - cmin : amin;
        double bound = (row.rhs - rest) / e.coeff;
        if (e.coeff > 0) {
          if (integral) bound = round_down(bound);
          if (bound < hi[j] - kChangeTol) {
            hi[j] = bound;
            if (lo[j] > hi[j] + kFtol) return false;
            touch(e.column, touched);
          }
        } else {
          if (integral) bound = round_up(bound);
          if (bound > lo[j] + kChangeTol) {
            lo[j] = bound;
            if (lo[j] > hi[j] + kFtol) return false;
            touch(e.column, touched);
          }
        }
      }
      if (need_ge && (inf_max == 0 || (inf_max == 1 && inf_max_col == e.column))) {
        const double cmax = e.coeff > 0 ? e.coeff * hi[j] : e.coeff * lo[j];
        const double rest = inf_max == 0 ? amax - cmax : amax;
        double bound = (row.rhs - rest) / e.coeff;
        if (e.coeff > 0) {
          if (integral) bound = round_up(bound);
          if (bound > lo[j] + kChangeTol) {
            lo[j] = bound;
            if (lo[j] > hi[j] + kFtol) return false;
            touch(e.column, touched);
          }
        } else {
          if (integral) bound = round_down(bound);
          if (bound < hi[j] - kChangeTol) {
            hi[j] = bound;
            if (lo[j] > hi[j] + kFtol) return false;
            touch(e.column, touched);
          }
        }
      }
    }
    return true;
  }

  const lp::Model* model_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<int> queue_;
  std::vector<char> in_queue_;
  std::vector<char> col_touched_;
};

enum class ColState : char { kFree, kFixed, kAggregated };

}  // namespace

ProbingResult probe_binaries(const lp::Model& model) {
  ProbingResult out;
  const int n = model.num_columns();
  if (n == 0 || model.num_rows() == 0) return out;

  std::vector<double> glo(static_cast<std::size_t>(n));
  std::vector<double> ghi(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const lp::Column& c = model.column(j);
    double lo = c.lower;
    double hi = c.upper;
    if (c.type != lp::VarType::kContinuous) {
      if (std::isfinite(lo)) lo = round_up(lo);
      if (std::isfinite(hi)) hi = round_down(hi);
    }
    if (lo > hi + kFtol) {
      out.infeasible = true;
      return out;
    }
    glo[static_cast<std::size_t>(j)] = lo;
    ghi[static_cast<std::size_t>(j)] = hi;
  }

  Propagator prop(model);
  const long nnz = [&] {
    long t = 0;
    for (int i = 0; i < model.num_rows(); ++i)
      t += static_cast<long>(model.row(i).entries.size());
    return t;
  }();
  const long probe_budget = std::max<long>(4096, kMaxPasses * nnz);
  const long work_limit = std::max(kMinWork, kWorkPerNonzero * nnz);
  long work_spent = 0;
  std::vector<int> touched;

  // Root propagation: logical consequences of the bounds alone.
  prop.seed_all_rows();
  if (!prop.run(glo, ghi, touched, 4 * probe_budget)) {
    out.infeasible = true;
    return out;
  }

  std::vector<ColState> state(static_cast<std::size_t>(n), ColState::kFree);
  const auto record_fix = [&](int j, double v) {
    if (model.column(j).type != lp::VarType::kContinuous) v = std::round(v);
    state[static_cast<std::size_t>(j)] = ColState::kFixed;
    out.fixed_columns.push_back(j);
    out.fixed_values.push_back(v);
  };
  // Columns the root propagation already pinned.
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (ghi[js] - glo[js] <= kFtol &&
        !(model.column(j).lower >= model.column(j).upper))
      record_fix(j, glo[js]);
    else if (model.column(j).lower >= model.column(j).upper)
      state[js] = ColState::kFixed;  // fixed in the input model; not ours to report
  }

  // Candidate binaries, probed in column order (deterministic).
  std::vector<int> candidates;
  for (int j = 0; j < n; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (state[js] != ColState::kFree) continue;
    if (model.column(j).type == lp::VarType::kContinuous) continue;
    if (glo[js] == 0.0 && ghi[js] == 1.0) candidates.push_back(j);
    if (static_cast<int>(candidates.size()) >= kMaxProbeColumns) break;
  }

  std::vector<double> lo0;
  std::vector<double> hi0;
  std::vector<double> lo1;
  std::vector<double> hi1;
  std::vector<int> touched0;
  std::vector<int> touched1;
  const auto fix_and_propagate = [&](int j, double v) -> bool {
    glo[static_cast<std::size_t>(j)] = v;
    ghi[static_cast<std::size_t>(j)] = v;
    record_fix(j, v);
    prop.seed_column(j);
    if (!prop.run(glo, ghi, touched, probe_budget, &work_spent)) return false;
    for (int k : touched) {
      const auto ks = static_cast<std::size_t>(k);
      if (state[ks] == ColState::kFree && ghi[ks] - glo[ks] <= kFtol)
        record_fix(k, glo[ks]);
    }
    return true;
  };

  constexpr std::size_t kMaxImplications = 200000;
  for (const int j : candidates) {
    const auto js = static_cast<std::size_t>(j);
    if (work_spent >= work_limit) {
      out.work_limited = true;
      break;
    }
    if (state[js] != ColState::kFree) continue;
    if (glo[js] != 0.0 || ghi[js] != 1.0) continue;  // tightened meanwhile

    lo0 = glo;
    hi0 = ghi;
    lo1 = glo;
    hi1 = ghi;
    lo0[js] = hi0[js] = 0.0;
    lo1[js] = hi1[js] = 1.0;
    prop.seed_column(j);
    const bool feas0 = prop.run(lo0, hi0, touched0, probe_budget, &work_spent);
    prop.seed_column(j);
    const bool feas1 = prop.run(lo1, hi1, touched1, probe_budget, &work_spent);
    out.probes += 2;

    if (!feas0 && !feas1) {
      out.infeasible = true;
      return out;
    }
    if (!feas0 || !feas1) {
      if (!fix_and_propagate(j, feas0 ? 0.0 : 1.0)) {
        out.infeasible = true;
        return out;
      }
      continue;
    }

    // Both probes feasible: inspect binaries forced by either side. Only
    // columns touched by a probe can differ from the global bounds.
    for (const std::vector<int>* tl : {&touched0, &touched1}) {
      for (const int k : *tl) {
        const auto ks = static_cast<std::size_t>(k);
        if (k == j || state[ks] != ColState::kFree) continue;
        if (glo[ks] != 0.0 || ghi[ks] != 1.0) continue;  // only clean binaries
        const bool f0 = hi0[ks] - lo0[ks] <= kFtol;
        const bool f1 = hi1[ks] - lo1[ks] <= kFtol;
        if (!f0 && !f1) continue;
        const double v0 = f0 ? std::round(lo0[ks]) : -1.0;
        const double v1 = f1 ? std::round(lo1[ks]) : -1.0;
        if (f0 && f1) {
          if (v0 == v1) {
            if (!fix_and_propagate(k, v0)) {
              out.infeasible = true;
              return out;
            }
          } else {
            // k == v0 + (v1 - v0) * j, i.e. k == j or k == 1 - j.
            state[ks] = ColState::kAggregated;
            out.aggregations.push_back(lp::AggregatedColumn{k, j, v1 - v0, v0});
          }
        } else if (f1 && out.implications.size() < kMaxImplications) {
          out.implications.push_back(Implication{j, true, k, v1 != 0.0});
        } else if (f0 && out.implications.size() < kMaxImplications) {
          out.implications.push_back(Implication{j, false, k, v0 != 0.0});
        }
      }
    }
  }
  return out;
}

lp::PresolveResult apply_probing(const lp::Model& model, const ProbingResult& result,
                                 long* tightened) {
  INSCHED_EXPECTS(!result.infeasible);
  const int n = model.num_columns();
  const int m = model.num_rows();
  lp::PresolveResult out;
  if (tightened) *tightened = 0;

  enum class S : char { kKeep, kFixed, kAgg };
  std::vector<S> st(static_cast<std::size_t>(n), S::kKeep);
  std::vector<double> fixed(static_cast<std::size_t>(n), 0.0);
  struct Affine {
    int source = -1;
    double scale = 1.0;
    double offset = 0.0;
  };
  std::vector<Affine> agg(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < result.fixed_columns.size(); ++i) {
    const auto c = static_cast<std::size_t>(result.fixed_columns[i]);
    st[c] = S::kFixed;
    fixed[c] = result.fixed_values[i];
  }
  for (const lp::AggregatedColumn& a : result.aggregations) {
    const auto c = static_cast<std::size_t>(a.column);
    INSCHED_EXPECTS(st[c] == S::kKeep);
    st[c] = S::kAgg;
    agg[c] = Affine{a.source, a.scale, a.offset};
  }
  // Resolve aggregation chains to a kept source or a constant. Chains are
  // acyclic by construction (each edge points at a column that was still free
  // when the edge was recorded).
  for (int c = 0; c < n; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    if (st[cs] != S::kAgg) continue;
    double sc = agg[cs].scale;
    double off = agg[cs].offset;
    int s = agg[cs].source;
    int guard = 0;
    while (st[static_cast<std::size_t>(s)] == S::kAgg) {
      const Affine& a = agg[static_cast<std::size_t>(s)];
      off += sc * a.offset;
      sc *= a.scale;
      s = a.source;
      INSCHED_EXPECTS(++guard <= n);
    }
    if (st[static_cast<std::size_t>(s)] == S::kFixed) {
      st[cs] = S::kFixed;
      fixed[cs] = sc * fixed[static_cast<std::size_t>(s)] + off;
    } else {
      agg[cs] = Affine{s, sc, off};
    }
  }

  // Columns: kept ones carry objective mass folded in from their aggregates.
  out.column_map.assign(static_cast<std::size_t>(n), -1);
  out.fixed_values.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double> obj(static_cast<std::size_t>(n), 0.0);
  double obj_constant = model.objective_constant();
  for (int c = 0; c < n; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    const double w = model.column(c).objective;
    switch (st[cs]) {
      case S::kKeep:
        obj[cs] += w;
        break;
      case S::kFixed:
        out.fixed_values[cs] = fixed[cs];
        obj_constant += w * fixed[cs];
        ++out.removed_columns;
        break;
      case S::kAgg:
        obj[static_cast<std::size_t>(agg[cs].source)] += w * agg[cs].scale;
        obj_constant += w * agg[cs].offset;
        ++out.removed_columns;
        break;
    }
  }
  out.reduced.set_sense(model.sense());
  for (int c = 0; c < n; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    if (st[cs] != S::kKeep) continue;
    const lp::Column& col = model.column(c);
    out.column_map[cs] =
        out.reduced.add_column(col.name, col.lower, col.upper, obj[cs], col.type);
  }
  out.reduced.set_objective_constant(obj_constant);
  for (const lp::AggregatedColumn& a : result.aggregations) {
    const auto cs = static_cast<std::size_t>(a.column);
    if (st[cs] == S::kAgg)
      out.aggregated.push_back(lp::AggregatedColumn{a.column, agg[cs].source,
                                                    agg[cs].scale, agg[cs].offset});
    // chains that resolved to constants are plain fixed columns now
  }

  // Rows: substitute, then tighten binary coefficients on inequality rows.
  constexpr double kRowTol = lp::tol::kFeasTol;
  for (int i = 0; i < m; ++i) {
    const lp::Row& row = model.row(i);
    double shift = 0.0;
    std::vector<lp::RowEntry> entries;
    entries.reserve(row.entries.size());
    for (const lp::RowEntry& e : row.entries) {
      const auto cs = static_cast<std::size_t>(e.column);
      switch (st[cs]) {
        case S::kKeep:
          entries.push_back(lp::RowEntry{out.column_map[cs], e.coeff});
          break;
        case S::kFixed:
          shift += e.coeff * fixed[cs];
          break;
        case S::kAgg: {
          const Affine& a = agg[cs];
          entries.push_back(lp::RowEntry{
              out.column_map[static_cast<std::size_t>(a.source)], e.coeff * a.scale});
          shift += e.coeff * a.offset;
          break;
        }
      }
    }
    double rhs = row.rhs - shift;
    if (entries.empty()) {
      const bool ok = (row.type == lp::RowType::kLe && rhs >= -kRowTol) ||
                      (row.type == lp::RowType::kGe && rhs <= kRowTol) ||
                      (row.type == lp::RowType::kEq && std::fabs(rhs) <= kRowTol);
      if (!ok) {
        out.infeasible = true;
        return out;
      }
      ++out.removed_rows;
      continue;
    }
    out.reduced.add_row(row.name, row.type, rhs, std::move(entries));
  }

  // Coefficient tightening pass over the rebuilt inequality rows. For a <=
  // row with binary x_j, coeff a > 0 and slack at "everything else maxed,
  // x_j = 0" of delta = rhs - maxact_without_j in (0, a): replacing (a, rhs)
  // with (a - delta, rhs - delta) keeps every integer point and shaves the
  // fractional corner. Negative coefficients pull toward zero symmetrically.
  long tight = 0;
  for (int i = 0; i < out.reduced.num_rows(); ++i) {
    const lp::Row& row = out.reduced.row(i);
    if (row.type == lp::RowType::kEq) continue;
    const double sign = row.type == lp::RowType::kLe ? 1.0 : -1.0;
    double maxact = 0.0;  // of sign * activity
    bool finite = true;
    for (const lp::RowEntry& e : row.entries) {
      const lp::Column& c = out.reduced.column(e.column);
      const double a = sign * e.coeff;
      const double top = a > 0 ? a * c.upper : a * c.lower;
      if (!std::isfinite(top)) {
        finite = false;
        break;
      }
      maxact += top;
    }
    if (!finite) continue;
    double rhs = sign * row.rhs;
    if (maxact <= rhs + kRowTol) continue;  // redundant rows are rare; leave them
    for (std::size_t k = 0; k < row.entries.size(); ++k) {
      const lp::RowEntry e = row.entries[k];
      const lp::Column& c = out.reduced.column(e.column);
      if (c.type == lp::VarType::kContinuous || c.lower != 0.0 || c.upper != 1.0)
        continue;
      const double a = sign * e.coeff;
      if (a > kRowTol) {
        const double delta = rhs - (maxact - a);
        if (delta > kRowTol && delta < a - kRowTol) {
          out.reduced.set_row_coeff(i, static_cast<int>(k), sign * (a - delta));
          out.reduced.set_row_rhs(i, sign * (rhs - delta));
          rhs -= delta;
          maxact -= delta;
          ++tight;
        }
      } else if (a < -kRowTol) {
        // max contribution of x_j is 0; when x_j = 1 the row relaxes by |a|.
        const double delta = rhs - (maxact + a);
        if (delta > kRowTol) {
          const double na = std::min(0.0, a + delta);
          out.reduced.set_row_coeff(i, static_cast<int>(k), sign * na);
          ++tight;
        }
      }
    }
  }
  if (tightened) *tightened = tight;
  return out;
}

void ConflictGraph::add_edge(int a, int b) {
  if (a == b) return;
  adj_[static_cast<std::size_t>(a)].push_back(b);
  adj_[static_cast<std::size_t>(b)].push_back(a);
}

void ConflictGraph::build(const lp::Model& model, const std::vector<Implication>& implications,
                          int max_row_entries) {
  const auto n = static_cast<std::size_t>(model.num_columns());
  adj_.assign(n, {});
  cliques_of_.assign(n, {});
  cliques_ = 0;
  const auto is_binary = [&](int j) {
    const lp::Column& c = model.column(j);
    return c.type != lp::VarType::kContinuous && c.lower == 0.0 && c.upper == 1.0;
  };
  const auto member = [&](const lp::RowEntry& e) { return e.coeff > 0 && is_binary(e.column); };
  for (int i = 0; i < model.num_rows(); ++i) {
    const lp::Row& row = model.row(i);
    if (row.type == lp::RowType::kGe) continue;  // Le and Eq give an upper side
    // min activity over the box; pairs whose joint activation must exceed rhs
    // even under the most forgiving completion conflict.
    double amin = 0.0;
    bool finite = true;
    for (const lp::RowEntry& e : row.entries) {
      const lp::Column& c = model.column(e.column);
      const double v = e.coeff > 0 ? e.coeff * c.lower : e.coeff * c.upper;
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
      amin += v;
    }
    if (!finite) continue;
    // The two largest and the two smallest positive binary coefficients
    // bound every pair sum (min contributions of such columns are 0).
    double top1 = 0.0;
    double top2 = 0.0;
    double low1 = lp::kInf;
    double low2 = lp::kInf;
    for (const lp::RowEntry& e : row.entries) {
      if (!member(e)) continue;
      if (e.coeff > top1) {
        top2 = top1;
        top1 = e.coeff;
      } else if (e.coeff > top2) {
        top2 = e.coeff;
      }
      if (e.coeff < low1) {
        low2 = low1;
        low1 = e.coeff;
      } else if (e.coeff < low2) {
        low2 = e.coeff;
      }
    }
    const double bound = row.rhs + lp::tol::kFeasTol;
    if (top2 <= 0.0 || amin + top1 + top2 <= bound) continue;  // no pair conflicts
    // Every pair conflicts iff the cheapest one does; both summation orders
    // are tested so the verdict matches the pair scan's row-order sums.
    if (std::min(amin + low1 + low2, amin + low2 + low1) > bound) {
      const int id = static_cast<int>(cliques_++);
      for (const lp::RowEntry& e : row.entries)
        if (member(e)) cliques_of_[static_cast<std::size_t>(e.column)].push_back(id);
      continue;
    }
    if (static_cast<int>(row.entries.size()) > max_row_entries) continue;  // O(w^2) below
    for (std::size_t p = 0; p < row.entries.size(); ++p) {
      const lp::RowEntry& ep = row.entries[p];
      if (!member(ep)) continue;
      for (std::size_t q = p + 1; q < row.entries.size(); ++q) {
        const lp::RowEntry& eq = row.entries[q];
        if (member(eq) && amin + ep.coeff + eq.coeff > bound) add_edge(ep.column, eq.column);
      }
    }
  }
  for (const Implication& imp : implications) {
    if (imp.antecedent < 0 || imp.consequent < 0) continue;
    if (imp.antecedent >= columns() || imp.consequent >= columns()) continue;
    if (imp.value && !imp.forced) add_edge(imp.antecedent, imp.consequent);
  }
  edges_ = 0;
  for (auto& nb : adj_) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    edges_ += static_cast<long>(nb.size());
  }
  edges_ /= 2;
}

bool ConflictGraph::adjacent(int a, int b) const {
  if (a == b) return false;
  const auto& nb = adj_[static_cast<std::size_t>(a)];
  if (std::binary_search(nb.begin(), nb.end(), b)) return true;
  const auto& ca = cliques_of_[static_cast<std::size_t>(a)];
  const auto& cb = cliques_of_[static_cast<std::size_t>(b)];
  for (auto i = ca.begin(), j = cb.begin(); i != ca.end() && j != cb.end();) {
    if (*i == *j) return true;
    if (*i < *j) ++i;
    else ++j;
  }
  return false;
}

}  // namespace insched::mip
