#include "insched/lp/tolerances.hpp"
#include "insched/mip/heuristics.hpp"

#include <algorithm>
#include <cmath>

#include "insched/support/assert.hpp"

namespace insched::mip {

namespace {

[[nodiscard]] double clamp_round(const lp::Column& col, double v) {
  double r = std::round(v);
  r = std::max(r, std::ceil(col.lower - lp::tol::kCoeffTol));
  r = std::min(r, std::floor(col.upper + lp::tol::kCoeffTol));
  return r;
}

[[nodiscard]] bool is_fractional(double v) {
  return std::fabs(v - std::round(v)) > lp::tol::kIntTol;
}

}  // namespace

std::optional<std::vector<double>> round_and_fix(const lp::Model& model,
                                                 const std::vector<double>& lp_point,
                                                 const lp::SimplexOptions& lp_options) {
  INSCHED_EXPECTS(lp_point.size() == static_cast<std::size_t>(model.num_columns()));
  lp::Model fixed = model;
  bool any_integer = false;
  for (int j = 0; j < model.num_columns(); ++j) {
    const lp::Column& c = model.column(j);
    if (c.type == lp::VarType::kContinuous) continue;
    any_integer = true;
    const double r = clamp_round(c, lp_point[static_cast<std::size_t>(j)]);
    if (r < c.lower - lp::tol::kCoeffTol || r > c.upper + lp::tol::kCoeffTol) return std::nullopt;
    fixed.set_bounds(j, r, r);
  }
  if (!any_integer) return lp_point;

  const lp::SimplexResult res = lp::solve_lp(fixed, lp_options);
  if (!res.optimal()) return std::nullopt;
  std::vector<double> x = res.x;
  // Snap the integers exactly to avoid tolerance drift downstream.
  for (int j = 0; j < model.num_columns(); ++j) {
    if (model.column(j).type != lp::VarType::kContinuous)
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
  }
  if (!model.is_feasible(x, lp::tol::kIntTol)) return std::nullopt;
  return x;
}

std::optional<std::vector<double>> dive(const lp::Model& model,
                                        const std::vector<double>& lp_point,
                                        const lp::SimplexOptions& lp_options, int max_depth) {
  lp::Model work = model;
  std::vector<double> current = lp_point;
  for (int depth = 0; depth < max_depth; ++depth) {
    // Pick the least-fractional unfixed integer variable.
    int pick = -1;
    double best_dist = 0.5 + lp::tol::kCoeffTol;
    for (int j = 0; j < work.num_columns(); ++j) {
      const lp::Column& c = work.column(j);
      if (c.type == lp::VarType::kContinuous) continue;
      if (c.lower == c.upper) continue;
      const double v = current[static_cast<std::size_t>(j)];
      if (!is_fractional(v)) continue;
      const double dist = std::fabs(v - std::round(v));
      if (dist < best_dist) {
        best_dist = dist;
        pick = j;
      }
    }
    if (pick < 0) {
      // All integral: try to finish with a plain round-and-fix (also fixes
      // near-integral drift and re-checks feasibility).
      return round_and_fix(model, current, lp_options);
    }
    const lp::Column& col = work.column(pick);
    const double v = current[static_cast<std::size_t>(pick)];
    const double nearest = clamp_round(col, v);
    // Nearest first; if that direction is LP-infeasible, try the other side.
    const double other =
        nearest >= v ? std::max(nearest - 1.0, std::ceil(col.lower - lp::tol::kCoeffTol))
                     : std::min(nearest + 1.0, std::floor(col.upper + lp::tol::kCoeffTol));
    const double saved_lo = col.lower;
    const double saved_hi = col.upper;
    work.set_bounds(pick, nearest, nearest);
    lp::SimplexResult res = lp::solve_lp(work, lp_options);
    if (!res.optimal() && other != nearest) {
      work.set_bounds(pick, other, other);
      res = lp::solve_lp(work, lp_options);
    }
    if (!res.optimal()) {
      work.set_bounds(pick, saved_lo, saved_hi);
      return std::nullopt;
    }
    current = res.x;
  }
  return std::nullopt;
}

namespace {

// Shared state for the greedy_fill passes below: the 0/1-capable integer
// columns, their transposed row entries, and the running row activities.
struct FillState {
  struct ColEntry {
    int row = -1;
    double coeff = 0.0;
  };
  const lp::Model* model = nullptr;
  std::vector<double>* x = nullptr;
  std::vector<int> cols;                       ///< 0/1-capable integer columns
  std::vector<char> is01;                      ///< column -> member of `cols`
  std::vector<std::vector<ColEntry>> col_rows; ///< transpose, those columns only
  std::vector<double> gain;                    ///< objective gain of col at 1
  std::vector<double> usage;                   ///< sum of the col's kLe coeffs
  std::vector<double> act;                     ///< row activities of *x

  static constexpr double kTol = lp::tol::kFeasTol;

  void build(const lp::Model& m, std::vector<double>* point) {
    model = &m;
    x = point;
    const bool maximize = m.sense() == lp::Sense::kMaximize;
    is01.assign(static_cast<std::size_t>(m.num_columns()), 0);
    gain.assign(static_cast<std::size_t>(m.num_columns()), 0.0);
    usage.assign(static_cast<std::size_t>(m.num_columns()), 0.0);
    for (int j = 0; j < m.num_columns(); ++j) {
      const lp::Column& c = m.column(j);
      if (c.type == lp::VarType::kContinuous) continue;
      if (c.lower > kTol || c.upper < 1.0 - kTol) continue;
      cols.push_back(j);
      is01[static_cast<std::size_t>(j)] = 1;
      gain[static_cast<std::size_t>(j)] = maximize ? c.objective : -c.objective;
    }
    act.assign(static_cast<std::size_t>(m.num_rows()), 0.0);
    col_rows.assign(static_cast<std::size_t>(m.num_columns()), {});
    for (int i = 0; i < m.num_rows(); ++i) {
      const lp::Row& row = m.row(i);
      double a = 0.0;
      for (const lp::RowEntry& e : row.entries) {
        a += e.coeff * (*x)[static_cast<std::size_t>(e.column)];
        if (is01[static_cast<std::size_t>(e.column)]) {
          col_rows[static_cast<std::size_t>(e.column)].push_back({i, e.coeff});
          if (row.type == lp::RowType::kLe)
            usage[static_cast<std::size_t>(e.column)] += e.coeff;
        }
      }
      act[static_cast<std::size_t>(i)] = a;
    }
  }

  [[nodiscard]] bool at(int j, double v) const {
    return std::fabs((*x)[static_cast<std::size_t>(j)] - v) <= kTol;
  }

  [[nodiscard]] bool row_ok(const lp::Row& row, double na) const {
    switch (row.type) {
      case lp::RowType::kLe: return na <= row.rhs + kTol;
      case lp::RowType::kGe: return na >= row.rhs - kTol;
      case lp::RowType::kEq: return std::fabs(na - row.rhs) <= kTol;
    }
    return false;
  }

  void apply(int j, double delta) {
    (*x)[static_cast<std::size_t>(j)] += delta;
    for (const ColEntry& e : col_rows[static_cast<std::size_t>(j)])
      act[static_cast<std::size_t>(e.row)] += delta * e.coeff;
  }

  /// Can column `j` move by `delta` with every row staying feasible?
  [[nodiscard]] bool move_ok(int j, double delta) const {
    for (const ColEntry& e : col_rows[static_cast<std::size_t>(j)]) {
      const double na = act[static_cast<std::size_t>(e.row)] + delta * e.coeff;
      if (!row_ok(model->row(e.row), na)) return false;
    }
    return true;
  }

  /// Can `off` replace `on` (simultaneous -1/+1) feasibly? Rows shared by
  /// both columns see the combined delta.
  [[nodiscard]] bool swap_ok(int on, int off) const {
    const auto& on_rows = col_rows[static_cast<std::size_t>(on)];
    auto coeff_in = [&](int row) {
      for (const ColEntry& e : on_rows)
        if (e.row == row) return e.coeff;
      return 0.0;
    };
    for (const ColEntry& e : col_rows[static_cast<std::size_t>(off)]) {
      const double na =
          act[static_cast<std::size_t>(e.row)] + e.coeff - coeff_in(e.row);
      if (!row_ok(model->row(e.row), na)) return false;
    }
    for (const ColEntry& e : on_rows) {
      bool shared = false;
      for (const ColEntry& f : col_rows[static_cast<std::size_t>(off)])
        if (f.row == e.row) { shared = true; break; }
      if (shared) continue;  // handled above with the combined delta
      const double na = act[static_cast<std::size_t>(e.row)] - e.coeff;
      if (!row_ok(model->row(e.row), na)) return false;
    }
    return true;
  }

  struct Move {
    int col = -1;
    double delta = 0.0;
  };

  /// Merges the per-row deltas of a simultaneous multi-column move and
  /// returns (row, delta) pairs sorted by row.
  [[nodiscard]] std::vector<std::pair<int, double>> move_deltas(
      const std::vector<Move>& moves) const {
    std::vector<std::pair<int, double>> rd;
    for (const Move& m : moves)
      for (const ColEntry& e : col_rows[static_cast<std::size_t>(m.col)])
        rd.emplace_back(e.row, m.delta * e.coeff);
    std::sort(rd.begin(), rd.end());
    std::size_t out = 0;
    for (std::size_t k = 0; k < rd.size(); ++k) {
      if (out > 0 && rd[out - 1].first == rd[k].first) rd[out - 1].second += rd[k].second;
      else rd[out++] = rd[k];
    }
    rd.resize(out);
    return rd;
  }

  /// First row a simultaneous move would violate, or -1 if feasible.
  [[nodiscard]] int first_blocked(const std::vector<Move>& moves) const {
    for (const auto& [row, delta] : move_deltas(moves)) {
      if (!row_ok(model->row(row), act[static_cast<std::size_t>(row)] + delta))
        return row;
    }
    return -1;
  }

  void apply_moves(const std::vector<Move>& moves) {
    for (const Move& m : moves) apply(m.col, m.delta);
  }
};

/// One greedy pass flipping on, in descending objective-gain order, every
/// improving 0/1 column whose activation keeps all rows feasible.
int fill_pass(FillState* st) {
  struct Cand {
    int col = -1;
    double gain = 0.0;
  };
  std::vector<Cand> cands;
  for (int j : st->cols) {
    if (!st->at(j, 0.0)) continue;
    const double g = st->gain[static_cast<std::size_t>(j)];
    if (g > FillState::kTol) cands.push_back({j, g});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    return a.col < b.col;
  });
  int flips = 0;
  for (const Cand& c : cands) {
    if (!st->move_ok(c.col, 1.0)) continue;
    st->apply(c.col, 1.0);
    ++flips;
  }
  return flips;
}

/// One lateral pass replacing active columns with equal-gain columns of
/// strictly smaller kLe-row usage. The objective is unchanged but budget-type
/// slack strictly grows, which is what unlocks the next fill pass on rows
/// packed with near-equal coefficients (e.g. the paper's R2/R3 analyses at
/// 17.193 vs 17.194 s/step: the optimum uses only the cheaper one).
int swap_pass(FillState* st) {
  std::vector<int> on;
  std::vector<int> off;
  for (int j : st->cols) {
    if (st->at(j, 1.0)) on.push_back(j);
    else if (st->at(j, 0.0)) off.push_back(j);
  }
  // Most wasteful first; candidate replacements cheapest first.
  std::sort(on.begin(), on.end(), [&](int a, int b) {
    const double ua = st->usage[static_cast<std::size_t>(a)];
    const double ub = st->usage[static_cast<std::size_t>(b)];
    if (ua != ub) return ua > ub;
    return a < b;
  });
  std::sort(off.begin(), off.end(), [&](int a, int b) {
    const double ua = st->usage[static_cast<std::size_t>(a)];
    const double ub = st->usage[static_cast<std::size_t>(b)];
    if (ua != ub) return ua < ub;
    return a < b;
  });
  int swaps = 0;
  for (int u : on) {
    for (int v : off) {
      if (st->usage[static_cast<std::size_t>(v)] >=
          st->usage[static_cast<std::size_t>(u)] - lp::tol::kTieTol)
        break;  // off is usage-sorted: no cheaper replacement exists
      if (std::fabs(st->gain[static_cast<std::size_t>(v)] -
                    st->gain[static_cast<std::size_t>(u)]) > lp::tol::kCoeffTol)
        continue;
      if (!st->swap_ok(u, v)) continue;
      st->apply(u, -1.0);
      st->apply(v, 1.0);
      ++swaps;
      break;
    }
  }
  return swaps;
}

/// Activation-repair pass for the linked active/step structure (paper Eqs 2-9
/// collapsed): a positive-gain binary u (an `a_i` activation) can be blocked
/// by a kGe support row requiring a second binary v (one `x_{i,j}` step) to
/// come up with it, and the pair can in turn overrun a kLe budget row that a
/// lower-gain binary w must vacate. Tries u alone is skipped (fill_pass owns
/// it), then {u,v}, then {u,v,-w}; every accepted move strictly raises the
/// objective.
int repair_pass(FillState* st) {
  struct Cand {
    int col = -1;
    double gain = 0.0;
  };
  std::vector<Cand> cands;
  for (int j : st->cols) {
    if (!st->at(j, 0.0)) continue;
    const double g = st->gain[static_cast<std::size_t>(j)];
    if (g > FillState::kTol) cands.push_back({j, g});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    return a.col < b.col;
  });

  int repairs = 0;
  for (const Cand& cand : cands) {
    const int u = cand.col;
    if (!st->at(u, 0.0)) continue;       // an earlier repair flipped it
    if (st->move_ok(u, 1.0)) continue;   // fill_pass territory
    // The move needs support: find the kGe row the lone flip violates.
    int support_row = -1;
    for (const auto& e : st->col_rows[static_cast<std::size_t>(u)]) {
      const lp::Row& row = st->model->row(e.row);
      if (row.type != lp::RowType::kGe) continue;
      if (!st->row_ok(row, st->act[static_cast<std::size_t>(e.row)] + e.coeff)) {
        support_row = e.row;
        break;
      }
    }
    if (support_row < 0) continue;
    // Supporters: off binaries raising the violated kGe row, cheapest first.
    std::vector<int> supporters;
    for (const lp::RowEntry& e : st->model->row(support_row).entries) {
      if (e.column == u || e.coeff <= 0.0) continue;
      if (!st->is01[static_cast<std::size_t>(e.column)]) continue;
      if (st->at(e.column, 0.0)) supporters.push_back(e.column);
    }
    std::sort(supporters.begin(), supporters.end(), [&](int a, int b) {
      const double ua = st->usage[static_cast<std::size_t>(a)];
      const double ub = st->usage[static_cast<std::size_t>(b)];
      if (ua != ub) return ua < ub;
      return a < b;
    });
    constexpr int kMaxSupporters = 64;
    constexpr int kMaxVacate = 64;
    bool done = false;
    int tried = 0;
    for (int v : supporters) {
      if (done || ++tried > kMaxSupporters) break;
      std::vector<FillState::Move> pair_mv{{u, 1.0}, {v, 1.0}};
      const int blocked = st->first_blocked(pair_mv);
      if (blocked < 0) {
        st->apply_moves(pair_mv);
        ++repairs;
        done = true;
        break;
      }
      const lp::Row& brow = st->model->row(blocked);
      if (brow.type != lp::RowType::kLe) continue;
      // Budget overrun: vacate one lower-gain binary that frees enough of it.
      // `over` is how far the pair overruns this row, so only on-columns
      // whose coefficient covers it are worth a full feasibility test.
      double pair_delta = 0.0;
      for (const lp::RowEntry& e : brow.entries)
        if (e.column == u || e.column == v) pair_delta += e.coeff;
      const double over =
          st->act[static_cast<std::size_t>(blocked)] + pair_delta - brow.rhs;
      const double pair_gain = cand.gain + st->gain[static_cast<std::size_t>(v)];
      int attempts = 0;
      for (const lp::RowEntry& e : brow.entries) {
        const int w = e.column;
        if (w == u || w == v || e.coeff < over - FillState::kTol) continue;
        if (!st->is01[static_cast<std::size_t>(w)] || !st->at(w, 1.0)) continue;
        if (st->gain[static_cast<std::size_t>(w)] >= pair_gain - FillState::kTol)
          continue;  // the 3-move must still improve the objective
        if (++attempts > kMaxVacate) break;
        std::vector<FillState::Move> triple{{u, 1.0}, {v, 1.0}, {w, -1.0}};
        if (st->first_blocked(triple) >= 0) continue;
        st->apply_moves(triple);
        ++repairs;
        done = true;
        break;
      }
    }
  }
  return repairs;
}

}  // namespace

int greedy_fill(const lp::Model& model, std::vector<double>* x) {
  INSCHED_EXPECTS(x != nullptr &&
                  x->size() == static_cast<std::size_t>(model.num_columns()));
  FillState st;
  st.build(model, x);
  if (st.cols.empty()) return 0;
  // Alternate the passes: fills and repairs raise the objective, swaps free
  // budget for the next fill. Each accepted move strictly improves
  // (objective, -usage) lexicographically, so the loop cannot cycle; the cap
  // is just a backstop.
  int improved = 0;
  for (int round = 0; round < 8; ++round) {
    improved += fill_pass(&st);
    const int swaps = swap_pass(&st);
    const int repairs = repair_pass(&st);
    improved += repairs;
    if (swaps + repairs == 0) break;
  }
  return improved;
}

bool greedy_shed(const lp::Model& model, std::vector<double>* x) {
  INSCHED_EXPECTS(x != nullptr &&
                  x->size() == static_cast<std::size_t>(model.num_columns()));
  FillState st;
  st.build(model, x);
  // Every flip strictly reduces one row's violation, but can re-violate a
  // linked row (dropping an x_{i,j} step breaks its act_lb support row until
  // the a_i activation is dropped too), so the scan restarts until a full
  // pass is clean. The flip budget bounds pathological cascades.
  const long max_flips = 2L * model.num_columns() + 16;
  long flips = 0;
  bool dirty = true;
  while (dirty) {
    dirty = false;
    for (int i = 0; i < model.num_rows(); ++i) {
      const lp::Row& row = model.row(i);
      while (!st.row_ok(row, st.act[static_cast<std::size_t>(i)])) {
        if (flips >= max_flips) return false;
        const double a = st.act[static_cast<std::size_t>(i)];
        const bool need_down =
            row.type == lp::RowType::kLe ||
            (row.type == lp::RowType::kEq && a > row.rhs);
        // Candidate flip moving this row's activity the right way: prefer the
        // lowest-gain one so the objective sheds as little as possible.
        int pick = -1;
        double pick_delta = 0.0;
        double pick_gain = 0.0;
        for (const lp::RowEntry& e : row.entries) {
          if (!st.is01[static_cast<std::size_t>(e.column)]) continue;
          double delta = 0.0;
          if (need_down) {
            if (e.coeff > FillState::kTol && st.at(e.column, 1.0)) delta = -1.0;
            else if (e.coeff < -FillState::kTol && st.at(e.column, 0.0)) delta = 1.0;
          } else {
            if (e.coeff > FillState::kTol && st.at(e.column, 0.0)) delta = 1.0;
            else if (e.coeff < -FillState::kTol && st.at(e.column, 1.0)) delta = -1.0;
          }
          if (delta == 0.0) continue;
          const double g = delta * st.gain[static_cast<std::size_t>(e.column)];
          if (pick < 0 || g < pick_gain) {
            pick = e.column;
            pick_delta = delta;
            pick_gain = g;
          }
        }
        if (pick < 0) return false;  // row has no 0/1 lever (continuous-driven)
        st.apply(pick, pick_delta);
        ++flips;
        dirty = true;
      }
    }
  }
  return true;  // the last scan was clean: every row is satisfied
}

}  // namespace insched::mip
