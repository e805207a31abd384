#include "insched/mip/cuts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "insched/lp/factor.hpp"
#include "insched/lp/tolerances.hpp"

namespace insched::mip {
namespace {

constexpr double kEps = lp::tol::kCoeffTol;

double frac(double v) { return v - std::floor(v); }

bool binary_like(const lp::Column& c) {
  return c.type != lp::VarType::kContinuous && c.lower >= -lp::tol::kNormFloor && c.upper <= 1.0 + lp::tol::kNormFloor;
}

/// Profit-space knapsack DP used for exact sequential lifting: minw_[p] is
/// the minimum weight of an item subset with total profit exactly p.
class LiftingDp {
 public:
  void reset(double capacity_hint) {
    (void)capacity_hint;
    minw_.assign(1, 0.0);
  }
  void add_item(int profit, double weight) {
    const std::size_t old = minw_.size();
    minw_.resize(old + static_cast<std::size_t>(profit),
                 std::numeric_limits<double>::infinity());
    for (std::size_t p = minw_.size(); p-- > 0;) {
      if (p < static_cast<std::size_t>(profit)) break;
      const double via = minw_[p - static_cast<std::size_t>(profit)] + weight;
      if (via < minw_[p]) minw_[p] = via;
    }
  }
  [[nodiscard]] int max_profit(double capacity) const {
    int best = 0;
    for (std::size_t p = 0; p < minw_.size(); ++p)
      if (minw_[p] <= capacity + kEps) best = static_cast<int>(p);
    return best;
  }

 private:
  std::vector<double> minw_;
};

void finalize_entries(Cut& cut) {
  std::sort(cut.entries.begin(), cut.entries.end(),
            [](const lp::RowEntry& a, const lp::RowEntry& b) { return a.column < b.column; });
}

}  // namespace

const char* cut_family_name(CutFamily family) noexcept {
  switch (family) {
    case CutFamily::kCover: return "cover";
    case CutFamily::kLiftedCover: return "lifted_cover";
    case CutFamily::kClique: return "clique";
    case CutFamily::kGomory: return "gomory";
    case CutFamily::kMir: return "mir";
  }
  return "?";
}

std::vector<Cut> generate_mir_cuts(const lp::Model& model, const std::vector<double>& x,
                                   double min_violation, int max_cuts) {
  std::vector<Cut> cuts;
  std::vector<double> divisors;
  for (int i = 0; i < model.num_rows() && static_cast<int>(cuts.size()) < max_cuts; ++i) {
    const lp::Row& row = model.row(i);
    if (row.type != lp::RowType::kLe || row.rhs < 0.0) continue;
    bool knapsack = row.entries.size() >= 2;
    for (const lp::RowEntry& e : row.entries) {
      if (!binary_like(model.column(e.column)) || e.coeff <= 0.0) {
        knapsack = false;
        break;
      }
    }
    if (!knapsack) continue;

    // Divisor candidates: the row's largest distinct coefficients. Rounding
    // by one of the row's own weights is what turns a budget row with
    // near-equal costs into the cardinality bound the tree cannot infer.
    divisors.clear();
    for (const lp::RowEntry& e : row.entries) divisors.push_back(e.coeff);
    std::sort(divisors.begin(), divisors.end(), std::greater<>());
    divisors.erase(std::unique(divisors.begin(), divisors.end(),
                               [](double a, double b) { return std::fabs(a - b) <= lp::tol::kCoeffTol; }),
                   divisors.end());
    if (divisors.size() > 6) divisors.resize(6);

    Cut best;
    for (double d : divisors) {
      if (d <= kEps) continue;
      const double f0 = frac(row.rhs / d);
      if (f0 < lp::tol::kIntTol || f0 > 1.0 - lp::tol::kIntTol) continue;  // degenerate: cut == scaled row
      Cut cut;
      cut.type = lp::RowType::kLe;
      cut.family = CutFamily::kMir;
      cut.rhs = std::floor(row.rhs / d);
      double lhs = 0.0;
      for (const lp::RowEntry& e : row.entries) {
        const double q = e.coeff / d;
        const double fj = frac(q);
        double coeff = std::floor(q);
        if (fj > f0) coeff += (fj - f0) / (1.0 - f0);
        if (coeff <= kEps) continue;
        cut.entries.push_back({e.column, coeff});
        lhs += coeff * x[static_cast<std::size_t>(e.column)];
      }
      cut.violation = lhs - cut.rhs;
      if (cut.entries.empty() || cut.violation <= min_violation) continue;
      if (cut.violation > best.violation) best = std::move(cut);
    }
    if (!best.entries.empty()) {
      finalize_entries(best);
      cuts.push_back(std::move(best));
    }
  }
  return cuts;
}

std::vector<Cut> generate_cover_cuts(const lp::Model& model, const std::vector<double>& x,
                                     double min_violation) {
  std::vector<Cut> cuts;
  std::vector<int> order;
  std::vector<char> in_cover;
  LiftingDp dp;
  for (int i = 0; i < model.num_rows(); ++i) {
    const lp::Row& row = model.row(i);
    if (row.type != lp::RowType::kLe) continue;

    // Candidate knapsack: all entries binary with positive coefficients.
    bool knapsack = !row.entries.empty();
    for (const lp::RowEntry& e : row.entries) {
      if (!binary_like(model.column(e.column)) || e.coeff <= 0.0) {
        knapsack = false;
        break;
      }
    }
    if (!knapsack || row.rhs < 0.0) continue;
    const auto coeff = [&](int idx) {
      return row.entries[static_cast<std::size_t>(idx)].coeff;
    };
    const auto value = [&](int idx) {
      return x[static_cast<std::size_t>(row.entries[static_cast<std::size_t>(idx)].column)];
    };

    // Greedy minimal cover: add items by descending LP value until the
    // coefficient sum exceeds the rhs. Everything below works with entry
    // indices so coefficient lookups are O(1) instead of rescanning the row.
    order.resize(row.entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return value(a) > value(b); });
    double weight = 0.0;
    std::vector<int> cover;  // entry indices
    for (int idx : order) {
      cover.push_back(idx);
      weight += coeff(idx);
      if (weight > row.rhs + kEps) break;
    }
    if (weight <= row.rhs + kEps) continue;  // row can never bind: no cover

    // Minimalize: drop items that keep the cover property, lightest first.
    std::sort(cover.begin(), cover.end(), [&](int a, int b) { return coeff(a) < coeff(b); });
    for (std::size_t k = 0; k < cover.size();) {
      if (weight - coeff(cover[k]) > row.rhs + kEps) {
        weight -= coeff(cover[k]);
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
    const std::size_t r = cover.size();
    if (r < 2) continue;

    Cut cut;
    cut.type = lp::RowType::kLe;
    cut.rhs = static_cast<double>(r) - 1.0;
    double lhs = 0.0;
    in_cover.assign(row.entries.size(), 0);
    for (int idx : cover) {
      in_cover[static_cast<std::size_t>(idx)] = 1;
      cut.entries.push_back(
          lp::RowEntry{row.entries[static_cast<std::size_t>(idx)].column, 1.0});
      lhs += value(idx);
    }

    // Exact sequential lifting of variables outside the cover. A variable
    // only gets a positive coefficient when setting it to 1 displaces at
    // least two cover items, i.e. a_j > rhs - (weight of the r-1 lightest
    // cover items); candidates are processed heaviest-first and each
    // lifted item joins the DP so later coefficients stay exact.
    double prefix_all_but_heaviest = 0.0;  // cover sorted ascending already
    for (std::size_t k = 0; k + 1 < r; ++k) prefix_all_but_heaviest += coeff(cover[k]);
    std::vector<int> outside;
    for (std::size_t idx = 0; idx < row.entries.size(); ++idx) {
      if (in_cover[idx]) continue;
      if (coeff(static_cast<int>(idx)) > row.rhs - prefix_all_but_heaviest + kEps)
        outside.push_back(static_cast<int>(idx));
    }
    if (!outside.empty()) {
      std::sort(outside.begin(), outside.end(),
                [&](int a, int b) { return coeff(a) > coeff(b); });
      constexpr std::size_t kMaxLifted = 32;
      if (outside.size() > kMaxLifted) outside.resize(kMaxLifted);
      dp.reset(row.rhs);
      for (int idx : cover) dp.add_item(1, coeff(idx));
      for (int idx : outside) {
        const double cap = row.rhs - coeff(idx);
        const int alpha =
            static_cast<int>(r) - 1 - (cap < -kEps ? 0 : dp.max_profit(cap));
        if (alpha <= 0) continue;
        // cap < 0 means x_j = 1 is infeasible for the row on its own; the
        // strongest valid coefficient is then rhs of the cut itself.
        const int a = cap < -kEps ? static_cast<int>(r) - 1 : alpha;
        cut.entries.push_back(
            lp::RowEntry{row.entries[static_cast<std::size_t>(idx)].column,
                         static_cast<double>(a)});
        lhs += static_cast<double>(a) * value(idx);
        cut.family = CutFamily::kLiftedCover;
        dp.add_item(a, coeff(idx));
      }
    }

    cut.violation = lhs - cut.rhs;
    if (cut.violation < min_violation) continue;
    finalize_entries(cut);
    cuts.push_back(std::move(cut));
  }
  std::sort(cuts.begin(), cuts.end(),
            [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
  return cuts;
}

std::vector<Cut> generate_clique_cuts(const lp::Model& model, const std::vector<double>& x,
                                      const ConflictGraph& conflicts, double min_violation,
                                      int max_cuts) {
  std::vector<Cut> cuts;
  if (conflicts.empty()) return cuts;
  const int n = std::min(model.num_columns(), conflicts.columns());
  std::vector<int> cand;
  for (int j = 0; j < n; ++j) {
    if (x[static_cast<std::size_t>(j)] <= lp::tol::kCutSupportTol) continue;
    if (!binary_like(model.column(j))) continue;
    if (!conflicts.has_conflicts(j)) continue;
    cand.push_back(j);
  }
  std::sort(cand.begin(), cand.end(), [&](int a, int b) {
    const double xa = x[static_cast<std::size_t>(a)];
    const double xb = x[static_cast<std::size_t>(b)];
    return xa != xb ? xa > xb : a < b;
  });
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  std::vector<int> clique;
  for (const int seed : cand) {
    if (used[static_cast<std::size_t>(seed)]) continue;
    clique.assign(1, seed);
    double sum = x[static_cast<std::size_t>(seed)];
    for (const int k : cand) {
      if (k == seed) continue;
      bool ok = true;
      for (const int c : clique) {
        if (!conflicts.adjacent(k, c)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      clique.push_back(k);
      sum += x[static_cast<std::size_t>(k)];
    }
    if (clique.size() < 2 || sum - 1.0 < min_violation) continue;
    Cut cut;
    cut.type = lp::RowType::kLe;
    cut.family = CutFamily::kClique;
    cut.rhs = 1.0;
    cut.violation = sum - 1.0;
    for (const int c : clique) {
      cut.entries.push_back(lp::RowEntry{c, 1.0});
      used[static_cast<std::size_t>(c)] = 1;
    }
    finalize_entries(cut);
    cuts.push_back(std::move(cut));
    if (static_cast<int>(cuts.size()) >= max_cuts) break;
  }
  std::sort(cuts.begin(), cuts.end(),
            [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
  return cuts;
}

std::vector<Cut> generate_gomory_cuts(const lp::Model& model, const std::vector<double>& x,
                                      const lp::Basis& basis,
                                      const lp::Factorization* factor_hint, int max_cuts,
                                      double min_violation, long* btrans) {
  std::vector<Cut> cuts;
  const int n = model.num_columns();
  const int m = model.num_rows();
  if (m == 0 || basis.rows() != m || basis.variables() != n + m ||
      static_cast<int>(x.size()) != n)
    return cuts;

  // Structural columns as sparse (row, coeff) lists; also used to rebuild the
  // basis matrix when no factorization snapshot is supplied.
  std::vector<std::vector<lp::LuEntry>> cols(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    for (const lp::RowEntry& e : model.row(i).entries)
      cols[static_cast<std::size_t>(e.column)].push_back(lp::LuEntry{i, e.coeff});
  }

  lp::LuFactors lu;
  if (factor_hint != nullptr && factor_hint->rows() == m) {
    lu.load(*factor_hint);
  } else {
    std::vector<std::vector<lp::LuEntry>> basis_cols(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      const int var = basis.basic[static_cast<std::size_t>(i)];
      if (var < 0 || var >= n + m) return cuts;
      if (var < n)
        basis_cols[static_cast<std::size_t>(i)] = cols[static_cast<std::size_t>(var)];
      else
        basis_cols[static_cast<std::size_t>(i)].push_back(lp::LuEntry{var - n, 1.0});
    }
    if (!lu.factorize(basis_cols, lp::tol::kLuPivotFloor)) return cuts;
  }

  // Candidate rows: integer structural variables basic at fractional values,
  // most fractional first.
  struct Candidate {
    int pos;
    int column;
    double dist;  // distance of frac to 1/2 (smaller = better)
  };
  std::vector<Candidate> candidates;
  for (int p = 0; p < m; ++p) {
    const int var = basis.basic[static_cast<std::size_t>(p)];
    if (var < 0 || var >= n) continue;
    if (model.column(var).type == lp::VarType::kContinuous) continue;
    const double f = frac(x[static_cast<std::size_t>(var)]);
    if (f < 0.01 || f > 0.99) continue;
    candidates.push_back(Candidate{p, var, std::fabs(f - 0.5)});
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.pos < b.pos;
  });

  lp::SparseVec br;
  std::vector<double> alpha(static_cast<std::size_t>(n), 0.0);
  std::vector<int> alpha_nz;
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  std::vector<int> d_nz;
  for (const Candidate& cand : candidates) {
    if (static_cast<int>(cuts.size()) >= max_cuts) break;
    // One BTRAN: br = e_pos B^-1, i.e. row `pos` of the basis inverse.
    br.resize(m);
    br.add(cand.pos, 1.0);
    lu.btran(&br);
    if (btrans) ++(*btrans);

    // Tableau row over structural columns: alpha_j = br . A_j, accumulated
    // row-wise over the nonzeros of br (hyper-sparse on staircase models).
    for (const int j : alpha_nz) alpha[static_cast<std::size_t>(j)] = 0.0;
    alpha_nz.clear();
    for (const int i : br.nz) {
      const double w = br.values[static_cast<std::size_t>(i)];
      if (w == 0.0) continue;
      for (const lp::RowEntry& e : model.row(i).entries) {
        const auto j = static_cast<std::size_t>(e.column);
        if (alpha[j] == 0.0) alpha_nz.push_back(e.column);
        alpha[j] += w * e.coeff;
      }
    }

    const double xb = x[static_cast<std::size_t>(cand.column)];
    const double f0 = frac(xb);
    bool reliable = true;

    // GMI in the shifted nonbasic space: each nonbasic variable measured
    // from the bound it sits at (s >= 0), coefficient t = +alpha at lower,
    // -alpha at upper. Accumulate the cut directly in structural space.
    for (const int j : d_nz) d[static_cast<std::size_t>(j)] = 0.0;
    d_nz.clear();
    double rhs = 1.0;  // cut: sum gamma_k s_k >= 1
    const auto add_d = [&](int j, double v) {
      if (v == 0.0) return;
      const auto js = static_cast<std::size_t>(j);
      if (d[js] == 0.0) d_nz.push_back(j);
      d[js] += v;
    };
    const auto gamma_of = [&](double t, bool integral) {
      if (integral) {
        const double ft = frac(t);
        return ft <= f0 + lp::tol::kTieTol ? ft / f0 : (1.0 - ft) / (1.0 - f0);
      }
      return t >= 0.0 ? t / f0 : -t / (1.0 - f0);
    };

    // Structural nonbasics. Each alpha slot is zeroed as it is consumed so
    // duplicate positions in alpha_nz (cancel-then-refill churn) are inert.
    for (const int j : alpha_nz) {
      const double a = alpha[static_cast<std::size_t>(j)];
      alpha[static_cast<std::size_t>(j)] = 0.0;
      if (std::fabs(a) < lp::tol::kDropCoeffTol) continue;
      const lp::BasisStatus st = basis.status[static_cast<std::size_t>(j)];
      if (st == lp::BasisStatus::kBasic) {
        if (j != cand.column && std::fabs(a) > lp::tol::kResidualTol) {
          reliable = false;  // tableau row should be e_j on other basics
          break;
        }
        continue;
      }
      const lp::Column& c = model.column(j);
      if (c.upper - c.lower <= lp::tol::kNormFloor) continue;  // fixed: shifted var is 0
      if (st == lp::BasisStatus::kFree) {
        reliable = false;  // free nonbasic: no single-signed shift exists
        break;
      }
      const bool at_lower = st == lp::BasisStatus::kAtLower;
      if (at_lower && !std::isfinite(c.lower)) {
        reliable = false;
        break;
      }
      if (!at_lower && !std::isfinite(c.upper)) {
        reliable = false;
        break;
      }
      const double t = at_lower ? a : -a;
      const double g = gamma_of(t, c.type != lp::VarType::kContinuous);
      if (g == 0.0) continue;
      // s = x_j - l  (at lower)  or  s = u - x_j  (at upper).
      if (at_lower) {
        add_d(j, g);
        rhs += g * c.lower;
      } else {
        add_d(j, -g);
        rhs -= g * c.upper;
      }
    }
    if (!reliable) continue;

    // Slack nonbasics: alpha_slack_i = br_i; slack_i = rhs_i - a_i . x with
    // bounds [0, inf) (Le), (-inf, 0] (Ge) or fixed 0 (Eq).
    for (const int i : br.nz) {
      const double a = br.values[static_cast<std::size_t>(i)];
      if (std::fabs(a) < lp::tol::kDropCoeffTol) continue;
      const int var = n + i;
      const lp::BasisStatus st = basis.status[static_cast<std::size_t>(var)];
      if (st == lp::BasisStatus::kBasic) {
        if (basis.basic[static_cast<std::size_t>(cand.pos)] != var && std::fabs(a) > lp::tol::kResidualTol) {
          // a basic slack with tableau residue: numerically suspect row
          reliable = false;
          break;
        }
        continue;
      }
      const lp::Row& row = model.row(i);
      if (row.type == lp::RowType::kEq) continue;  // slack fixed at 0
      const bool at_lower = row.type == lp::RowType::kLe;  // Le rests at 0=lower
      if (st == lp::BasisStatus::kFree || at_lower != (st == lp::BasisStatus::kAtLower)) {
        // A Le slack can only be nonbasic at its finite bound 0 (= lower);
        // a Ge slack at its upper 0. Anything else is inconsistent.
        reliable = false;
        break;
      }
      const double t = at_lower ? a : -a;
      const double g = gamma_of(t, false);
      if (g == 0.0) continue;
      // s = slack (Le, at lower 0): g * (rhs_i - a_i.x)
      // s = -slack (Ge, at upper 0): g * (a_i.x - rhs_i)
      const double sign = at_lower ? -1.0 : 1.0;
      for (const lp::RowEntry& e : row.entries) add_d(e.column, sign * g * e.coeff);
      rhs += at_lower ? -g * row.rhs : g * row.rhs;
    }
    if (!reliable) continue;

    // Assemble, clean tiny coefficients conservatively, and scale.
    Cut cut;
    cut.type = lp::RowType::kGe;
    cut.family = CutFamily::kGomory;
    double maxabs = 0.0;
    for (const int j : d_nz)
      maxabs = std::max(maxabs, std::fabs(d[static_cast<std::size_t>(j)]));
    if (maxabs < lp::tol::kCoeffTol || maxabs > 1e9) continue;
    const double drop_below = std::max(lp::tol::kDropCoeffTol, lp::tol::kDropCoeffRel * maxabs);
    bool ok = true;
    double minabs = maxabs;
    for (const int j : d_nz) {
      // Consume-and-zero so duplicate positions in d_nz are inert.
      const double v = d[static_cast<std::size_t>(j)];
      d[static_cast<std::size_t>(j)] = 0.0;
      if (v == 0.0) continue;
      if (std::fabs(v) < drop_below) {
        // Dropping v * x_j from the >= left-hand side is safe after
        // relaxing the rhs by the term's maximum over the box.
        const lp::Column& c = model.column(j);
        if (!std::isfinite(c.lower) || !std::isfinite(c.upper)) {
          ok = false;
          break;
        }
        rhs -= std::max(v * c.lower, v * c.upper);
        continue;
      }
      minabs = std::min(minabs, std::fabs(v));
      cut.entries.push_back(lp::RowEntry{j, v});
    }
    if (!ok || cut.entries.empty() || maxabs / minabs > 1e7) continue;
    const double scale = 1.0 / maxabs;
    for (lp::RowEntry& e : cut.entries) e.coeff *= scale;
    cut.rhs = rhs * scale;
    double lhs = 0.0;
    for (const lp::RowEntry& e : cut.entries)
      lhs += e.coeff * x[static_cast<std::size_t>(e.column)];
    cut.violation = cut.rhs - lhs;
    if (cut.violation < min_violation) continue;
    finalize_entries(cut);
    cuts.push_back(std::move(cut));
  }
  std::sort(cuts.begin(), cuts.end(),
            [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
  return cuts;
}

}  // namespace insched::mip
