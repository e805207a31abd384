#include "insched/lp/tolerances.hpp"
#include "insched/mip/resolve.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "insched/support/log.hpp"

namespace insched::mip {

namespace {

constexpr double kCoeffTol = lp::tol::kCoeffTol;

/// Identity mapping between two index spaces keyed by (name, occurrence):
/// the k-th new item named N maps to the k-th old item named N. Handles
/// duplicate names (unnamed big-M rows, repeated cut-family row names) and
/// insertions/removals anywhere; returns -1 for new items with no old
/// counterpart.
template <typename GetOldName, typename GetNewName>
std::vector<int> map_by_name(int old_count, int new_count, GetOldName&& old_name,
                             GetNewName&& new_name) {
  std::unordered_map<std::string, std::vector<int>> pool;
  for (int i = 0; i < old_count; ++i) pool[old_name(i)].push_back(i);
  std::unordered_map<std::string, std::size_t> cursor;
  std::vector<int> map(static_cast<std::size_t>(new_count), -1);
  for (int i = 0; i < new_count; ++i) {
    const auto it = pool.find(new_name(i));
    if (it == pool.end()) continue;
    std::size_t& c = cursor[it->first];
    if (c < it->second.size()) map[static_cast<std::size_t>(i)] = it->second[c++];
  }
  return map;
}

bool entries_equal(const std::vector<lp::RowEntry>& a, const std::vector<lp::RowEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].column != b[k].column) return false;
    if (std::fabs(a[k].coeff - b[k].coeff) > kCoeffTol * (1.0 + std::fabs(a[k].coeff)))
      return false;
  }
  return true;
}

/// True when old and new model have identical constraint data (bounds,
/// types, rows); the objective may differ freely — no valid inequality
/// depends on it.
bool constraints_identical(const lp::Model& a, const lp::Model& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) return false;
  for (int j = 0; j < a.num_columns(); ++j) {
    const lp::Column& ca = a.column(j);
    const lp::Column& cb = b.column(j);
    if (ca.type != cb.type || ca.lower != cb.lower || ca.upper != cb.upper) return false;
  }
  for (int i = 0; i < a.num_rows(); ++i) {
    const lp::Row& ra = a.row(i);
    const lp::Row& rb = b.row(i);
    if (ra.type != rb.type) return false;
    if (std::fabs(ra.rhs - rb.rhs) > kCoeffTol * (1.0 + std::fabs(ra.rhs))) return false;
    if (!entries_equal(ra.entries, rb.entries)) return false;
  }
  return true;
}

/// All-ones <= cut (plain cover, clique, cardinality MIR): every coefficient
/// is 1 and the rhs is a nonnegative integer cardinality bound.
bool is_all_ones_le(const Cut& cut) {
  if (cut.type != lp::RowType::kLe) return false;
  if (cut.rhs < -kCoeffTol) return false;
  for (const lp::RowEntry& e : cut.entries)
    if (std::fabs(e.coeff - 1.0) > kCoeffTol) return false;
  return true;
}

/// Tightest provable cardinality bound for an all-ones cut over the 0-1
/// columns in `entries` against the *new* model, or -1 when nothing stronger
/// than the trivial |S| bound can be certified. For each <= row with only
/// nonnegative coefficients over columns bounded below by 0, the largest
/// prefix p of S's sorted coefficients with sum <= rhs certifies that any
/// p+1 members of S at 1 already violate the row (every other term
/// contributes >= 0), so sum_{j in S} x_j <= p is valid; the minimum over
/// rows is the strongest repair. A minimal cover whose margin survived the
/// perturbation repairs to its original rhs; one whose margin eroded repairs
/// to a weaker-but-valid bound instead of being thrown away.
int repaired_cardinality_bound(const lp::Model& model,
                               const std::vector<lp::RowEntry>& entries) {
  const int size = static_cast<int>(entries.size());
  for (const lp::RowEntry& e : entries) {
    // The counting argument needs members to land on {0, 1} at any integer
    // feasible point.
    const lp::Column& col = model.column(e.column);
    if (col.type == lp::VarType::kContinuous || col.lower < -kCoeffTol ||
        col.upper > 1.0 + kCoeffTol)
      return -1;
  }
  std::vector<char> in_set(static_cast<std::size_t>(model.num_columns()), 0);
  for (const lp::RowEntry& e : entries) in_set[static_cast<std::size_t>(e.column)] = 1;
  int best = size;  // trivial bound: the whole of S at 1
  std::vector<double> matched;
  for (int i = 0; i < model.num_rows() && best > 0; ++i) {
    const lp::Row& row = model.row(i);
    if (row.type != lp::RowType::kLe) continue;
    // One pass: eligibility + the coefficients of S's columns in this row.
    // S columns absent from the row count as coefficient 0, so a row whose
    // zero count alone reaches the running best can be skipped outright —
    // this is what keeps the scan O(nnz) on models with thousands of narrow
    // interval-window rows.
    bool eligible = true;
    matched.clear();
    for (const lp::RowEntry& e : row.entries) {
      if (e.coeff < 0.0 || model.column(e.column).lower < 0.0) {
        eligible = false;
        break;
      }
      if (in_set[static_cast<std::size_t>(e.column)]) matched.push_back(e.coeff);
    }
    if (!eligible || matched.empty()) continue;
    const int zeros = size - static_cast<int>(matched.size());
    if (zeros >= best) continue;
    std::sort(matched.begin(), matched.end());
    const double tol = lp::tol::kFeasTol * (1.0 + std::fabs(row.rhs));
    double sum = 0.0;
    int p = zeros;
    for (const double c : matched) {
      if (p >= size || sum + c > row.rhs + tol) break;
      sum += c;
      ++p;
    }
    best = std::min(best, p);
  }
  return best < size ? best : -1;
}

/// Nonbasic resting status for a variable of the extended model: structural
/// columns rest on a finite bound, slacks on the bound their row type
/// allows. Used both for fresh columns and for demoting stale basics.
lp::BasisStatus nonbasic_status(const lp::Model& extended, int var) {
  const int n = extended.num_columns();
  if (var < n) {
    const lp::Column& c = extended.column(var);
    if (std::isfinite(c.lower)) return lp::BasisStatus::kAtLower;
    if (std::isfinite(c.upper)) return lp::BasisStatus::kAtUpper;
    return lp::BasisStatus::kFree;
  }
  // Slack bounds by row type: kLe -> [0, inf), kGe -> (-inf, 0], kEq -> {0}.
  const lp::Row& row = extended.row(var - n);
  return row.type == lp::RowType::kGe ? lp::BasisStatus::kAtUpper
                                      : lp::BasisStatus::kAtLower;
}

}  // namespace

MipResult ReSolveContext::run_cold(const lp::Model& model, MipOptions options) {
  options.use_presolve = false;
  options.use_probing = false;
  options.incumbent_hint.clear();
  MipResult res = solve_mip(model, options);
  capture(model, res);
  return res;
}

void ReSolveContext::capture(const lp::Model& model, const MipResult& result) {
  if (!result.snapshot) return;
  snapshot_ = result.snapshot;
  base_model_ = model;
  if (result.has_solution) {
    incumbent_ = result.x;
    has_incumbent_ = true;
  }
}

MipResult ReSolveContext::solve(const lp::Model& model, MipOptions options) {
  ++counters_.cold_solves;
  return run_cold(model, std::move(options));
}

MipResult ReSolveContext::resolve(const lp::Model& model, MipOptions options) {
  if (!snapshot_ || snapshot_->cut_basis.empty()) {
    ++counters_.cold_solves;
    return run_cold(model, std::move(options));
  }
  const MipSnapshot& art = *snapshot_;
  const lp::Model& old_model = base_model_;
  const int n_old = old_model.num_columns();
  const int n_new = model.num_columns();

  // --- Identity diff: columns and base rows by (name, occurrence) --------
  const std::vector<int> col_map = map_by_name(
      n_old, n_new, [&](int j) { return old_model.column(j).name; },
      [&](int j) { return model.column(j).name; });
  std::vector<int> old_to_new_col(static_cast<std::size_t>(n_old), -1);
  for (int j = 0; j < n_new; ++j) {
    if (col_map[static_cast<std::size_t>(j)] >= 0)
      old_to_new_col[static_cast<std::size_t>(col_map[static_cast<std::size_t>(j)])] = j;
    else
      ++counters_.columns_new;
  }
  const std::vector<int> row_map = map_by_name(
      old_model.num_rows(), model.num_rows(),
      [&](int i) { return old_model.row(i).name; },
      [&](int i) { return model.row(i).name; });
  std::vector<int> old_to_new_row(static_cast<std::size_t>(old_model.num_rows()), -1);
  for (int i = 0; i < model.num_rows(); ++i)
    if (row_map[static_cast<std::size_t>(i)] >= 0)
      old_to_new_row[static_cast<std::size_t>(row_map[static_cast<std::size_t>(i)])] = i;

  // --- Cut re-validation: re-inject instead of re-separate ----------------
  const bool frozen = constraints_identical(old_model, model);
  std::vector<Cut> surviving;           // entries remapped to new column space
  std::vector<int> surviving_old_slot;  // index into art.cuts per survivor
  long dropped = 0;
  for (std::size_t c = 0; c < art.cuts.size(); ++c) {
    const Cut& cut = art.cuts[c];
    Cut mapped = cut;
    bool ok = true;
    for (lp::RowEntry& e : mapped.entries) {
      const int nj = e.column >= 0 && e.column < n_old
                         ? old_to_new_col[static_cast<std::size_t>(e.column)]
                         : -1;
      if (nj < 0) {
        ok = false;  // references a removed column: inexpressible, drop
        break;
      }
      e.column = nj;
    }
    if (ok && !frozen) {
      // Constraint data changed: only all-ones cardinality cuts carry a
      // cheap validity certificate; general-coefficient cuts (lifted
      // covers, Gomory, fractional MIR) are derived from the *old*
      // coefficients and must be dropped. All-ones cuts are *repaired*
      // rather than re-checked: the rhs becomes the tightest cardinality
      // the new rows still prove, which equals the old rhs when the
      // perturbation left the cover margin intact and weakens gracefully
      // when it did not.
      ok = false;
      if (is_all_ones_le(mapped)) {
        const int k = repaired_cardinality_bound(model, mapped.entries);
        if (k >= 0) {
          if (k != static_cast<int>(std::floor(mapped.rhs + lp::tol::kCoeffTol)))
            ++counters_.cuts_repaired;
          mapped.rhs = k;
          ok = true;
        }
      }
    }
    if (!ok) {
      ++dropped;
      continue;
    }
    std::sort(mapped.entries.begin(), mapped.entries.end(),
              [](const lp::RowEntry& a, const lp::RowEntry& b) { return a.column < b.column; });
    surviving.push_back(std::move(mapped));
    surviving_old_slot.push_back(static_cast<int>(c));
  }
  counters_.cuts_reused += static_cast<long>(surviving.size());
  counters_.cuts_dropped += dropped;

  // --- Extended model: new model + surviving cut rows ---------------------
  lp::Model extended = model;
  for (const Cut& cut : surviving)
    extended.add_row(cut_family_name(cut.family), cut.type, cut.rhs, cut.entries);
  const int m_new = extended.num_rows();

  // --- Basis repair --------------------------------------------------------
  // Old basis space: n_old structural + (art.rows + art.cuts.size())
  // slacks. New space: n_new structural + m_new slacks, where the first
  // model.num_rows() rows map by identity diff and the appended cut rows map
  // through surviving_old_slot. Mapped variables keep their status, new
  // columns rest nonbasic on a bound, new rows promote their own slack
  // (extend-with-slacks), and any stale basic that lost its row or its
  // variable is demoted/replaced by the row's slack. The result is
  // structurally consistent or discarded — the engine's crash/cold paths
  // remain as fallback either way.
  const int old_rows_total = art.rows + static_cast<int>(art.cuts.size());
  lp::Basis repaired;
  bool basis_ok = art.cut_basis.rows() == old_rows_total &&
                  art.cut_basis.variables() == n_old + old_rows_total;
  if (basis_ok) {
    // new extended row -> old extended row
    std::vector<int> xrow_map(static_cast<std::size_t>(m_new), -1);
    for (int i = 0; i < model.num_rows(); ++i)
      xrow_map[static_cast<std::size_t>(i)] = row_map[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < surviving.size(); ++s)
      xrow_map[static_cast<std::size_t>(model.num_rows()) + s] =
          art.rows + surviving_old_slot[s];
    // old extended variable -> new extended variable
    std::vector<int> old_to_new_xrow(static_cast<std::size_t>(old_rows_total), -1);
    for (int i = 0; i < m_new; ++i)
      if (xrow_map[static_cast<std::size_t>(i)] >= 0)
        old_to_new_xrow[static_cast<std::size_t>(xrow_map[static_cast<std::size_t>(i)])] = i;
    const auto map_var = [&](int old_var) -> int {
      if (old_var < 0) return -1;
      if (old_var < n_old) return old_to_new_col[static_cast<std::size_t>(old_var)];
      const int r = old_var - n_old;
      if (r >= old_rows_total) return -1;
      const int nr = old_to_new_xrow[static_cast<std::size_t>(r)];
      return nr < 0 ? -1 : n_new + nr;
    };

    repaired.status.assign(static_cast<std::size_t>(n_new + m_new),
                           lp::BasisStatus::kAtLower);
    repaired.basic.assign(static_cast<std::size_t>(m_new), -1);
    // Nonbasic statuses carry over wherever the variable still exists.
    for (int v = 0; v < n_old + old_rows_total; ++v) {
      const int nv = map_var(v);
      if (nv < 0) continue;
      const lp::BasisStatus st = art.cut_basis.status[static_cast<std::size_t>(v)];
      repaired.status[static_cast<std::size_t>(nv)] =
          st == lp::BasisStatus::kBasic ? nonbasic_status(extended, nv) : st;
    }
    for (int v = 0; v < n_new + m_new; ++v) {
      // Bound flips for fresh columns and for statuses the new bounds no
      // longer admit (e.g. kAtUpper against an infinite upper bound).
      const lp::BasisStatus st = repaired.status[static_cast<std::size_t>(v)];
      const lp::BasisStatus fallback = nonbasic_status(extended, v);
      if (v < n_new) {
        const lp::Column& cnew = extended.column(v);
        if ((st == lp::BasisStatus::kAtUpper && !std::isfinite(cnew.upper)) ||
            (st == lp::BasisStatus::kAtLower && !std::isfinite(cnew.lower)))
          repaired.status[static_cast<std::size_t>(v)] = fallback;
      }
    }
    // Basic variables row by row; collisions and lost variables fall back to
    // the row's own slack (slack promotion).
    std::vector<char> used(static_cast<std::size_t>(n_new + m_new), 0);
    for (int i = 0; i < m_new && basis_ok; ++i) {
      int bv = -1;
      const int oi = xrow_map[static_cast<std::size_t>(i)];
      if (oi >= 0) bv = map_var(art.cut_basis.basic[static_cast<std::size_t>(oi)]);
      if (bv < 0 || used[static_cast<std::size_t>(bv)]) {
        bv = n_new + i;  // promote this row's slack
        ++counters_.rows_slack_promoted;
      }
      if (used[static_cast<std::size_t>(bv)]) {
        basis_ok = false;  // slack already consumed by a mapped basic: bail
        break;
      }
      used[static_cast<std::size_t>(bv)] = 1;
      repaired.basic[static_cast<std::size_t>(i)] = bv;
      repaired.status[static_cast<std::size_t>(bv)] = lp::BasisStatus::kBasic;
    }
    // Demote stale basics that did not land in any row.
    if (basis_ok) {
      for (int v = 0; v < n_new + m_new; ++v) {
        if (!used[static_cast<std::size_t>(v)] &&
            repaired.status[static_cast<std::size_t>(v)] == lp::BasisStatus::kBasic)
          repaired.status[static_cast<std::size_t>(v)] = nonbasic_status(extended, v);
      }
      basis_ok = repaired.consistent();
    }
  }

  // --- Warm start: the repaired basis and the mapped pseudo-costs -------
  auto warm = std::make_shared<MipSnapshot>();
  warm->columns = n_new;
  warm->rows = m_new;
  if (basis_ok) {
    warm->root_basis = std::move(repaired);
    ++counters_.basis_mapped;
  } else {
    ++counters_.basis_skipped;
  }
  if (static_cast<int>(art.pseudo_costs.up_n.size()) == n_old && n_old > 0) {
    PseudoCostTable& pc = warm->pseudo_costs;
    pc.resize(n_new);
    for (int j = 0; j < n_old; ++j) {
      const int nj = old_to_new_col[static_cast<std::size_t>(j)];
      if (nj < 0) continue;
      pc.up_sum[static_cast<std::size_t>(nj)] = art.pseudo_costs.up_sum[static_cast<std::size_t>(j)];
      pc.down_sum[static_cast<std::size_t>(nj)] =
          art.pseudo_costs.down_sum[static_cast<std::size_t>(j)];
      pc.up_n[static_cast<std::size_t>(nj)] = art.pseudo_costs.up_n[static_cast<std::size_t>(j)];
      pc.down_n[static_cast<std::size_t>(nj)] =
          art.pseudo_costs.down_n[static_cast<std::size_t>(j)];
    }
  }

  // --- Warm solve ----------------------------------------------------------
  MipOptions inner = std::move(options);
  inner.use_presolve = false;
  inner.use_probing = false;
  inner.snapshot = std::move(warm);
  // Root re-separation is always skipped on the warm path — the reused pool
  // plus the incumbent hint close the root gap on a near-duplicate, and cuts
  // only accelerate the proof (exactness comes from the tree either way).
  // When the drop rate is high the perturbation genuinely moved the
  // polytope, so in-tree separation stays armed to rebuild the pool where
  // the weaker root bound actually hurts; tree restarts re-run the root
  // rounds if the search blows up.
  const bool cuts_stable =
      art.cuts.empty() || dropped * 4 <= static_cast<long>(art.cuts.size());
  inner.use_cover_cuts = false;
  inner.use_clique_cuts = false;
  inner.use_gomory_cuts = false;
  inner.use_mir_cuts = false;
  if (cuts_stable) inner.in_tree_cuts = false;
  if (has_incumbent_ && static_cast<int>(incumbent_.size()) == n_old) {
    std::vector<double> hint(static_cast<std::size_t>(n_new), 0.0);
    for (int j = 0; j < n_new; ++j) {
      const int oj = col_map[static_cast<std::size_t>(j)];
      const lp::Column& col = model.column(j);
      double v = oj >= 0 ? incumbent_[static_cast<std::size_t>(oj)] : 0.0;
      v = std::min(std::max(v, col.lower), col.upper);
      hint[static_cast<std::size_t>(j)] = v;
    }
    inner.incumbent_hint = std::move(hint);
    ++counters_.incumbent_seeded;
  }

  MipResult res = solve_mip(extended, inner);
  ++counters_.warm_resolves;

  // --- Advance the snapshot ------------------------------------------------
  // The fresh snapshot indexes the extended model (new rows + surviving cut
  // rows + cuts applied during this search); rebase it onto `model` so the
  // next resolve sees one flat cut list against the un-extended base.
  if (res.snapshot) {
    std::vector<Cut> all_cuts = surviving;
    all_cuts.insert(all_cuts.end(), res.snapshot->cuts.begin(), res.snapshot->cuts.end());
    res.snapshot->cuts = std::move(all_cuts);
    res.snapshot->rows = model.num_rows();
    // Its clean root basis spans the surviving cut rows too, so it no
    // longer fits a model of `rows` rows.
    if (!surviving.empty()) res.snapshot->root_basis = {};
    capture(model, res);
  }
  return res;
}

}  // namespace insched::mip
