#include "insched/lp/factor.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "insched/support/fault_inject.hpp"
#include "insched/support/simd.hpp"

namespace insched::lp {

long LuCore::nnz() const noexcept {
  long n = m;  // diagonal
  for (const auto& c : lcols) n += static_cast<long>(c.size());
  for (const auto& r : urows) n += static_cast<long>(r.size());
  return n;
}

std::size_t LuCore::bytes() const noexcept {
  std::size_t b = sizeof(LuCore);
  b += (pr.capacity() + pc.capacity() + rowstep.capacity() + colstep.capacity()) * sizeof(int);
  b += diag.capacity() * sizeof(double);
  for (const auto& c : lcols) b += sizeof(c) + c.capacity() * sizeof(LuEntry);
  for (const auto& r : urows) b += sizeof(r) + r.capacity() * sizeof(LuEntry);
  return b;
}

std::size_t Factorization::bytes() const noexcept {
  std::size_t b = sizeof(Factorization);
  if (core) b += core->bytes();
  for (const EtaVector& e : etas) b += e.bytes();
  return b;
}

namespace {

/// Input density (nonzeros / m) at or above which FTRAN/BTRAN switch from
/// the hyper-sparse kernels to the dense-mode ones (docs/FORMULATION.md).
constexpr double kDenseSolveThreshold = 0.2;

// Working state of one elimination. The active submatrix lives row-wise in
// `rows`; `colrows` is an append-only (possibly stale) column-to-rows index
// validated against the exact `col_count` during scans.
struct Elimination {
  int m;
  std::vector<std::vector<LuEntry>> rows;  // rows[i]: (basis position, value)
  std::vector<std::vector<int>> colrows;   // colrows[j]: candidate row ids
  std::vector<int> row_count, col_count;
  std::vector<char> row_active, col_active;
  std::vector<int> col_single, row_single;  // pending singleton candidates
  std::vector<int> wpos;                    // scatter: column -> index+1 in a row

  explicit Elimination(int m_) : m(m_) {
    rows.resize(static_cast<std::size_t>(m));
    colrows.resize(static_cast<std::size_t>(m));
    row_count.assign(static_cast<std::size_t>(m), 0);
    col_count.assign(static_cast<std::size_t>(m), 0);
    row_active.assign(static_cast<std::size_t>(m), 1);
    col_active.assign(static_cast<std::size_t>(m), 1);
    wpos.assign(static_cast<std::size_t>(m), 0);
  }

  // Position of column j in rows[i], or -1.
  [[nodiscard]] int find(int i, int j) const {
    const auto& r = rows[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < r.size(); ++k)
      if (r[k].index == j) return static_cast<int>(k);
    return -1;
  }

  void note_col_count(int j) {
    if (col_count[static_cast<std::size_t>(j)] == 1) col_single.push_back(j);
  }
  void note_row_count(int i) {
    if (row_count[static_cast<std::size_t>(i)] == 1) row_single.push_back(i);
  }
};

// Injected solve corruption: scaling the largest entry far past the drift
// tolerance guarantees the downstream detection layer (residual checks in
// simplex.cpp, br*B = e_r proof validation) can observe the fault.
void corrupt_solution(SparseVec* x) {
  if (x->nz.empty()) {
    x->add(0, 1.0);
    return;
  }
  int worst = x->nz.front();
  for (const int i : x->nz)
    if (std::fabs(x->values[static_cast<std::size_t>(i)]) >
        std::fabs(x->values[static_cast<std::size_t>(worst)]))
      worst = i;
  x->values[static_cast<std::size_t>(worst)] *= 64.0;
}

}  // namespace

bool LuFactors::factorize(const std::vector<std::vector<LuEntry>>& basis_cols,
                          double pivot_tol, double tau, SingularInfo* singular) {
  const int m = static_cast<int>(basis_cols.size());
  if (singular != nullptr) {
    singular->rows.clear();
    singular->positions.clear();
  }
  if (fault::should_fail(fault::Hook::kLuFactorize)) {
    // Injected singularity: report every row/position as stuck so the
    // repair rung has the same information as a structurally rank-0 basis.
    if (singular != nullptr) {
      for (int i = 0; i < m; ++i) {
        singular->rows.push_back(i);
        singular->positions.push_back(i);
      }
    }
    return false;
  }
  return factorize_impl(basis_cols, pivot_tol, tau, singular, /*allow_static=*/true);
}

bool LuFactors::factorize_impl(const std::vector<std::vector<LuEntry>>& basis_cols,
                               double pivot_tol, double tau, SingularInfo* singular,
                               bool allow_static) {
  const int m = static_cast<int>(basis_cols.size());
  auto core = std::make_shared<LuCore>();
  core->m = m;
  core->pr.resize(static_cast<std::size_t>(m));
  core->pc.resize(static_cast<std::size_t>(m));
  core->diag.resize(static_cast<std::size_t>(m));
  core->lcols.assign(static_cast<std::size_t>(m), {});
  core->urows.assign(static_cast<std::size_t>(m), {});

  Elimination el(m);
  // Reports the still-active (unpivoted) slice of a failed elimination, so
  // the caller can repair it by slack substitution.
  auto fail = [&]() {
    if (singular != nullptr) {
      for (int i = 0; i < m; ++i)
        if (el.row_active[static_cast<std::size_t>(i)]) singular->rows.push_back(i);
      for (int j = 0; j < m; ++j)
        if (el.col_active[static_cast<std::size_t>(j)]) singular->positions.push_back(j);
    }
    return false;
  };
  long input_nnz = 0;
  long fill_nnz = 0;  // entries created during elimination beyond the input
  for (int j = 0; j < m; ++j) {
    for (const LuEntry& e : basis_cols[static_cast<std::size_t>(j)]) {
      if (e.value == 0.0) continue;
      if (e.index < 0 || e.index >= m) return fail();
      el.rows[static_cast<std::size_t>(e.index)].push_back({j, e.value});
      el.colrows[static_cast<std::size_t>(j)].push_back(e.index);
      ++el.row_count[static_cast<std::size_t>(e.index)];
      ++el.col_count[static_cast<std::size_t>(j)];
      ++input_nnz;
    }
  }
  for (int j = 0; j < m; ++j) {
    if (el.col_count[static_cast<std::size_t>(j)] == 0) return fail();  // empty column
    el.note_col_count(j);
  }
  for (int i = 0; i < m; ++i) {
    if (el.row_count[static_cast<std::size_t>(i)] == 0) return fail();  // empty row
    el.note_row_count(i);
  }

  // Static staircase pre-order: on the time-expanded scheduling LPs, rows
  // arrive in time-block order with a handful of linking rows (the budget
  // row, memory recurrences) touching many columns. Ordering pivot columns
  // by their earliest non-linking row reproduces the staircase band, so
  // bump elimination proceeds block by block with fill confined to each
  // block — and pivot selection becomes a cursor walk instead of the
  // O(active log active) Markowitz sort per bump step. Detection is purely
  // structural; any miss falls back to the generic Markowitz search.
  std::vector<int> static_order;
  bool use_static = false;
  if (allow_static) {
    const int linking_threshold = std::max(16, m / 32);
    int linking_rows = 0;
    for (int i = 0; i < m; ++i)
      if (el.row_count[static_cast<std::size_t>(i)] > linking_threshold) ++linking_rows;
    if (linking_rows <= std::max(1, m / 16)) {
      std::vector<int> key(static_cast<std::size_t>(m), m);
      int keyed = 0;
      for (int j = 0; j < m; ++j) {
        int kmin = m;
        for (const int i : el.colrows[static_cast<std::size_t>(j)])
          if (el.row_count[static_cast<std::size_t>(i)] <= linking_threshold && i < kmin)
            kmin = i;
        key[static_cast<std::size_t>(j)] = kmin;
        if (kmin < m) ++keyed;
      }
      if (10 * keyed >= 9 * m) {
        static_order.resize(static_cast<std::size_t>(m));
        for (int j = 0; j < m; ++j) static_order[static_cast<std::size_t>(j)] = j;
        std::sort(static_order.begin(), static_order.end(), [&](int a, int b) {
          const int ka = key[static_cast<std::size_t>(a)];
          const int kb = key[static_cast<std::size_t>(b)];
          return ka != kb ? ka < kb : a < b;
        });
        use_static = true;
      }
    }
  }
  int static_cursor = 0;

  // U rows are recorded with basis-position indices during elimination and
  // translated to step indices afterwards (colstep is only complete then).
  std::vector<std::vector<LuEntry>> urows_pos(static_cast<std::size_t>(m));

  // Eliminates all active rows carrying column `pj` against pivot row `pi`
  // and retires the pivot row/column. Returns false only on internal
  // inconsistency (stale counts), which indicates a singular slice.
  auto apply_pivot = [&](int k, int pi, int pj, double a) {
    core->pr[static_cast<std::size_t>(k)] = pi;
    core->pc[static_cast<std::size_t>(k)] = pj;
    core->diag[static_cast<std::size_t>(k)] = a;
    el.row_active[static_cast<std::size_t>(pi)] = 0;
    el.col_active[static_cast<std::size_t>(pj)] = 0;

    auto& prow = el.rows[static_cast<std::size_t>(pi)];
    // Retire the pivot row: its non-pivot entries are U's row k.
    for (const LuEntry& e : prow) {
      if (e.index == pj) continue;
      urows_pos[static_cast<std::size_t>(k)].push_back(e);
      if (--el.col_count[static_cast<std::size_t>(e.index)] == 1)
        el.col_single.push_back(e.index);
    }
    el.col_count[static_cast<std::size_t>(pj)] = 0;

    // Eliminate the remaining rows of column pj.
    auto& candidates = el.colrows[static_cast<std::size_t>(pj)];
    for (const int i : candidates) {
      if (!el.row_active[static_cast<std::size_t>(i)]) continue;
      const int at = el.find(i, pj);
      if (at < 0) continue;  // stale index entry
      auto& row = el.rows[static_cast<std::size_t>(i)];
      const double l = row[static_cast<std::size_t>(at)].value / a;
      core->lcols[static_cast<std::size_t>(k)].push_back({i, l});
      // Remove the pj entry (cancels exactly by construction).
      row[static_cast<std::size_t>(at)] = row.back();
      row.pop_back();
      --el.row_count[static_cast<std::size_t>(i)];
      if (l != 0.0 && !prow.empty()) {
        // row_i -= l * pivot_row over the non-pivot entries (scatter).
        for (std::size_t t = 0; t < row.size(); ++t)
          el.wpos[static_cast<std::size_t>(row[t].index)] = static_cast<int>(t) + 1;
        for (const LuEntry& e : prow) {
          if (e.index == pj) continue;
          const int p = el.wpos[static_cast<std::size_t>(e.index)];
          if (p > 0) {
            row[static_cast<std::size_t>(p - 1)].value -= l * e.value;
          } else {
            row.push_back({e.index, -l * e.value});
            el.wpos[static_cast<std::size_t>(e.index)] = static_cast<int>(row.size());
            el.colrows[static_cast<std::size_t>(e.index)].push_back(i);
            ++el.col_count[static_cast<std::size_t>(e.index)];
            ++el.row_count[static_cast<std::size_t>(i)];
            ++fill_nnz;
          }
        }
        for (const LuEntry& e : row) el.wpos[static_cast<std::size_t>(e.index)] = 0;
      }
      el.note_row_count(i);
    }
    candidates.clear();
    candidates.shrink_to_fit();
    prow.clear();
    prow.shrink_to_fit();
  };

  for (int k = 0; k < m; ++k) {
    // Excessive-fill bailout: a clean staircase eliminates with almost no
    // fill, so fill exceeding the whole input means appended cut rows have
    // broken the band and the fill-blind static order is now quadratically
    // worse than Markowitz. Abandon the attempt and redo it generically
    // (recorded as a staircase_fallback by the retry).
    if (use_static && fill_nnz > input_nnz)
      return factorize_impl(basis_cols, pivot_tol, tau, singular, /*allow_static=*/false);

    int pi = -1, pj = -1;
    double pivot = 0.0;

    // 1) Column singletons: the only active entry of a column is a perfect
    //    Markowitz pivot (merit 0 on the column side, no multiplier fill).
    while (pi < 0 && !el.col_single.empty()) {
      const int j = el.col_single.back();
      el.col_single.pop_back();
      if (!el.col_active[static_cast<std::size_t>(j)] ||
          el.col_count[static_cast<std::size_t>(j)] != 1)
        continue;
      for (const int i : el.colrows[static_cast<std::size_t>(j)]) {
        if (!el.row_active[static_cast<std::size_t>(i)]) continue;
        const int at = el.find(i, j);
        if (at < 0) continue;
        const double v = el.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(at)].value;
        if (std::fabs(v) <= pivot_tol) return fail();  // forced tiny pivot: singular
        pi = i;
        pj = j;
        pivot = v;
        break;
      }
    }

    // 2) Row singletons: symmetric case, no fill either.
    while (pi < 0 && !el.row_single.empty()) {
      const int i = el.row_single.back();
      el.row_single.pop_back();
      if (!el.row_active[static_cast<std::size_t>(i)] ||
          el.row_count[static_cast<std::size_t>(i)] != 1)
        continue;
      const auto& row = el.rows[static_cast<std::size_t>(i)];
      // The row may hold stale zero-count entries? No: entries are exact.
      const LuEntry e = row.front();
      if (std::fabs(e.value) <= pivot_tol) continue;  // try other pivots for this column
      pi = i;
      pj = e.index;
      pivot = e.value;
    }

    // 3a) Staircase bump: take the next few active columns in the static
    //     pre-order and pick the admissible entry (threshold partial
    //     pivoting in-column) with the smallest row count. Falls through to
    //     the generic Markowitz search when no nearby column qualifies.
    if (pi < 0 && use_static) {
      constexpr int kStaticLookahead = 8;
      while (static_cursor < m &&
             !el.col_active[static_cast<std::size_t>(
                 static_order[static_cast<std::size_t>(static_cursor)])])
        ++static_cursor;
      int tried = 0;
      for (int t = static_cursor; t < m && tried < kStaticLookahead; ++t) {
        const int j = static_order[static_cast<std::size_t>(t)];
        if (!el.col_active[static_cast<std::size_t>(j)]) continue;
        ++tried;
        double colmax = 0.0;
        for (const int i : el.colrows[static_cast<std::size_t>(j)]) {
          if (!el.row_active[static_cast<std::size_t>(i)]) continue;
          const int at = el.find(i, j);
          if (at < 0) continue;
          colmax = std::max(
              colmax,
              std::fabs(el.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(at)].value));
        }
        if (colmax <= pivot_tol) continue;
        const double threshold = std::max(tau * colmax, pivot_tol);
        int best_rc = 0;
        for (const int i : el.colrows[static_cast<std::size_t>(j)]) {
          if (!el.row_active[static_cast<std::size_t>(i)]) continue;
          const int at = el.find(i, j);
          if (at < 0) continue;
          const double v =
              el.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(at)].value;
          if (std::fabs(v) < threshold) continue;
          const int rc = el.row_count[static_cast<std::size_t>(i)];
          if (pi < 0 || rc < best_rc ||
              (rc == best_rc && std::fabs(v) > std::fabs(pivot))) {
            pi = i;
            pj = j;
            pivot = v;
            best_rc = rc;
          }
        }
        if (pi >= 0) break;
      }
    }

    // 3) Bump: Markowitz merit (r-1)(c-1) with threshold partial pivoting,
    //    searching the lowest-count active columns first.
    if (pi < 0) {
      constexpr int kSearchCols = 8;
      std::vector<int> order;
      for (int j = 0; j < m; ++j)
        if (el.col_active[static_cast<std::size_t>(j)]) order.push_back(j);
      if (order.empty()) return fail();
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int ca = el.col_count[static_cast<std::size_t>(a)];
        const int cb = el.col_count[static_cast<std::size_t>(b)];
        return ca != cb ? ca < cb : a < b;
      });
      double best_merit = 0.0;
      int searched = 0;
      for (const int j : order) {
        if (searched >= kSearchCols && pi >= 0) break;
        ++searched;
        // Column max over the active entries, then threshold candidates.
        double colmax = 0.0;
        for (const int i : el.colrows[static_cast<std::size_t>(j)]) {
          if (!el.row_active[static_cast<std::size_t>(i)]) continue;
          const int at = el.find(i, j);
          if (at < 0) continue;
          colmax = std::max(
              colmax,
              std::fabs(el.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(at)].value));
        }
        if (colmax <= pivot_tol) continue;
        const double threshold = std::max(tau * colmax, pivot_tol);
        for (const int i : el.colrows[static_cast<std::size_t>(j)]) {
          if (!el.row_active[static_cast<std::size_t>(i)]) continue;
          const int at = el.find(i, j);
          if (at < 0) continue;
          const double v =
              el.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(at)].value;
          if (std::fabs(v) < threshold) continue;
          const double merit =
              static_cast<double>(el.row_count[static_cast<std::size_t>(i)] - 1) *
              static_cast<double>(el.col_count[static_cast<std::size_t>(j)] - 1);
          if (pi < 0 || merit < best_merit ||
              (merit == best_merit && std::fabs(v) > std::fabs(pivot))) {
            pi = i;
            pj = j;
            pivot = v;
            best_merit = merit;
          }
        }
      }
      if (pi < 0) return fail();  // no admissible pivot anywhere: singular
    }

    apply_pivot(k, pi, pj, pivot);
  }

  // Permutation inverses and the position -> step translation of U.
  core->rowstep.assign(static_cast<std::size_t>(m), -1);
  core->colstep.assign(static_cast<std::size_t>(m), -1);
  for (int k = 0; k < m; ++k) {
    core->rowstep[static_cast<std::size_t>(core->pr[static_cast<std::size_t>(k)])] = k;
    core->colstep[static_cast<std::size_t>(core->pc[static_cast<std::size_t>(k)])] = k;
  }
  for (int k = 0; k < m; ++k) {
    auto& out = core->urows[static_cast<std::size_t>(k)];
    out.reserve(urows_pos[static_cast<std::size_t>(k)].size());
    for (const LuEntry& e : urows_pos[static_cast<std::size_t>(k)]) {
      if (e.value == 0.0) continue;
      out.push_back({core->colstep[static_cast<std::size_t>(e.index)], e.value});
    }
  }

  stats_.lu_input_nnz += input_nnz;
  stats_.lu_factor_nnz += core->nnz();
  if (use_static)
    ++stats_.staircase_orderings;
  else
    ++stats_.staircase_fallbacks;
  core_ = std::move(core);
  etas_.clear();
  ++stats_.refactorizations;
  ensure_workspace(m);
  return true;
}

void LuFactors::load(const Factorization& snapshot) {
  core_ = snapshot.core;
  etas_ = snapshot.etas;
  ensure_workspace(rows());
}

Factorization LuFactors::snapshot() const {
  Factorization f;
  f.core = core_;
  f.etas = etas_;
  return f;
}

void LuFactors::append_eta(int pivot_pos, const SparseVec& w) {
  EtaVector eta;
  eta.pivot_pos = pivot_pos;
  eta.pivot_value = w.values[static_cast<std::size_t>(pivot_pos)];
  eta.entries.reserve(w.nz.size());
  for (const int i : w.nz) {
    if (i == pivot_pos) continue;
    const double v = w.values[static_cast<std::size_t>(i)];
    if (v != 0.0) eta.entries.push_back({i, v});
  }
  etas_.push_back(std::move(eta));
  ++stats_.eta_pivots;
  stats_.peak_eta_length =
      std::max(stats_.peak_eta_length, static_cast<int>(etas_.size()));
}

void LuFactors::ensure_workspace(int m) {
  if (static_cast<int>(work_.size()) < m) work_.assign(static_cast<std::size_t>(m), 0.0);
}

void LuFactors::ftran(SparseVec* x) {
  const LuCore& lu = *core_;
  const int m = lu.m;
  ++stats_.ftran_calls;
  stats_.rhs_nonzeros += x->nonzeros();
  stats_.rhs_dimension += m;
  if (static_cast<double>(x->nz.size()) >= kDenseSolveThreshold * static_cast<double>(m)) {
    ++stats_.ftran_dense;
    ftran_dense(x);
    return;
  }

  // L solve in original row space; skipping zero positions is what makes a
  // hyper-sparse (few-nonzero) right-hand side cheap.
  auto& v = x->values;
  for (int k = 0; k < m; ++k) {
    const double xk = v[static_cast<std::size_t>(lu.pr[static_cast<std::size_t>(k)])];
    if (xk == 0.0) continue;
    for (const LuEntry& e : lu.lcols[static_cast<std::size_t>(k)]) {
      const auto s = static_cast<std::size_t>(e.index);
      if (v[s] == 0.0) x->nz.push_back(e.index);
      v[s] -= e.value * xk;
    }
  }
  // U backward solve into the step-indexed workspace.
  for (int k = m - 1; k >= 0; --k) {
    double acc = v[static_cast<std::size_t>(lu.pr[static_cast<std::size_t>(k)])];
    for (const LuEntry& e : lu.urows[static_cast<std::size_t>(k)]) {
      const double z = work_[static_cast<std::size_t>(e.index)];
      if (z != 0.0) acc -= e.value * z;
    }
    work_[static_cast<std::size_t>(k)] =
        acc == 0.0 ? 0.0 : acc / lu.diag[static_cast<std::size_t>(k)];
  }
  // Scatter back in basis-position space.
  x->clear();
  for (int k = 0; k < m; ++k) {
    const double z = work_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = 0.0;
    if (z != 0.0) x->add(lu.pc[static_cast<std::size_t>(k)], z);
  }
  // Eta file, oldest first: x := E^-1 x.
  for (const EtaVector& eta : etas_) {
    const auto p = static_cast<std::size_t>(eta.pivot_pos);
    const double xp = v[p];
    if (xp == 0.0) continue;
    const double t = xp / eta.pivot_value;
    v[p] = t;
    for (const LuEntry& e : eta.entries) {
      const auto s = static_cast<std::size_t>(e.index);
      if (v[s] == 0.0) x->nz.push_back(e.index);
      v[s] -= e.value * t;
    }
  }
  x->compact();
  if (fault::enabled() && fault::should_fail(fault::Hook::kLuFtran))
    corrupt_solution(x);
}

void LuFactors::btran(SparseVec* y) {
  const LuCore& lu = *core_;
  const int m = lu.m;
  ++stats_.btran_calls;
  stats_.rhs_nonzeros += y->nonzeros();
  stats_.rhs_dimension += m;
  if (static_cast<double>(y->nz.size()) >= kDenseSolveThreshold * static_cast<double>(m)) {
    ++stats_.btran_dense;
    btran_dense(y);
    return;
  }

  auto& v = y->values;
  // Eta file, newest first: y_p := (y_p - sum_{i != p} w_i y_i) / w_p.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const EtaVector& eta = *it;
    const auto p = static_cast<std::size_t>(eta.pivot_pos);
    double acc = v[p];
    for (const LuEntry& e : eta.entries) {
      const double yi = v[static_cast<std::size_t>(e.index)];
      if (yi != 0.0) acc -= e.value * yi;
    }
    if (v[p] == 0.0 && acc != 0.0) y->nz.push_back(eta.pivot_pos);
    v[p] = acc == 0.0 ? 0.0 : acc / eta.pivot_value;
  }
  // U^T forward solve (scatter), input gathered from basis-position space.
  for (int k = 0; k < m; ++k)
    work_[static_cast<std::size_t>(k)] = v[static_cast<std::size_t>(lu.pc[static_cast<std::size_t>(k)])];
  for (int k = 0; k < m; ++k) {
    const double acc = work_[static_cast<std::size_t>(k)];
    if (acc == 0.0) continue;
    const double t = acc / lu.diag[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = t;
    for (const LuEntry& e : lu.urows[static_cast<std::size_t>(k)])
      work_[static_cast<std::size_t>(e.index)] -= e.value * t;
  }
  // L^T backward solve; multiplier rows pivot at later steps, so descending
  // step order sees finished values.
  for (int k = m - 1; k >= 0; --k) {
    double acc = work_[static_cast<std::size_t>(k)];
    for (const LuEntry& e : lu.lcols[static_cast<std::size_t>(k)]) {
      const double z =
          work_[static_cast<std::size_t>(lu.rowstep[static_cast<std::size_t>(e.index)])];
      if (z != 0.0) acc -= e.value * z;
    }
    work_[static_cast<std::size_t>(k)] = acc;
  }
  // Back to original row space.
  y->clear();
  for (int k = 0; k < m; ++k) {
    const double z = work_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = 0.0;
    if (z != 0.0) y->add(lu.pr[static_cast<std::size_t>(k)], z);
  }
  y->compact();
  if (fault::enabled() && fault::should_fail(fault::Hook::kLuBtran))
    corrupt_solution(y);
}

// Dense-mode kernels: same solves as above with the nonzero-list upkeep
// stripped out. Once the right-hand side carries more than a few percent of
// the dimension, the per-entry `if (v == 0) nz.push_back` branches and the
// value-skip tests mispredict constantly and cost more than the O(m) sweep
// that rebuilds `nz` at the end; the stripped loops are also store/reduce
// loops over disjoint indices, so they vectorize (INSCHED_SIMD).

void LuFactors::ftran_dense(SparseVec* x) {
  const LuCore& lu = *core_;
  const int m = lu.m;
  auto& v = x->values;
  // L solve in original row space.
  for (int k = 0; k < m; ++k) {
    const double xk = v[static_cast<std::size_t>(lu.pr[static_cast<std::size_t>(k)])];
    if (xk == 0.0) continue;
    const auto& col = lu.lcols[static_cast<std::size_t>(k)];
    const LuEntry* ce = col.data();
    const std::size_t cn = col.size();
    INSCHED_SIMD
    for (std::size_t t = 0; t < cn; ++t)
      v[static_cast<std::size_t>(ce[t].index)] -= ce[t].value * xk;
  }
  // U backward solve into the step-indexed workspace.
  for (int k = m - 1; k >= 0; --k) {
    double acc = v[static_cast<std::size_t>(lu.pr[static_cast<std::size_t>(k)])];
    const auto& row = lu.urows[static_cast<std::size_t>(k)];
    const LuEntry* re = row.data();
    const std::size_t rn = row.size();
    INSCHED_SIMD_REDUCTION(- : acc)
    for (std::size_t t = 0; t < rn; ++t)
      acc -= re[t].value * work_[static_cast<std::size_t>(re[t].index)];
    work_[static_cast<std::size_t>(k)] =
        acc == 0.0 ? 0.0 : acc / lu.diag[static_cast<std::size_t>(k)];
  }
  // Scatter back in basis-position space; pc is a permutation, so the
  // stores are disjoint and unconditional.
  std::fill(v.begin(), v.end(), 0.0);
  x->nz.clear();
  for (int k = 0; k < m; ++k) {
    v[static_cast<std::size_t>(lu.pc[static_cast<std::size_t>(k)])] =
        work_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = 0.0;
  }
  // Eta file, oldest first.
  for (const EtaVector& eta : etas_) {
    const auto p = static_cast<std::size_t>(eta.pivot_pos);
    const double xp = v[p];
    if (xp == 0.0) continue;
    const double t = xp / eta.pivot_value;
    v[p] = t;
    const LuEntry* ee = eta.entries.data();
    const std::size_t en = eta.entries.size();
    INSCHED_SIMD
    for (std::size_t q = 0; q < en; ++q)
      v[static_cast<std::size_t>(ee[q].index)] -= ee[q].value * t;
  }
  // One dense sweep stands in for all the per-entry bookkeeping above.
  for (int i = 0; i < m; ++i)
    if (v[static_cast<std::size_t>(i)] != 0.0) x->nz.push_back(i);
  if (fault::enabled() && fault::should_fail(fault::Hook::kLuFtran))
    corrupt_solution(x);
}

void LuFactors::btran_dense(SparseVec* y) {
  const LuCore& lu = *core_;
  const int m = lu.m;
  auto& v = y->values;
  // Eta file, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const EtaVector& eta = *it;
    double acc = v[static_cast<std::size_t>(eta.pivot_pos)];
    const LuEntry* ee = eta.entries.data();
    const std::size_t en = eta.entries.size();
    INSCHED_SIMD_REDUCTION(- : acc)
    for (std::size_t q = 0; q < en; ++q)
      acc -= ee[q].value * v[static_cast<std::size_t>(ee[q].index)];
    v[static_cast<std::size_t>(eta.pivot_pos)] =
        acc == 0.0 ? 0.0 : acc / eta.pivot_value;
  }
  // U^T forward solve (scatter), input gathered from basis-position space.
  for (int k = 0; k < m; ++k)
    work_[static_cast<std::size_t>(k)] =
        v[static_cast<std::size_t>(lu.pc[static_cast<std::size_t>(k)])];
  for (int k = 0; k < m; ++k) {
    const double acc = work_[static_cast<std::size_t>(k)];
    if (acc == 0.0) continue;
    const double t = acc / lu.diag[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = t;
    const auto& row = lu.urows[static_cast<std::size_t>(k)];
    const LuEntry* re = row.data();
    const std::size_t rn = row.size();
    INSCHED_SIMD
    for (std::size_t q = 0; q < rn; ++q)
      work_[static_cast<std::size_t>(re[q].index)] -= re[q].value * t;
  }
  // L^T backward solve.
  for (int k = m - 1; k >= 0; --k) {
    double acc = work_[static_cast<std::size_t>(k)];
    const auto& col = lu.lcols[static_cast<std::size_t>(k)];
    const LuEntry* ce = col.data();
    const std::size_t cn = col.size();
    INSCHED_SIMD_REDUCTION(- : acc)
    for (std::size_t q = 0; q < cn; ++q)
      acc -= ce[q].value *
             work_[static_cast<std::size_t>(
                 lu.rowstep[static_cast<std::size_t>(ce[q].index)])];
    work_[static_cast<std::size_t>(k)] = acc;
  }
  // Back to original row space.
  std::fill(v.begin(), v.end(), 0.0);
  y->nz.clear();
  for (int k = 0; k < m; ++k) {
    v[static_cast<std::size_t>(lu.pr[static_cast<std::size_t>(k)])] =
        work_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = 0.0;
  }
  for (int i = 0; i < m; ++i)
    if (v[static_cast<std::size_t>(i)] != 0.0) y->nz.push_back(i);
  if (fault::enabled() && fault::should_fail(fault::Hook::kLuBtran))
    corrupt_solution(y);
}

// ---------------------------------------------------------------------------
// Serialization ("factor v1"): the cross-process warm-start handoff format.
// Doubles use max_digits10 so values round-trip exactly.

namespace {

void write_entries(std::ostringstream& out, const std::vector<LuEntry>& entries) {
  out << entries.size();
  for (const LuEntry& e : entries) out << ' ' << e.index << ' ' << e.value;
  out << '\n';
}

bool read_entries(std::istringstream& in, std::vector<LuEntry>* entries) {
  std::size_t n = 0;
  if (!(in >> n)) return false;
  entries->resize(n);
  for (LuEntry& e : *entries)
    if (!(in >> e.index >> e.value)) return false;
  return true;
}

}  // namespace

std::string Factorization::to_string() const {
  std::ostringstream out;
  out << std::setprecision(17);
  const int m = rows();
  out << "factor v1 " << m << ' ' << etas.size() << '\n';
  if (core) {
    for (int k = 0; k < m; ++k) {
      out << core->pr[static_cast<std::size_t>(k)] << ' '
          << core->pc[static_cast<std::size_t>(k)] << ' '
          << core->diag[static_cast<std::size_t>(k)] << '\n';
      write_entries(out, core->lcols[static_cast<std::size_t>(k)]);
      write_entries(out, core->urows[static_cast<std::size_t>(k)]);
    }
  }
  for (const EtaVector& eta : etas) {
    out << eta.pivot_pos << ' ' << eta.pivot_value << '\n';
    write_entries(out, eta.entries);
  }
  return out.str();
}

std::optional<Factorization> Factorization::from_string(const std::string& text) {
  std::istringstream in(text);
  std::string tag, version;
  int m = 0;
  std::size_t netas = 0;
  if (!(in >> tag >> version >> m >> netas)) return std::nullopt;
  if (tag != "factor" || version != "v1" || m < 0) return std::nullopt;
  auto core = std::make_shared<LuCore>();
  core->m = m;
  core->pr.resize(static_cast<std::size_t>(m));
  core->pc.resize(static_cast<std::size_t>(m));
  core->diag.resize(static_cast<std::size_t>(m));
  core->lcols.resize(static_cast<std::size_t>(m));
  core->urows.resize(static_cast<std::size_t>(m));
  core->rowstep.assign(static_cast<std::size_t>(m), -1);
  core->colstep.assign(static_cast<std::size_t>(m), -1);
  for (int k = 0; k < m; ++k) {
    int pr = 0, pc = 0;
    double diag = 0.0;
    if (!(in >> pr >> pc >> diag)) return std::nullopt;
    if (pr < 0 || pr >= m || pc < 0 || pc >= m || diag == 0.0) return std::nullopt;
    if (core->rowstep[static_cast<std::size_t>(pr)] != -1) return std::nullopt;
    if (core->colstep[static_cast<std::size_t>(pc)] != -1) return std::nullopt;
    core->pr[static_cast<std::size_t>(k)] = pr;
    core->pc[static_cast<std::size_t>(k)] = pc;
    core->diag[static_cast<std::size_t>(k)] = diag;
    core->rowstep[static_cast<std::size_t>(pr)] = k;
    core->colstep[static_cast<std::size_t>(pc)] = k;
    if (!read_entries(in, &core->lcols[static_cast<std::size_t>(k)])) return std::nullopt;
    if (!read_entries(in, &core->urows[static_cast<std::size_t>(k)])) return std::nullopt;
    for (const LuEntry& e : core->lcols[static_cast<std::size_t>(k)])
      if (e.index < 0 || e.index >= m) return std::nullopt;
    for (const LuEntry& e : core->urows[static_cast<std::size_t>(k)])
      if (e.index <= k || e.index >= m) return std::nullopt;
  }
  Factorization out;
  out.etas.resize(netas);
  for (EtaVector& eta : out.etas) {
    if (!(in >> eta.pivot_pos >> eta.pivot_value)) return std::nullopt;
    if (eta.pivot_pos < 0 || eta.pivot_pos >= m || eta.pivot_value == 0.0)
      return std::nullopt;
    if (!read_entries(in, &eta.entries)) return std::nullopt;
    for (const LuEntry& e : eta.entries)
      if (e.index < 0 || e.index >= m) return std::nullopt;
  }
  out.core = std::move(core);
  return out;
}

}  // namespace insched::lp
