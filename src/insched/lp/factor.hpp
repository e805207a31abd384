#pragma once

// Sparse LU basis factorization for the revised simplex. Replaces the dense
// m x m explicit basis inverse: the basis matrix B (one sparse column per
// basic variable) is factorized as P B Q = L U by Markowitz-ordered Gaussian
// elimination with threshold partial pivoting, and subsequent simplex pivots
// are absorbed as product-form eta vectors instead of O(m^2) row
// eliminations. FTRAN (solve B x = a) and BTRAN (solve B^T y = c) walk the
// sparse factors and the eta file, skipping zero entries in the right-hand
// side, so a pivot on a staircase scheduling model costs O(band of touched
// rows) instead of O(m^2) and a refactorization costs O(nnz fill) instead of
// O(m^3).
//
// Two layers:
//  * `LuCore` / `EtaVector` / `Factorization` — immutable snapshot data.
//    `Factorization` (shared LuCore + eta chain) is what the MIP search
//    caches per node: O(nnz) memory instead of the former dense O(m^2)
//    `binv` snapshot. LuCore is shared between sibling snapshots that differ
//    only in appended etas.
//  * `LuFactors` — the mutable engine-side state: one LuCore plus a growing
//    eta file, workspaces, and observability counters (ftran/btran calls,
//    right-hand-side density, refactorization count).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace insched::lp {

/// One nonzero of a sparse factor column/row: `index` is an original row id,
/// a basis position, or an elimination step depending on the container.
struct LuEntry {
  int index = 0;
  double value = 0.0;
};

/// Sparse vector workspace: dense value array plus the list of positions
/// that may be nonzero (exact zeros can linger in `nz`; consumers skip
/// them). Reused across solves, so clear() only zeroes the listed entries.
struct SparseVec {
  std::vector<double> values;
  std::vector<int> nz;

  void resize(int m) {
    clear();
    values.resize(static_cast<std::size_t>(m), 0.0);
  }
  void clear() {
    for (const int i : nz) values[static_cast<std::size_t>(i)] = 0.0;
    nz.clear();
  }
  /// Adds `v` at position `i`, registering the position on first touch.
  /// A position whose value cancels to exact zero and is touched again ends
  /// up listed twice — harmless for dense reads and for clear(), but
  /// callers that *iterate* nz destructively must compact() first.
  void add(int i, double v) {
    const auto s = static_cast<std::size_t>(i);
    if (values[s] == 0.0) nz.push_back(i);
    values[s] += v;
  }
  /// Sorts nz ascending, removes duplicates and exact zeros. FTRAN/BTRAN
  /// outputs are always compacted, so simplex loops over nz (ratio tests,
  /// value updates, eta capture) see each position exactly once, in a
  /// deterministic order.
  void compact() {
    // Dense-ish vectors (small bases, fill-heavy solves): one ordered scan
    // over `values` beats sort+unique and is O(m) regardless of duplicates.
    // Hyper-sparse vectors keep the O(nnz log nnz) path so large staircase
    // solves never pay an O(m) sweep per FTRAN/BTRAN.
    if (nz.size() * 4 >= values.size()) {
      nz.clear();
      const int m = static_cast<int>(values.size());
      for (int i = 0; i < m; ++i)
        if (values[static_cast<std::size_t>(i)] != 0.0) nz.push_back(i);
      return;
    }
    std::sort(nz.begin(), nz.end());
    nz.erase(std::unique(nz.begin(), nz.end()), nz.end());
    std::size_t out = 0;
    for (const int i : nz)
      if (values[static_cast<std::size_t>(i)] != 0.0) nz[out++] = i;
    nz.resize(out);
  }
  [[nodiscard]] int nonzeros() const noexcept {
    int n = 0;
    for (const int i : nz)
      if (values[static_cast<std::size_t>(i)] != 0.0) ++n;
    return n;
  }
};

/// One product-form update: basis position `pivot_pos` was replaced by a
/// column whose FTRAN image had `pivot_value` in that position and `entries`
/// elsewhere (basis-position indices, pivot excluded).
struct EtaVector {
  int pivot_pos = -1;
  double pivot_value = 0.0;
  std::vector<LuEntry> entries;

  [[nodiscard]] std::size_t bytes() const noexcept {
    return sizeof(EtaVector) + entries.capacity() * sizeof(LuEntry);
  }
};

/// Immutable sparse LU factors of one basis matrix: P B Q = L U.
/// `pr[k]`/`pc[k]` give the original row / basis position pivoted at
/// elimination step k; `lcols[k]` holds the unit-lower-triangular multiplier
/// column of step k (indices = original rows, all pivoted at steps > k);
/// `urows[k]` holds the off-diagonal entries of U's row k (indices =
/// elimination steps > k); `diag[k]` is the pivot value.
struct LuCore {
  int m = 0;
  std::vector<int> pr, pc;            ///< step -> original row / basis position
  std::vector<int> rowstep, colstep;  ///< inverse permutations
  std::vector<double> diag;
  std::vector<std::vector<LuEntry>> lcols;
  std::vector<std::vector<LuEntry>> urows;

  [[nodiscard]] long nnz() const noexcept;
  [[nodiscard]] std::size_t bytes() const noexcept;
};

/// Compact factorization snapshot attached to a `Basis`: the shared LU core
/// plus the eta chain accumulated since it was computed. Immutable once
/// built; sibling branch-and-bound nodes share it by shared_ptr, and the
/// core itself is shared between snapshots taken between refactorizations.
struct Factorization {
  std::shared_ptr<const LuCore> core;
  std::vector<EtaVector> etas;

  [[nodiscard]] int rows() const noexcept { return core ? core->m : 0; }
  [[nodiscard]] int eta_count() const noexcept { return static_cast<int>(etas.size()); }
  /// Approximate resident size. The shared core is charged in full (callers
  /// that account a cache of sibling snapshots overcount shared cores).
  [[nodiscard]] std::size_t bytes() const noexcept;
  /// Dense-inverse equivalent footprint (what the pre-LU snapshot cost).
  [[nodiscard]] std::size_t dense_equivalent_bytes() const noexcept {
    const auto m = static_cast<std::size_t>(rows());
    return m * m * sizeof(double) + m * sizeof(void*);
  }

  /// Compact text form ("factor v1 ..."), value-exact across platforms; the
  /// cross-process warm-start handoff companion of `Basis::to_string`.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Factorization> from_string(const std::string& text);
};

/// Observability counters for one engine lifetime (reset per solve).
struct FactorStats {
  long ftran_calls = 0;
  long btran_calls = 0;
  long refactorizations = 0;
  long eta_pivots = 0;      ///< product-form updates appended
  int peak_eta_length = 0;  ///< longest eta chain reached between refactorizations
  long rhs_nonzeros = 0;   ///< summed input nonzeros over all ftran/btran calls
  long rhs_dimension = 0;  ///< summed vector length over the same calls
  long lu_input_nnz = 0;   ///< summed nonzeros of the factorized basis matrices
  long lu_factor_nnz = 0;  ///< summed nonzeros of the resulting L + U factors
  long staircase_orderings = 0;  ///< factorizations run with the static pre-order
  long staircase_fallbacks = 0;  ///< factorizations that fell back to Markowitz
  long ftran_dense = 0;  ///< ftran calls routed through the dense-mode kernel
  long btran_dense = 0;  ///< btran calls routed through the dense-mode kernel

  /// Average input density of ftran/btran right-hand sides in [0, 1].
  [[nodiscard]] double rhs_density() const noexcept {
    return rhs_dimension > 0 ? static_cast<double>(rhs_nonzeros) /
                                   static_cast<double>(rhs_dimension)
                             : 0.0;
  }
};

/// Mutable factorization state of one simplex engine: LU core + eta file +
/// workspaces. Not thread-safe; each engine owns one.
/// Where a failed factorization got stuck: the original rows and the basis
/// positions (columns of the basis matrix) that never received a pivot.
/// Pairing position[k] with row[k] and substituting the slack of that row
/// for the stuck basic variable makes the basis structurally nonsingular
/// again — the singular-basis repair rung of the recovery ladder
/// (docs/ROBUSTNESS.md).
struct SingularInfo {
  std::vector<int> rows;       ///< original row indices left unpivoted
  std::vector<int> positions;  ///< basis positions left unpivoted
};

class LuFactors {
 public:
  /// (Re)factorizes the basis given by `basis_cols`: m sparse columns, each
  /// a list of (original row, coefficient). Entries with |pivot| below
  /// `pivot_tol` are never chosen; `tau` is the threshold-partial-pivoting
  /// relaxation (a bump pivot must be >= tau * column max). Returns false on
  /// a (numerically) singular basis; the previous factors stay untouched
  /// and, when `singular` is given, it receives the unpivoted rows and
  /// basis positions for slack-substitution repair.
  [[nodiscard]] bool factorize(const std::vector<std::vector<LuEntry>>& basis_cols,
                               double pivot_tol, double tau = 0.1,
                               SingularInfo* singular = nullptr);

 private:
  // Elimination body behind factorize(). allow_static gates the staircase
  // pre-order: the first pass tries it, and an excessive-fill bailout (cut
  // rows appended to a staircase basis break the band and make the static
  // order fill-blind) restarts once with the generic Markowitz search.
  [[nodiscard]] bool factorize_impl(const std::vector<std::vector<LuEntry>>& basis_cols,
                                    double pivot_tol, double tau, SingularInfo* singular,
                                    bool allow_static);

 public:

  /// Loads a snapshot (shared core, copied eta chain).
  void load(const Factorization& snapshot);

  /// Snapshot of the current state (shares the core, copies the etas).
  [[nodiscard]] Factorization snapshot() const;

  /// Appends a product-form update: the FTRAN image `w` of the entering
  /// column replaces basis position `pivot_pos`. `w` is consumed.
  void append_eta(int pivot_pos, const SparseVec& w);

  /// x := B^-1 x. Input indexed by original row, output by basis position.
  /// An input with at least 0.2 * m nonzeros takes the dense-mode kernel
  /// (counted in FactorStats::ftran_dense), any other the hyper-sparse one.
  void ftran(SparseVec* x);

  /// y := B^-T y. Input indexed by basis position, output by original row.
  /// Dispatched by input density like ftran (FactorStats::btran_dense).
  void btran(SparseVec* y);

  [[nodiscard]] bool ready() const noexcept { return core_ != nullptr; }
  [[nodiscard]] int rows() const noexcept { return core_ ? core_->m : 0; }
  [[nodiscard]] int eta_count() const noexcept { return static_cast<int>(etas_.size()); }

  [[nodiscard]] const FactorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  void ensure_workspace(int m);
  void ftran_dense(SparseVec* x);
  void btran_dense(SparseVec* y);

  std::shared_ptr<const LuCore> core_;
  std::vector<EtaVector> etas_;
  std::vector<double> work_;  ///< step-indexed scratch for the triangular solves
  FactorStats stats_;
};

}  // namespace insched::lp
