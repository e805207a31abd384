#pragma once

// Cutting-plane separators for the MIP search.
//
//  * Knapsack cover cuts (optionally lifted) on <= rows over positive binary
//    coefficients — the paper's collapsed budget rows (Eqs 2-8).
//  * Clique/GUB cuts on the conflict graph assembled from interval windows
//    (Eq 9) and probing implications.
//  * Gomory mixed-integer cuts read off the simplex tableau: one BTRAN of
//    e_r against the LU factorization per candidate row, then the cut is
//    rewritten in structural space by substituting the row slacks out.
//
// Every separator returns globally valid cuts (derived from rows + global
// bounds only), except generate_gomory_cuts, which bakes the *current* column
// bounds into the slack substitution and must therefore only be called at
// the root (or with node-local validity handling).

#include <cstdint>
#include <vector>

#include "insched/lp/basis.hpp"
#include "insched/lp/model.hpp"
#include "insched/lp/tolerances.hpp"
#include "insched/mip/probing.hpp"

namespace insched::mip {

enum class CutFamily : std::uint8_t { kCover, kLiftedCover, kClique, kGomory, kMir };

[[nodiscard]] const char* cut_family_name(CutFamily family) noexcept;

struct Cut {
  lp::RowType type = lp::RowType::kLe;
  CutFamily family = CutFamily::kCover;
  double rhs = 0.0;
  std::vector<lp::RowEntry> entries;  ///< sorted by column, no duplicates
  double violation = 0.0;  ///< amount by which the LP point violates the cut
};

/// Scans every <= row whose live entries are all binary columns with positive
/// coefficients, finds a minimal cover C (sum of coefficients over C exceeds
/// the rhs), and emits sum_{j in C} x_j <= |C|-1 when the LP point violates
/// it by more than `min_violation`. Variables outside the cover get exact
/// sequentially-lifted coefficients (computed by a profit-space knapsack DP
/// over the cover + previously lifted items), which strengthens the cut
/// without ever cutting an integer point of the row.
[[nodiscard]] std::vector<Cut> generate_cover_cuts(const lp::Model& model,
                                                   const std::vector<double>& x,
                                                   double min_violation = lp::tol::kCutViolationTol);

/// Greedily grows cliques in `conflicts` around fractional binaries (largest
/// LP value first) and emits sum_{j in clique} x_j <= 1 when violated. Cuts
/// are valid for any point satisfying the pairwise conflicts, i.e. globally.
[[nodiscard]] std::vector<Cut> generate_clique_cuts(const lp::Model& model,
                                                    const std::vector<double>& x,
                                                    const ConflictGraph& conflicts,
                                                    double min_violation = lp::tol::kCutViolationTol,
                                                    int max_cuts = 32);

/// Mixed-integer-rounding cuts on single <= rows over positive binary
/// coefficients (the staircase budget rows). For a row sum a_j x_j <= b and a
/// divisor d drawn from the row's own distinct coefficients, the MIR
/// inequality sum (floor(a_j/d) + (frac(a_j/d)-f0)^+ / (1-f0)) x_j <=
/// floor(b/d) with f0 = frac(b/d) is valid for all nonnegative-integer
/// feasible points of the row, hence globally. This is the separator that
/// closes the symmetric budget plateau: near-equal analysis costs make the
/// LP spread sum a_j x_j right up to b, and rounding by d = max cost yields
/// the cardinality bound sum x_j <= floor(b/d) that branching alone cannot
/// infer. Emits at most one (best-violation) cut per row.
[[nodiscard]] std::vector<Cut> generate_mir_cuts(const lp::Model& model,
                                                 const std::vector<double>& x,
                                                 double min_violation = lp::tol::kCutViolationTol,
                                                 int max_cuts = 32);

/// Gomory mixed-integer cuts from the optimal simplex tableau. `basis` must
/// be the optimal basis of `model` at point `x` (structural + slack space as
/// produced by the engine); `factor_hint`, when given and row-compatible, is
/// loaded instead of refactorizing. Each candidate row (an integer structural
/// variable basic at a fractional value) costs exactly one BTRAN; the
/// resulting cut is substituted back into structural space and discarded on
/// any numerical doubt (basic-variable residue in the tableau row, extreme
/// dynamic range, unbounded columns under small-coefficient cleanup).
/// `btrans`, when non-null, accumulates the number of BTRAN calls spent.
[[nodiscard]] std::vector<Cut> generate_gomory_cuts(const lp::Model& model,
                                                    const std::vector<double>& x,
                                                    const lp::Basis& basis,
                                                    const lp::Factorization* factor_hint,
                                                    int max_cuts = 16,
                                                    double min_violation = lp::tol::kCutViolationTol,
                                                    long* btrans = nullptr);

}  // namespace insched::mip
