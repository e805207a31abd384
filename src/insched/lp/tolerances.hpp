#pragma once

// Centralized numeric tolerances for the LP/MIP kernels.
//
// The simplex pivot loops, presolve, the cutting-plane stack and the
// branch-and-bound search all make float comparisons whose thresholds must
// agree across components: a point the heuristics accept as integral must
// also pass the node's feasibility check, a cut the separator keeps must
// survive the pool's violation filter, and the incumbent and pivot
// tie-breaks use the same quantum on every thread. This header is
// the single home of those constants — `insched_srclint`'s
// `tolerance-literal` check rejects stray epsilon literals anywhere in
// `lp/`, `mip/`, `scheduler/` or `replay/` outside this file,
// scheduler/recurrence.hpp and support/units.hpp (docs/STATIC_ANALYSIS.md).
//
// The scheduling-layer counterparts (Eq 2-8 budget comparisons, replay
// divergence) live in scheduler/recurrence.hpp; unit conversion factors in
// support/units.hpp.

namespace insched::lp::tol {

// --- simplex ---------------------------------------------------------------

/// Minimum |pivot| accepted by the simplex ratio tests and LU factorization.
inline constexpr double kPivotTol = 1e-9;

/// Primal feasibility: bound/row violation slack of the simplex, presolve
/// row-consistency checks and probing row checks.
inline constexpr double kFeasTol = 1e-7;

/// Dual feasibility: reduced-cost slack of the simplex pricing.
inline constexpr double kOptTol = 1e-9;

/// Residual acceptance for FTRAN/BTRAN spot checks and the phase-1
/// infeasibility verdict; also the default tolerance of
/// lp::Model::is_feasible.
inline constexpr double kResidualTol = 1e-6;

/// Deterministic tie-breaking quantum: two ratios/objectives within this of
/// each other are "equal" and fall back to index order.
inline constexpr double kTieTol = 1e-12;

/// Floors for norms and other divisors; also the width below which a
/// variable counts as fixed.
inline constexpr double kNormFloor = 1e-12;

/// Absolute pivot floor of the Markowitz LU factorization when invoked for
/// cut separation (corner tableau solves).
inline constexpr double kLuPivotFloor = 1e-10;

/// Base magnitude of the deterministic anti-cycling perturbation.
inline constexpr double kPerturbScale = 1e-10;

// --- mip -------------------------------------------------------------------

/// Coefficient comparisons and integer rounding guards: ceil(lo - kCoeffTol)
/// style clamps, cut-coefficient equality, bound identity.
inline constexpr double kCoeffTol = 1e-9;

/// Integrality tolerance of the branch-and-bound and its heuristics, and the
/// acceptance slack for heuristic integer points.
inline constexpr double kIntTol = 1e-6;

/// Branch-and-bound termination gap (MipOptions::gap_abs default).
inline constexpr double kGapAbsTol = 1e-6;

/// Floor of the pseudo-cost score product so one zero estimate does not
/// erase the other side's signal.
inline constexpr double kScoreFloor = 1e-6;

/// Minimum violation for root/tree cut separation and root pool selection.
inline constexpr double kCutViolationTol = 1e-4;

/// Minimum normalized violation for CutPool::select to hand a cut out.
inline constexpr double kCutSelectTol = 1e-5;

/// Minimum LP value for a variable to count as "supported" when seeding
/// cover-cut candidates.
inline constexpr double kCutSupportTol = 1e-5;

/// Loosened feasibility slack used when screening heuristic dive points
/// before the exact check.
inline constexpr double kHeuristicFeasTol = 1e-5;

/// Cut coefficients below max(kDropCoeffTol, kDropCoeffRel * maxabs) are
/// dropped to keep separated rows well scaled.
inline constexpr double kDropCoeffTol = 1e-11;
inline constexpr double kDropCoeffRel = 1e-8;

/// Probing: minimum bound improvement worth keeping.
inline constexpr double kBoundChangeTol = 1e-6;

}  // namespace insched::lp::tol
