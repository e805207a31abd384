#pragma once

// Sparse revised simplex with bounded variables: a two-phase *primal* cold
// start (artificial variables, phase-1 infeasibility minimization) and a
// *dual* warm-start path that re-solves a bound-perturbed problem from a
// given basis. The LP engine under the branch-and-bound MIP solver: the
// scheduling MILPs the paper solves with CPLEX are solved here instead.
//
// Scope: sparse LU basis factorization with product-form eta updates
// (factor.hpp), hyper-sparse FTRAN/BTRAN, periodic refactorization,
// incremental dual updates, and partial pricing over rotating column blocks
// with devex-weighted scores plus a Bland's-rule fallback for anti-cycling.
// Sized for the staircase time-expanded models this library produces
// (thousands of rows with a handful of nonzeros each).
//
// Warm starts: branch-and-bound children differ from their parent only in
// one tightened column bound, which keeps the parent's optimal basis dual
// feasible. `WarmSimplex` keeps a per-thread workspace bound to one base
// model and re-solves `base + bound overrides` with the dual simplex from a
// `Basis` snapshot (optionally seeded with the parent's `Factorization` to
// skip refactorization).
//
// Resilience: numerical trouble is first *detected* (residual checks after
// every refactorization and at optimal exits, self-validating infeasibility
// proofs, stall counters) and then *recovered* through a bounded ladder —
// refactorization with a tightened Markowitz threshold, singular-basis
// repair by slack substitution, anti-cycling bound perturbation with an
// exact clean-up phase, and a full in-engine re-solve (docs/ROBUSTNESS.md).
// Only when the ladder is exhausted does kNumericalFailure escape to the
// caller, which falls back to the cold primal path. Every rung taken is
// counted in SimplexResult::recovery.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "insched/lp/basis.hpp"
#include "insched/lp/model.hpp"

namespace insched::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

struct SimplexOptions {
  int max_iterations = 200000;    ///< across both phases
  int refactor_interval = 128;    ///< pivots between basis refactorizations
  int price_block_size = 512;     ///< partial-pricing block (<= 0: full Dantzig scan)
  bool collect_basis = false;     ///< export the optimal basis + factorization
  bool want_duals = true;         ///< compute duals/reduced costs on optimal exit
  bool enable_recovery = true;    ///< run the numerical-recovery ladder
  /// Wall-clock deadline checked *inside* the pivot loops (every 256
  /// iterations), not just between solves: a degenerate model can spend
  /// tens of seconds in one simplex call, so a between-calls check alone
  /// lets a 10 s MIP budget overrun to ~70 s. Expiry surfaces as
  /// kIterationLimit — callers on the MIP side map that to their
  /// kTimeLimit/degradation ladder. The default (time_point::max()) never
  /// expires and skips the clock read entirely.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Counters of the numerical-recovery ladder: every detection event and
/// every rung taken during one solve (see docs/ROBUSTNESS.md).
struct RecoveryStats {
  long refactor_tightened = 0;  ///< refactorization retries with tightened tau
  long singular_repairs = 0;    ///< slack columns substituted into a singular basis
  long perturbations = 0;       ///< anti-cycling bound perturbations applied
  long cleanups = 0;            ///< perturbation clean-up phases run
  long residual_failures = 0;   ///< A x = b drift detections
  long resolves = 0;            ///< in-engine re-solve restarts

  [[nodiscard]] long total() const noexcept {
    return refactor_tightened + singular_repairs + perturbations + residual_failures +
           resolves;
  }
};

struct SimplexResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;              ///< in the model's own sense
  std::vector<double> x;               ///< structural variable values
  std::vector<double> duals;           ///< one per row (model sense)
  std::vector<double> reduced_costs;   ///< one per structural column (model sense)
  int iterations = 0;
  int phase1_iterations = 0;
  /// Factorization observability for this solve: ftran/btran call counts,
  /// average right-hand-side density, eta-chain length, refactorizations.
  FactorStats factor_stats;
  /// Recovery-ladder actions taken during this solve (all zero on a clean
  /// run); nonzero counters with kOptimal mean the ladder worked.
  RecoveryStats recovery;

  /// Optimal basis snapshot; filled when `collect_basis` is set, the solve
  /// proved optimality, and no artificial variable remained basic.
  Basis basis;
  /// Basis-inverse snapshot matching `basis` (same conditions).
  std::shared_ptr<const Factorization> factor;

  [[nodiscard]] bool optimal() const noexcept { return status == SolveStatus::kOptimal; }
};

/// Solves the LP relaxation of `model` (integrality marks are ignored) with
/// the two-phase primal simplex from a fresh slack basis.
[[nodiscard]] SimplexResult solve_lp(const Model& model, const SimplexOptions& options = {});

/// One-shot dual warm start: re-solves `model` starting from `start`.
/// Convenience wrapper over WarmSimplex for tests and external callers.
[[nodiscard]] SimplexResult solve_lp_dual(const Model& model, const Basis& start,
                                          const SimplexOptions& options = {});

/// Reusable solve workspace bound to one base model. Not thread-safe; the
/// MIP search keeps one per worker thread. Both entry points solve
/// `base + overrides` where overrides replace column bounds.
class WarmSimplex {
 public:
  explicit WarmSimplex(const Model& base, const SimplexOptions& options = {});
  ~WarmSimplex();
  WarmSimplex(WarmSimplex&&) noexcept;
  WarmSimplex& operator=(WarmSimplex&&) noexcept;

  /// Dual-simplex re-solve from `start` (parent basis). `hint`, when given,
  /// must be the factorization captured together with `start`; it skips the
  /// initial refactorization. Returns kNumericalFailure when the basis
  /// cannot be loaded — callers should fall back to solve_cold.
  [[nodiscard]] SimplexResult solve_dual(const std::vector<BoundOverride>& overrides,
                                         const Basis& start,
                                         const Factorization* hint = nullptr);

  /// Two-phase primal cold solve on the same workspace (the fallback path).
  [[nodiscard]] SimplexResult solve_cold(const std::vector<BoundOverride>& overrides = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace insched::lp
