#pragma once

// Warm-delta re-solve engine: solve a MILP once, keep its MipSnapshot (root
// basis over the cut-extended model, the applied cut rows, the pseudo-cost
// table) and its incumbent, then re-solve a *perturbed* sibling of the
// model 10-50x cheaper than a cold start by reusing all of it. The online
// rolling-horizon loop (docs/ONLINE.md) is the customer: measured kernel
// costs drift, the remaining-horizon MILP is rebuilt with the measured
// coefficients, and the re-solve should be nearly free because the basis,
// cuts and incumbent barely change.
//
// What carries over, and why it stays exact:
//  * Root basis — mapped onto the new model by column/row identity (name +
//    occurrence), bound-flipped nonbasics clamped into the new bounds, new
//    rows covered by slack promotion (crash.hpp's extend-with-slacks idea),
//    then handed to the engine as the root basis of the MipSnapshot the
//    re-solve passes in through `MipOptions::snapshot`. The dual
//    simplex restores primal feasibility and a primal cleanup pass clears
//    any dual infeasibility the coefficient changes introduced, so a stale
//    basis can cost pivots but never correctness.
//  * Cut rows — re-validated instead of re-separated. All cuts survive
//    verbatim when the constraint data is unchanged (objective-only
//    perturbations); otherwise all-ones <= cuts (covers, cliques,
//    cardinality MIRs) survive when some nonnegative <= row of the *new*
//    model proves them (the sum of their k+1 smallest coefficients in that
//    row exceeds its rhs), and general-coefficient cuts (lifted covers,
//    Gomory, fractional MIR) are dropped. Surviving cuts are appended to
//    the new model before the solve; dropped ones can be re-separated by
//    the engine when the drop rate is high.
//  * Incumbent — mapped to the new column space and offered through
//    `MipOptions::incumbent_hint` (feasibility-checked, greedy_fill
//    polished), so pruning starts from the old schedule's objective.
//  * Pseudo-costs — mapped per column into that same snapshot, so
//    reliability branching starts trusted.
//
// Everything is advisory: any mapping failure degrades to the ordinary
// crash/cold paths inside solve_mip, so a re-solve is always exact — the
// full branch-and-bound proof machinery runs either way.
//
// Not thread-safe; callers serialize access per context (the serving layer
// keeps one context per solution handle under its own mutex).

#include <memory>
#include <vector>

#include "insched/lp/basis.hpp"
#include "insched/lp/model.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/node_pool.hpp"

namespace insched::mip {

/// Observability counters accumulated across the lifetime of one context.
struct ReSolveCounters {
  long cold_solves = 0;        ///< solve() calls (and resolves with no snapshot)
  long warm_resolves = 0;      ///< resolve() calls that rode the warm path
  long cuts_reused = 0;        ///< cut rows re-injected without re-separation
  long cuts_dropped = 0;       ///< cuts that failed re-validation
  long cuts_repaired = 0;      ///< reused cuts whose rhs was recomputed (weakened)
  long basis_mapped = 0;       ///< resolves that repaired a basis and passed it in
  long basis_skipped = 0;      ///< resolves where mapping failed (crash/cold root)
  long rows_slack_promoted = 0;///< structurally new rows covered by their slack
  long columns_new = 0;        ///< new-model columns with no old counterpart
  long incumbent_seeded = 0;   ///< resolves that offered the old incumbent
};

class ReSolveContext {
 public:
  /// Cold solve + snapshot: solves `model` with presolve/probing disabled
  /// (the snapshot must live in the original column space) and stores the
  /// solve's MipSnapshot, incumbent and a copy of the model. Any options are
  /// honoured except the reduction flags this class owns.
  [[nodiscard]] MipResult solve(const lp::Model& model, MipOptions options = {});

  /// Warm-delta re-solve of a perturbed sibling of the last solved model.
  /// Falls back to solve() when no usable snapshot exists. The result is
  /// exact either way; on success the snapshot is advanced to `model`, so
  /// consecutive resolves chain.
  [[nodiscard]] MipResult resolve(const lp::Model& model, MipOptions options = {});

  /// True when a usable snapshot is stored (a proven-feasible prior solve).
  [[nodiscard]] bool has_snapshot() const noexcept { return snapshot_ != nullptr; }

  [[nodiscard]] const ReSolveCounters& counters() const noexcept { return counters_; }

 private:
  [[nodiscard]] MipResult run_cold(const lp::Model& model, MipOptions options);
  void capture(const lp::Model& model, const MipResult& result);

  lp::Model base_model_;  ///< last solved model, without cut rows
  /// Snapshot of the last solve, rebased onto `base_model_`: `rows` counts
  /// its rows, and `cut_basis` spans them plus every row of `cuts`.
  std::shared_ptr<const MipSnapshot> snapshot_;
  std::vector<double> incumbent_;
  bool has_incumbent_ = false;
  ReSolveCounters counters_;
};

}  // namespace insched::mip
