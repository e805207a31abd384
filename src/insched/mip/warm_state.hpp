#pragma once

// Cross-solve warm-start state shared by MIP solves of *related* models —
// the serving layer's "instance family" lever (docs/SERVING.md). A one-shot
// solve pays the full cold start every time: all-slack (or greedy-crash)
// root LP, empty pseudo-cost tables, no memory of where the optimum lives.
// Requests from the same instance family (same steps / analysis structure,
// perturbed costs) produce MILPs of identical shape whose optimal bases and
// branching behaviour are nearly identical, so a long-lived scheduler can
// carry both across solves:
//
//   * the optimal root basis of the previous solve — the next root LP
//     dual-restarts from it and typically finishes in a handful of pivots
//     instead of walking the whole staircase;
//   * the merged pseudo-cost table — reliability branching starts trusted
//     instead of spending strong-branch probes rediscovering the same
//     degradation estimates.
//
// The state is advisory and self-validating: a solve consults it only when
// the stored dimensions match its (presolved) model, and every failure
// falls back to the existing crash/cold paths, so sharing can never turn a
// solvable request into a failed one. Thread-safe — concurrent solves of
// the same family read and publish under one mutex (the payloads are small:
// one basis vector + four pseudo-cost arrays).

#include <optional>

#include "insched/lp/basis.hpp"
#include "insched/mip/node_pool.hpp"
#include "insched/support/thread_annotations.hpp"

namespace insched::mip {

class MipWarmState {
 public:
  /// Root basis of the last solve whose (presolved) model had exactly
  /// `columns` structural columns and `rows` rows; nullopt when the stored
  /// basis is absent or was taken from a different shape.
  [[nodiscard]] std::optional<lp::Basis> root_basis(int columns, int rows) const;

  /// Stores `basis` as the family's root basis (last writer wins — the
  /// freshest optimum is the best predictor for the next perturbation).
  void publish_root_basis(int columns, int rows, const lp::Basis& basis);

  /// Merged pseudo-cost table for a model with `columns` structural
  /// columns; nullopt when nothing matching has been published.
  [[nodiscard]] std::optional<PseudoCostTable> pseudo_costs(int columns) const;

  /// Stores one solve's final pseudo-cost table (last writer wins). The
  /// finishing solve's table already contains the seed it started from plus
  /// its own observations, so replacement keeps the state convergent —
  /// summing here would double the magnitudes on every solve of a family.
  void publish_pseudo_costs(const PseudoCostTable& table);

 private:
  // Global lock order (docs/STATIC_ANALYSIS.md): above the solver-core
  // locks (a solve consults/publishes around, not inside, the search).
  mutable Mutex mu_{"mip.MipWarmState.mu"};
  int basis_columns_ INSCHED_GUARDED_BY(mu_) = -1;
  int basis_rows_ INSCHED_GUARDED_BY(mu_) = -1;
  lp::Basis basis_ INSCHED_GUARDED_BY(mu_);
  int pc_columns_ INSCHED_GUARDED_BY(mu_) = -1;
  PseudoCostTable pc_ INSCHED_GUARDED_BY(mu_);
};

}  // namespace insched::mip
