#pragma once

// Probing presolve over the binary variables of a MIP. For every candidate
// binary x_j both assignments are tried and propagated through the rows with
// activity-bound (interval) arithmetic:
//
//  * probe x_j = v infeasible            -> fix x_j = 1 - v globally;
//  * both probes force the same y = w    -> fix y = w globally;
//  * the probes force y = w0 and y = w1  -> y is an affine function of x_j
//    (y == x_j or y == 1 - x_j): aggregate y away;
//  * probe x_j = 1 forces y = 0 (or vice versa) -> conflict edge, recorded
//    as an implication and fed to the clique separator.
//
// `apply_probing` turns the findings into an `lp::PresolveResult`: fixed and
// aggregated columns are substituted out of every row and the objective, and
// the surviving <=/>= rows get their binary coefficients tightened against
// the row activity bounds (a_j' = a_j - delta, rhs' = rhs - delta with
// delta = rhs - maxact_without_j > 0 cuts fractional points but no integer
// ones). `PresolveResult::restore` re-derives the eliminated columns.
//
// The pass probes at most 2048 binaries, in column order, and stops once
// its row-entry visits reach max(2^20, 32 * nnz); both limits are constants
// in probing.cpp. `ProbingResult::work_limited` reports a pass that the
// visit limit cut short, and `MipCounters::probing_work_limited` carries it
// into the solve's counters.

#include <vector>

#include "insched/lp/model.hpp"
#include "insched/lp/presolve.hpp"

namespace insched::mip {

/// One discovered implication between binary columns: `antecedent == value`
/// forces `consequent == forced`.
struct Implication {
  int antecedent = -1;
  bool value = false;
  int consequent = -1;
  bool forced = false;
};

struct ProbingResult {
  bool infeasible = false;
  /// Columns fixed by probing (indices into the probed model), with values.
  std::vector<int> fixed_columns;
  std::vector<double> fixed_values;
  /// Binary columns that turned out affine in another binary.
  std::vector<lp::AggregatedColumn> aggregations;
  /// Conflict-flavoured implications that survive as neither fixing nor
  /// aggregation (used to extend the clique separator's conflict graph).
  std::vector<Implication> implications;
  long probes = 0;  ///< 0/1 assignments propagated
  bool work_limited = false;  ///< the work limit stopped the pass early

  [[nodiscard]] bool has_reductions() const noexcept {
    return infeasible || !fixed_columns.empty() || !aggregations.empty();
  }
};

[[nodiscard]] ProbingResult probe_binaries(const lp::Model& model);

/// Applies fixings + aggregations to `model`, tightens coefficients, and
/// returns the reduction (with `tightened` reporting how many coefficients
/// moved). Only valid when `!result.infeasible`.
[[nodiscard]] lp::PresolveResult apply_probing(const lp::Model& model,
                                               const ProbingResult& result,
                                               long* tightened = nullptr);

/// Conflict graph over binary columns: an edge (i, j) means x_i + x_j <= 1.
/// A <= / = row in which every pair of positive binaries conflicts (an
/// at-most-one window, a set-packing row) is stored once, as a clique in a
/// per-column table of clique ids; the pairs of any other small row and the
/// probing implications are stored as explicit edges. Queried by the clique
/// separator. This is the clique-table design of Atamturk, Nemhauser and
/// Savelsbergh (EJOR 2000).
class ConflictGraph {
 public:
  ConflictGraph() = default;
  explicit ConflictGraph(int columns)
      : adj_(static_cast<std::size_t>(columns)), cliques_of_(static_cast<std::size_t>(columns)) {}

  /// Replaces the contents with the conflicts implied by `model`'s rows and
  /// by (x=1 -> y=0)-shaped implications. A clique row is stored whatever
  /// its width; a row whose pairs only partly conflict is pair-scanned only
  /// when it has at most `max_row_entries` entries.
  void build(const lp::Model& model, const std::vector<Implication>& implications,
             int max_row_entries = 96);

  /// True when `a` and `b` share a stored clique or an explicit edge.
  [[nodiscard]] bool adjacent(int a, int b) const;
  [[nodiscard]] bool has_conflicts(int a) const {
    const auto j = static_cast<std::size_t>(a);
    return !adj_[j].empty() || !cliques_of_[j].empty();
  }
  [[nodiscard]] bool empty() const noexcept { return edges_ == 0 && cliques_ == 0; }
  [[nodiscard]] int columns() const noexcept { return static_cast<int>(adj_.size()); }
  /// Explicit edges only; pairs covered by a stored clique are not counted.
  [[nodiscard]] long edges() const noexcept { return edges_; }
  [[nodiscard]] long cliques() const noexcept { return cliques_; }

 private:
  void add_edge(int a, int b);

  std::vector<std::vector<int>> adj_;         ///< explicit edges, sorted, deduplicated
  std::vector<std::vector<int>> cliques_of_;  ///< ids of the cliques holding a column, ascending
  long edges_ = 0;
  long cliques_ = 0;
};

}  // namespace insched::mip
