#pragma once

// Primal heuristics for the MIP solver: they try to turn a fractional LP
// point into an integer-feasible incumbent quickly, which tightens pruning.

#include <optional>
#include <vector>

#include "insched/lp/model.hpp"
#include "insched/lp/simplex.hpp"

namespace insched::mip {

/// Fix-and-solve rounding: round every integer column of `lp_point` to the
/// nearest integer within its bounds, fix those columns, and re-solve the LP
/// for the continuous ones. Returns the full point when feasible.
[[nodiscard]] std::optional<std::vector<double>> round_and_fix(
    const lp::Model& model, const std::vector<double>& lp_point,
    const lp::SimplexOptions& lp_options);

/// Iterative diving: repeatedly fix the least-fractional integer variable to
/// its nearest integer and re-solve, up to `max_depth` re-solves. Cheaper to
/// succeed than plain rounding on tightly coupled models.
[[nodiscard]] std::optional<std::vector<double>> dive(
    const lp::Model& model, const std::vector<double>& lp_point,
    const lp::SimplexOptions& lp_options, int max_depth = 64);

/// Greedy 0->1 polish of an integer-feasible point: flips on, in descending
/// objective-gain order, every binary whose activation keeps all row
/// activities feasible (continuous columns keep their current values). Pure
/// activity arithmetic, no LP solve. Fixes the classic dive failure mode on
/// budget-constrained schedules — the dive strands one affordable analysis
/// step behind an already-rounded window — and returns the number of flips.
int greedy_fill(const lp::Model& model, std::vector<double>* x);

/// Feasibility-restoring companion to greedy_fill for *infeasible* integer
/// points (a stale incumbent after constraint drift): clears violated rows by
/// flipping 0/1 binaries — off the lowest-gain active binary raising a
/// violated <= row, off the binary holding down a violated >= row (or on its
/// cheapest supporter) — until every row is satisfied or the flip budget is
/// exhausted. Never touches continuous columns; rows they dominate (e.g. Eq-6
/// memory recurrences) make it give up and return false. Returns true when
/// `x` ends row- and bound-feasible; callers then re-polish with greedy_fill.
bool greedy_shed(const lp::Model& model, std::vector<double>* x);

}  // namespace insched::mip
