#pragma once

// Instance canonicalization for the scheduling daemon (docs/SERVING.md).
// Two requests that describe the same optimization problem — analyses listed
// in a different order, renamed, or with all times/memories rescaled by a
// constant — must map to the same cache key, or the solution cache degrades
// into an exact-bytes memo. The canonical form quotients out exactly the
// transformations that provably leave the optimal schedule unchanged:
//
//   * analysis order and names: the MILP is symmetric under permuting
//     analyses; names are labels. Analyses are sorted by their canonical
//     parameter tuple and the permutation is recorded so cached solutions
//     can be mapped back into each request's original order.
//   * time scale: every consumer reads the time budget through
//     ScheduleProblem::time_budget() and per-analysis output time through
//     output_time(i), so threshold_kind / sim_time_per_step / bw collapse
//     once times are expressed in budget units. Scaling all of
//     {ft, it, ct, ot} and the budget by one constant leaves the feasible
//     set and the (count-based) objective untouched.
//   * memory scale: memory enters only through comparisons against mth, so
//     memory parameters are expressed in units of mth when it is finite.
//     With no memory cap they are normalized by the largest memory
//     parameter — conservative (distinct irrelevant memory profiles stay
//     distinct) but still rescale-stable.
//
// Weights, steps, and itv are kept raw: the reported objective
// |A| + sum w_i |C_i| is not invariant under weight rescaling, and steps/itv
// are the combinatorial structure itself. The canonical key string is the
// equality guard — fingerprints index the cache, the key confirms the hit,
// so FNV collisions cost a miss, never a wrong schedule.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/scheduler/solver.hpp"

namespace insched::serve {

/// Canonical form of one ScheduleProblem.
struct CanonicalInstance {
  /// Full canonical text; equal keys <=> same problem up to the quotiented
  /// transformations. Used to confirm fingerprint matches.
  std::string key;
  /// FNV-1a of `key`; the cache index.
  std::uint64_t fingerprint = 0;
  /// FNV-1a of the structure-only text (analysis count, steps, the
  /// intervals in request order, output policy, memory-cap finiteness) —
  /// everything that fixes the MILP *shape* and its column order. Requests
  /// of one family start from the family's latest warm-start snapshot
  /// (mip::MipSnapshot) even when their cost numbers differ; the same
  /// analyses in another order are another family, since their columns are.
  std::uint64_t family = 0;
  /// order[k] = index in the request's analysis list of the analysis that
  /// landed in canonical slot k. Applying `order` maps request-order data to
  /// canonical order; its inverse maps cached solutions back.
  std::vector<std::size_t> order;
};

/// FNV-1a 64-bit over bytes (same scheme as mip::CutPool's dedup hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Canonicalizes a problem. The problem is read through its public
/// accessors only; it is not modified and need not pass validate() (the
/// serving layer lints before canonicalizing).
[[nodiscard]] CanonicalInstance canonicalize(const scheduler::ScheduleProblem& problem);

/// Reorders a solution's per-analysis rows from the request's order into
/// canonical order and strips names and the warm-start snapshot — the shape
/// stored in the cache.
[[nodiscard]] scheduler::ScheduleSolution to_canonical_order(
    const scheduler::ScheduleSolution& solution, const std::vector<std::size_t>& order);

/// Inverse of to_canonical_order: maps a cached (canonical-order) solution
/// into `problem`'s analysis order and restores `problem`'s names.
[[nodiscard]] scheduler::ScheduleSolution from_canonical_order(
    const scheduler::ScheduleSolution& canonical, const std::vector<std::size_t>& order,
    const scheduler::ScheduleProblem& problem);

}  // namespace insched::serve
