#pragma once

// Branch-and-bound MIP solver on top of the simplex LP engine. Replaces the
// GAMS + CPLEX 12.6.1 stack the paper used for the in-situ scheduling MILPs.
//
// Features: best-bound parallel tree search over a shared node pool,
// warm-started dual-simplex node re-solves (parent basis copy-on-branch with
// an LRU of factorizations, cold primal fallback on numerical failure),
// reliability branching (pseudo-costs initialized by bounded strong-branch
// dual probes) with cross-thread pseudo-cost sharing, fix-and-solve rounding
// heuristic, probing presolve, a root cutting loop (lifted knapsack covers,
// GUB/clique cuts from the conflict graph, Gomory mixed-integer cuts off the
// LU tableau) feeding a shared cut pool, in-tree separation with
// cut-and-branch restarts, and optional presolve. A single-thread solve is
// bit-identical from run to run, cuts included; more threads reach the same
// proven objective, possibly through a different optimal point. Proves
// optimality (the schedule experiments rely on exact optima, not
// approximations).

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "insched/lp/basis.hpp"
#include "insched/lp/model.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/lp/tolerances.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/node_pool.hpp"

namespace insched::mip {

enum class Branching {
  kMostFractional,
  kPseudoCost,
  /// Pseudo-costs whose per-column estimates are initialized by bounded
  /// strong-branching dual-simplex probes until the column has been observed
  /// four times on each side.
  kReliability,
};

/// Why the search stopped (orthogonal to `MipResult::status`, which keeps
/// the coarse LP-style status for backward compatibility).
enum class MipTermination {
  kProvedOptimal,    ///< tree exhausted with an incumbent
  kProvedInfeasible, ///< tree exhausted without an incumbent
  kNodeLimit,        ///< max_nodes hit; best_bound/gap() reflect the open tree
  kTimeLimit,        ///< time_limit_s hit; best_bound/gap() reflect the open tree
  kWorkLimit,        ///< max_lp_iterations hit; best_bound/gap() reflect the open tree
  kUnbounded,        ///< LP relaxation unbounded
  kNumericalFailure, ///< root relaxation could not be solved
};

[[nodiscard]] const char* to_string(MipTermination termination) noexcept;

/// What one solve learned that a later solve can start from: every solve
/// that solves its root LP hands one out (`MipResult::snapshot`), and any
/// solve takes one in (`MipOptions::snapshot`). It lives in the column space
/// of the model the search ran on, after presolve and probing. A solve reads
/// only `root_basis`, when `columns` and `rows` match its model, and
/// `pseudo_costs`, when the table has one entry per column; anything else is
/// ignored, so a stale snapshot costs pivots, never correctness.
/// `mip::ReSolveContext` maps `cuts` and `cut_basis` onto a perturbed model
/// by name before it passes a snapshot in.
struct MipSnapshot {
  int columns = 0;               ///< structural columns of that model
  int rows = 0;                  ///< its rows, without cut rows
  lp::Basis root_basis;          ///< optimal root LP basis before any cut row
  std::vector<Cut> cuts;         ///< cut rows committed at the root and at restarts, in order
  lp::Basis cut_basis;           ///< latest root basis over rows + cuts
  PseudoCostTable pseudo_costs;  ///< the search's final table
};

struct MipOptions {
  double gap_abs = lp::tol::kGapAbsTol;  ///< terminate when bound-incumbent gap below this
  long max_nodes = 500000;
  /// Wall-clock limit. A non-positive limit expires right after the root LP
  /// and its heuristic, so the result is a deterministic kTimeLimit
  /// truncation (usually with the root-heuristic incumbent), never a crash.
  /// `scheduler::solve_schedule` additionally short-circuits a non-positive
  /// budget before building the MILP at all and degrades to its greedy
  /// fallback (docs/ROBUSTNESS.md).
  double time_limit_s = 120.0;
  /// Deterministic work limit: total simplex iterations across every LP in
  /// the search (0 = unlimited). Unlike time_limit_s this truncates at the
  /// same tree point on every machine; the result reports kWorkLimit with
  /// the usual certified best_bound/gap.
  long max_lp_iterations = 0;
  Branching branching = Branching::kReliability;
  bool use_presolve = true;
  /// Probing presolve over the binary variables before the root LP: fixes
  /// and aggregates columns, records conflict implications for the clique
  /// separator, and tightens row coefficients (see mip/probing.hpp).
  bool use_probing = true;
  /// Crash the root LP from the greedy_fill schedule (lp/crash.hpp): the
  /// feasible greedy point becomes a primal-feasible starting basis and the
  /// root solve reduces to a phase-2 cleanup instead of walking the whole
  /// schedule from the all-slack start. Falls back to the cold primal path
  /// whenever the greedy point is infeasible or the crash solve fails.
  bool use_crash_basis = true;
  /// Run the root cut separators concurrently (one task per enabled family)
  /// on the shared worker pool. Each family separates into a private batch
  /// and the batches merge into the pool in fixed family order, so cut ids
  /// — and a single-thread tree, bit for bit — are identical to the
  /// sequential run.
  bool parallel_separation = true;
  bool use_rounding_heuristic = true;
  /// Cover cuts on binary knapsack rows, with exact sequential lifting.
  bool use_cover_cuts = true;
  /// GUB/clique cuts from interval windows + probing conflict edges.
  bool use_clique_cuts = true;
  /// Gomory mixed-integer cuts from the root LU tableau (root-only: the
  /// slack substitution bakes in the current column bounds).
  bool use_gomory_cuts = true;
  /// Mixed-integer-rounding cuts on binary <= rows (budget rows): rounding
  /// by a row coefficient yields the cardinality bound that closes the
  /// near-equal-cost plateau. Globally valid, so also separated in-tree.
  bool use_mir_cuts = true;
  /// In-tree separation: shallow nodes also run the (globally valid) cover
  /// and clique separators into the shared pool; when enough fresh cuts
  /// accumulate early, the tree is restarted with the cuts appended to the
  /// model (cut-and-branch). Node workspaces are bound to a fixed row set,
  /// so a restart is the only way tree cuts can enter the node LPs.
  bool in_tree_cuts = true;

  /// Worker threads for the tree search; 0 = insched::thread_count().
  /// Requests beyond the machine's hardware concurrency are clamped (extra
  /// workers on an oversubscribed core are pure scheduling overhead for the
  /// sub-millisecond node LPs solved here) unless `oversubscribe` is set.
  /// One worker, the default, repeats its search bit for bit from run to
  /// run; more workers prove the same objective but may return a different
  /// optimal point.
  int threads = 1;
  /// Allow more workers than hardware threads. Off by default; the
  /// concurrency tests enable it so the multi-worker code paths are
  /// exercised even on single-core CI machines.
  bool oversubscribe = false;
  /// Re-solve node LPs with the dual simplex warm-started from the parent
  /// basis; falls back to the cold primal path on numerical failure.
  bool warm_start = true;

  /// Fault-injection spec ("hook:N[:count][,...]", see
  /// support/fault_inject.hpp) armed at solve_mip entry. Empty = none; used
  /// by the resilience tests to exercise the recovery ladder
  /// deterministically.
  std::string fault_spec;

  /// Warm start from an earlier solve (see MipSnapshot): the root LP first
  /// tries a dual restart from its root basis, and reliability branching
  /// seeds from its pseudo-costs. A mismatching or failing warm start falls
  /// back to the crash/cold paths. nullptr = cold.
  std::shared_ptr<const MipSnapshot> snapshot;

  /// Known-good point offered as an incumbent before the tree search starts
  /// (after a feasibility check against the current model; silently ignored
  /// when infeasible or wrongly sized). The re-solve path seeds this with
  /// the previous solve's incumbent so `greedy_fill` polish starts from the
  /// old schedule instead of from scratch. Must be in the original column
  /// space; dropped whenever presolve/probing changed the column set.
  std::vector<double> incumbent_hint;

  lp::SimplexOptions lp;
};

/// Per-phase search counters surfaced for benchmarks and tuning. Every field
/// is a `long` with a row in `kMipCounterFields` below; merging, snapshots
/// and the emitters iterate that table instead of naming fields.
struct MipCounters {
  long warm_solves = 0;      ///< node LPs finished by the warm dual path
  long cold_solves = 0;      ///< node LPs solved from a cold primal start
  long warm_failures = 0;    ///< warm attempts that fell back to cold
  long steals = 0;           ///< nodes popped by a thread that did not create them
  long factor_hits = 0;      ///< LRU factorization cache hits
  long factor_misses = 0;    ///< warm solves that had to refactorize
  long pc_merges = 0;        ///< pseudo-cost table synchronizations
  long heur_warm = 0;        ///< rounding-heuristic LPs solved warm
  long heur_warm_failed = 0; ///< warm heuristic re-solves that found nothing
  long crash_warm = 0;       ///< root LPs finished from the greedy crash basis
  long crash_failed = 0;     ///< crash starts that fell back to the cold path
  long shared_basis_warm = 0;   ///< root LPs dual-restarted from the snapshot's root basis
  long shared_basis_failed = 0; ///< snapshot-basis restarts that fell back
  long pc_seeded = 0;           ///< searches seeded from the snapshot's pseudo-costs
  long cut_warm = 0;         ///< cut-round LPs re-solved dual from the extended basis
  long cut_warm_failed = 0;  ///< extended-basis re-solves that fell back to cold

  // Cutting-plane engine (root rounds + in-tree separation via the pool).
  long cuts_separated = 0;   ///< cuts offered to the pool by all separators
  long cuts_applied = 0;     ///< cuts selected out of the pool
  long cuts_applied_cover = 0;   ///< of cuts_applied: covers, lifted or not
  long cuts_applied_clique = 0;  ///< of cuts_applied: clique cuts
  long cuts_applied_gomory = 0;  ///< of cuts_applied: Gomory mixed-integer cuts
  long cuts_applied_mir = 0;     ///< of cuts_applied: MIR cuts
  long cuts_aged = 0;        ///< pooled cuts dropped by aging
  long cuts_duplicate = 0;   ///< offers rejected as already seen
  long tree_restarts = 0;    ///< cut-and-branch restarts performed
  long conflict_cliques = 0; ///< rows stored whole in the conflict graph's clique table
  long conflict_edges = 0;   ///< explicit conflict-graph edges (partial rows, implications)

  // Numerical-recovery ladder, summed over every LP solve in the search
  // (lp::SimplexResult::recovery), plus the tree-level retry rungs
  // (docs/ROBUSTNESS.md). All zero on a numerically clean run.
  long lp_recover_refactor = 0;  ///< tightened-tau refactorization retries
  long lp_recover_repair = 0;    ///< slack columns substituted into singular bases
  long lp_recover_perturb = 0;   ///< anti-cycling bound perturbations
  long lp_recover_residual = 0;  ///< A x = b drift detections
  long lp_recover_resolve = 0;   ///< in-engine re-solve restarts
  long node_retries = 0;         ///< node LPs re-solved with conservative settings
  long root_retries = 0;         ///< root LPs re-solved with conservative settings

  /// Total recovery actions across LP ladder and tree retries; nonzero with
  /// an optimal result means the resilience layer did its job.
  [[nodiscard]] long recoveries() const noexcept {
    return lp_recover_refactor + lp_recover_repair + lp_recover_perturb +
           lp_recover_residual + lp_recover_resolve + node_retries + root_retries;
  }

  // Probing presolve (filled by solve_mip, which runs probing before the
  // search object exists).
  long probing_probes = 0;      ///< 0/1 assignments propagated
  long probing_fixed = 0;       ///< columns fixed by probing
  long probing_aggregated = 0;  ///< columns substituted out (y == x, y == 1-x)
  long probing_implications = 0;///< conflict implications recorded
  long probing_tightened = 0;   ///< row coefficients tightened
  long probing_work_limited = 0;///< probing passes cut short by the work limit

  // Reliability branching.
  long strong_branch_lps = 0;   ///< bounded strong-branching dual solves

  // Basis-factorization observability, summed over every node LP solve
  // (warm, cold, and heuristic) from lp::SimplexResult::factor_stats.
  long lp_ftran = 0;             ///< FTRAN solves against the LU + eta file
  long lp_btran = 0;             ///< BTRAN solves
  long lp_refactorizations = 0;  ///< sparse LU refactorizations
  long lp_eta_pivots = 0;        ///< product-form eta updates appended
  long lp_rhs_nonzeros = 0;      ///< summed FTRAN/BTRAN input nonzeros
  long lp_rhs_dimension = 0;     ///< summed FTRAN/BTRAN input lengths
  long lp_lu_input_nnz = 0;      ///< summed nonzeros of factorized basis matrices
  long lp_lu_factor_nnz = 0;     ///< summed nonzeros of the resulting L + U factors
  long lp_staircase_orderings = 0;  ///< factorizations using the static staircase pre-order
  long lp_staircase_fallbacks = 0;  ///< factorizations that fell back to Markowitz
  long lp_ftran_dense = 0;       ///< FTRAN solves routed through the dense-mode kernel
  long lp_btran_dense = 0;       ///< BTRAN solves routed through the dense-mode kernel
  /// Peak resident bytes of the factorization LRU cache (LU + eta format).
  long factor_cache_peak_bytes = 0;
  /// Same peak population priced as dense m x m inverses (pre-LU format).
  long factor_cache_peak_dense_bytes = 0;

  /// Average FTRAN/BTRAN right-hand-side density over the whole search.
  [[nodiscard]] double lp_rhs_density() const noexcept {
    return lp_rhs_dimension > 0 ? static_cast<double>(lp_rhs_nonzeros) /
                                      static_cast<double>(lp_rhs_dimension)
                                : 0.0;
  }
  /// LU fill-in over the whole search: factor nonzeros per input nonzero.
  [[nodiscard]] double lp_fill_ratio() const noexcept {
    return lp_lu_input_nnz > 0 ? static_cast<double>(lp_lu_factor_nnz) /
                                     static_cast<double>(lp_lu_input_nnz)
                               : 0.0;
  }
  /// Fraction of factorizations that used the static staircase pre-order.
  [[nodiscard]] double lp_staircase_hit_rate() const noexcept {
    const long total = lp_staircase_orderings + lp_staircase_fallbacks;
    return total > 0 ? static_cast<double>(lp_staircase_orderings) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Merges another record field by field through `kMipCounterFields`:
  /// counts add, peaks take the maximum. Lexicographic tiers and the
  /// probing presolve fold their work into one record this way.
  MipCounters& operator+=(const MipCounters& other) noexcept;
};

/// How a counter combines when two records merge.
enum class CounterMerge { kSum, kMax };

/// One row of the counter table: the field's name as emitters print it, the
/// member it reads, and how it merges.
struct CounterField {
  const char* name;
  long MipCounters::*member;
  CounterMerge merge;
};

/// Every MipCounters field, in declaration order. Each name is spelled as
/// the member is, so a bench key or probe line names the field it shows.
inline constexpr CounterField kMipCounterFields[] = {
    {"warm_solves", &MipCounters::warm_solves, CounterMerge::kSum},
    {"cold_solves", &MipCounters::cold_solves, CounterMerge::kSum},
    {"warm_failures", &MipCounters::warm_failures, CounterMerge::kSum},
    {"steals", &MipCounters::steals, CounterMerge::kSum},
    {"factor_hits", &MipCounters::factor_hits, CounterMerge::kSum},
    {"factor_misses", &MipCounters::factor_misses, CounterMerge::kSum},
    {"pc_merges", &MipCounters::pc_merges, CounterMerge::kSum},
    {"heur_warm", &MipCounters::heur_warm, CounterMerge::kSum},
    {"heur_warm_failed", &MipCounters::heur_warm_failed, CounterMerge::kSum},
    {"crash_warm", &MipCounters::crash_warm, CounterMerge::kSum},
    {"crash_failed", &MipCounters::crash_failed, CounterMerge::kSum},
    {"shared_basis_warm", &MipCounters::shared_basis_warm, CounterMerge::kSum},
    {"shared_basis_failed", &MipCounters::shared_basis_failed, CounterMerge::kSum},
    {"pc_seeded", &MipCounters::pc_seeded, CounterMerge::kSum},
    {"cut_warm", &MipCounters::cut_warm, CounterMerge::kSum},
    {"cut_warm_failed", &MipCounters::cut_warm_failed, CounterMerge::kSum},
    {"cuts_separated", &MipCounters::cuts_separated, CounterMerge::kSum},
    {"cuts_applied", &MipCounters::cuts_applied, CounterMerge::kSum},
    {"cuts_applied_cover", &MipCounters::cuts_applied_cover, CounterMerge::kSum},
    {"cuts_applied_clique", &MipCounters::cuts_applied_clique, CounterMerge::kSum},
    {"cuts_applied_gomory", &MipCounters::cuts_applied_gomory, CounterMerge::kSum},
    {"cuts_applied_mir", &MipCounters::cuts_applied_mir, CounterMerge::kSum},
    {"cuts_aged", &MipCounters::cuts_aged, CounterMerge::kSum},
    {"cuts_duplicate", &MipCounters::cuts_duplicate, CounterMerge::kSum},
    {"tree_restarts", &MipCounters::tree_restarts, CounterMerge::kSum},
    {"conflict_cliques", &MipCounters::conflict_cliques, CounterMerge::kSum},
    {"conflict_edges", &MipCounters::conflict_edges, CounterMerge::kSum},
    {"lp_recover_refactor", &MipCounters::lp_recover_refactor, CounterMerge::kSum},
    {"lp_recover_repair", &MipCounters::lp_recover_repair, CounterMerge::kSum},
    {"lp_recover_perturb", &MipCounters::lp_recover_perturb, CounterMerge::kSum},
    {"lp_recover_residual", &MipCounters::lp_recover_residual, CounterMerge::kSum},
    {"lp_recover_resolve", &MipCounters::lp_recover_resolve, CounterMerge::kSum},
    {"node_retries", &MipCounters::node_retries, CounterMerge::kSum},
    {"root_retries", &MipCounters::root_retries, CounterMerge::kSum},
    {"probing_probes", &MipCounters::probing_probes, CounterMerge::kSum},
    {"probing_fixed", &MipCounters::probing_fixed, CounterMerge::kSum},
    {"probing_aggregated", &MipCounters::probing_aggregated, CounterMerge::kSum},
    {"probing_implications", &MipCounters::probing_implications, CounterMerge::kSum},
    {"probing_tightened", &MipCounters::probing_tightened, CounterMerge::kSum},
    {"probing_work_limited", &MipCounters::probing_work_limited, CounterMerge::kSum},
    {"strong_branch_lps", &MipCounters::strong_branch_lps, CounterMerge::kSum},
    {"lp_ftran", &MipCounters::lp_ftran, CounterMerge::kSum},
    {"lp_btran", &MipCounters::lp_btran, CounterMerge::kSum},
    {"lp_refactorizations", &MipCounters::lp_refactorizations, CounterMerge::kSum},
    {"lp_eta_pivots", &MipCounters::lp_eta_pivots, CounterMerge::kSum},
    {"lp_rhs_nonzeros", &MipCounters::lp_rhs_nonzeros, CounterMerge::kSum},
    {"lp_rhs_dimension", &MipCounters::lp_rhs_dimension, CounterMerge::kSum},
    {"lp_lu_input_nnz", &MipCounters::lp_lu_input_nnz, CounterMerge::kSum},
    {"lp_lu_factor_nnz", &MipCounters::lp_lu_factor_nnz, CounterMerge::kSum},
    {"lp_staircase_orderings", &MipCounters::lp_staircase_orderings, CounterMerge::kSum},
    {"lp_staircase_fallbacks", &MipCounters::lp_staircase_fallbacks, CounterMerge::kSum},
    {"lp_ftran_dense", &MipCounters::lp_ftran_dense, CounterMerge::kSum},
    {"lp_btran_dense", &MipCounters::lp_btran_dense, CounterMerge::kSum},
    {"factor_cache_peak_bytes", &MipCounters::factor_cache_peak_bytes, CounterMerge::kMax},
    {"factor_cache_peak_dense_bytes", &MipCounters::factor_cache_peak_dense_bytes,
     CounterMerge::kMax},
};

// A field added to MipCounters without a table row fails here.
static_assert(sizeof(MipCounters) == std::size(kMipCounterFields) * sizeof(long),
              "every MipCounters field needs a kMipCounterFields row");

struct MipResult {
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  MipTermination termination = MipTermination::kNumericalFailure;
  bool has_solution = false;
  double objective = 0.0;       ///< incumbent objective (model sense)
  double best_bound = 0.0;      ///< proven bound on the optimum (model sense)
  std::vector<double> x;        ///< incumbent point (integral entries rounded exactly)
  long nodes = 0;
  long lp_iterations = 0;
  int cuts_added = 0;
  int threads_used = 1;
  MipCounters counters;
  double solve_seconds = 0.0;
  /// What the solve learned, for the next solve's `MipOptions::snapshot`;
  /// null when the root LP was not solved (or the model had no integers).
  std::shared_ptr<MipSnapshot> snapshot;

  [[nodiscard]] bool optimal() const noexcept {
    return status == lp::SolveStatus::kOptimal && has_solution;
  }
  /// True when the search stopped on a node/time/work limit (never reported
  /// as optimal even when an incumbent exists).
  [[nodiscard]] bool truncated() const noexcept {
    return termination == MipTermination::kNodeLimit ||
           termination == MipTermination::kTimeLimit ||
           termination == MipTermination::kWorkLimit;
  }
  /// Absolute gap between incumbent and proven bound: exactly 0 on a proved
  /// optimum, +inf without an incumbent.
  [[nodiscard]] double gap() const noexcept;
  /// Relative gap: gap() / max(1, |objective|).
  [[nodiscard]] double gap_rel() const noexcept;
};

[[nodiscard]] MipResult solve_mip(const lp::Model& model, const MipOptions& options = {});

}  // namespace insched::mip
