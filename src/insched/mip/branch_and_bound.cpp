#include "insched/mip/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "insched/lp/crash.hpp"
#include "insched/lp/presolve.hpp"
#include "insched/lp/tolerances.hpp"
#include "insched/mip/cut_pool.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/heuristics.hpp"
#include "insched/mip/node_pool.hpp"
#include "insched/mip/probing.hpp"
#include "insched/support/assert.hpp"
#include "insched/support/fault_inject.hpp"
#include "insched/support/log.hpp"
#include "insched/support/parallel.hpp"

namespace insched::mip {

const char* to_string(MipTermination termination) noexcept {
  switch (termination) {
    case MipTermination::kProvedOptimal: return "proved_optimal";
    case MipTermination::kProvedInfeasible: return "proved_infeasible";
    case MipTermination::kNodeLimit: return "node_limit";
    case MipTermination::kTimeLimit: return "time_limit";
    case MipTermination::kWorkLimit: return "work_limit";
    case MipTermination::kUnbounded: return "unbounded";
    case MipTermination::kNumericalFailure: return "numerical_failure";
  }
  return "unknown";
}

double MipResult::gap() const noexcept {
  if (!has_solution) return std::numeric_limits<double>::infinity();
  if (termination == MipTermination::kProvedOptimal) return 0.0;
  return std::fabs(best_bound - objective);
}

double MipResult::gap_rel() const noexcept {
  const double g = gap();
  if (!std::isfinite(g)) return g;
  return g / std::max(1.0, std::fabs(objective));
}

MipCounters& MipCounters::operator+=(const MipCounters& other) noexcept {
  for (const CounterField& f : kMipCounterFields) {
    long& mine = this->*f.member;
    const long theirs = other.*f.member;
    mine = f.merge == CounterMerge::kMax ? std::max(mine, theirs) : mine + theirs;
  }
  return *this;
}

namespace {

using Clock = std::chrono::steady_clock;

enum class Cause : int { kNone = 0, kNodeLimit = 1, kTimeLimit = 2, kWorkLimit = 3 };

/// Capacity of each tree's LRU of basis factorizations, keyed by node id.
constexpr std::size_t kFactorCacheSize = 32;
/// Processed nodes between merges of a worker's pseudo-cost delta into the
/// shared table.
constexpr long kPcMergeInterval = 32;

// Root cutting loop: rounds, cuts appended per round, Gomory cuts per round;
// selection skips a cut this parallel (cosine) to a selected one, and a
// pooled cut ages out after this many rounds unselected.
constexpr int kMaxCutRounds = 4;
constexpr int kMaxRootCutsPerRound = 64;
constexpr int kMaxGomoryCutsPerRound = 16;
constexpr double kCutMaxParallel = 0.95;
constexpr int kCutMaxAge = 4;
// In-tree separation down to this depth; at most this many cut-and-branch
// restarts, none after this many nodes, each needing this many pooled cuts.
constexpr int kCutNodeDepth = 8;
constexpr int kMaxTreeRestarts = 2;
constexpr long kRestartNodeBudget = 2048;
constexpr int kMinRestartCuts = 8;
// Reliability branching: observations per side before a pseudo-cost is
// trusted; columns probed per node (2 LPs each), pivots per probe, depth.
constexpr long kReliableObservations = 4;
constexpr int kStrongBranchCandidates = 8;
constexpr int kStrongBranchIterations = 100;
constexpr int kStrongBranchDepth = 16;

/// Everything observable from one LP solve, as MipCounters fields:
/// factorization stats plus any recovery-ladder rungs the engine had to
/// take. `add(field, by)` accumulates one field.
template <class Add>
void for_each_lp_stat(const lp::SimplexResult& res, Add&& add) {
  const lp::FactorStats& fs = res.factor_stats;
  add(&MipCounters::lp_ftran, fs.ftran_calls);
  add(&MipCounters::lp_btran, fs.btran_calls);
  add(&MipCounters::lp_refactorizations, fs.refactorizations);
  add(&MipCounters::lp_eta_pivots, fs.eta_pivots);
  add(&MipCounters::lp_rhs_nonzeros, fs.rhs_nonzeros);
  add(&MipCounters::lp_rhs_dimension, fs.rhs_dimension);
  add(&MipCounters::lp_lu_input_nnz, fs.lu_input_nnz);
  add(&MipCounters::lp_lu_factor_nnz, fs.lu_factor_nnz);
  add(&MipCounters::lp_staircase_orderings, fs.staircase_orderings);
  add(&MipCounters::lp_staircase_fallbacks, fs.staircase_fallbacks);
  add(&MipCounters::lp_ftran_dense, fs.ftran_dense);
  add(&MipCounters::lp_btran_dense, fs.btran_dense);
  const lp::RecoveryStats& rc = res.recovery;
  if (rc.total() == 0) return;
  add(&MipCounters::lp_recover_refactor, rc.refactor_tightened);
  add(&MipCounters::lp_recover_repair, rc.singular_repairs);
  add(&MipCounters::lp_recover_perturb, rc.perturbations);
  add(&MipCounters::lp_recover_residual, rc.residual_failures);
  add(&MipCounters::lp_recover_resolve, rc.resolves);
}

class Search {
 public:
  Search(const lp::Model& model, const MipOptions& opt,
         std::vector<Implication> implications = {})
      : base_(model), opt_(opt), implications_(std::move(implications)) {
    maximize_ = model.sense() == lp::Sense::kMaximize;
    // Objective-integrality detection: when every integer column has an
    // integral objective coefficient and every continuous column has none,
    // all attainable objective values live on the lattice constant + Z, so
    // node bounds can be rounded to the next lattice point before pruning.
    obj_integral_ = true;
    for (int j = 0; j < model.num_columns() && obj_integral_; ++j) {
      const lp::Column& c = model.column(j);
      if (c.type == lp::VarType::kContinuous) {
        obj_integral_ = c.objective == 0.0;
      } else {
        obj_integral_ = std::fabs(c.objective - std::round(c.objective)) <= lp::tol::kCoeffTol;
      }
    }
    const double ic = internal(model.objective_constant());
    obj_lattice_offset_ = ic - std::floor(ic);
  }

  MipResult run();

 private:
  // Internally everything is a minimization: `internal(v)` flips sign for max.
  [[nodiscard]] double internal(double v) const noexcept { return maximize_ ? -v : v; }
  /// Rounds an internal (minimization) lower bound up to the next attainable
  /// objective lattice point when the objective is integral. Closes the
  /// fractional plateau left by near-equal analysis costs: a node with bound
  /// incumbent + 0.3 can never improve on the incumbent.
  [[nodiscard]] double tighten(double bound) const noexcept {
    if (!obj_integral_ || !std::isfinite(bound)) return bound;
    return obj_lattice_offset_ + std::ceil(bound - obj_lattice_offset_ - lp::tol::kIntTol);
  }
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void set_cause(Cause c) {
    int expected = 0;
    cause_.compare_exchange_strong(expected, static_cast<int>(c), std::memory_order_relaxed);
  }

  [[nodiscard]] bool cuts_enabled() const {
    return opt_.use_cover_cuts || opt_.use_clique_cuts || opt_.use_gomory_cuts ||
           opt_.use_mir_cuts;
  }
  bool apply_cuts(const std::vector<Cut>& cuts, lp::SimplexResult* root);
  bool separate_root(lp::SimplexResult* root);
  void separate_in_tree(const SearchNode& node, const std::vector<double>& x);
  [[nodiscard]] NodePtr try_restart();

  [[nodiscard]] int pick_branch_var(const SearchNode& node, const std::vector<double>& x,
                                    double node_bound, const PseudoCostTable& pc_read,
                                    PseudoCostTable& pc_write, const lp::Basis* basis,
                                    const lp::Factorization* hint, lp::WarmSimplex* sb_ws);
  void offer_point(const std::vector<double>& x, long node_id);
  void try_integral_incumbent(const std::vector<double>& xrel, long node_id);
  [[nodiscard]] std::optional<std::vector<double>> warm_round_and_fix(
      lp::WarmSimplex& ws, const SearchNode& node, const std::vector<double>& xrel,
      const lp::Basis& basis, const lp::Factorization* hint);
  [[nodiscard]] std::optional<std::vector<double>> warm_dive(
      lp::WarmSimplex& ws, const SearchNode& node, const std::vector<double>& xrel,
      const lp::Basis& basis, const lp::Factorization* hint, int max_depth);
  void node_heuristic(lp::WarmSimplex* heur_ws, const SearchNode& node,
                      const std::vector<double>& xrel,
                      const std::shared_ptr<const lp::Basis>& basis,
                      const lp::Factorization* hint, long node_id);
  lp::SimplexResult solve_node(lp::WarmSimplex& ws, const SearchNode& node,
                               const lp::Factorization* hint);
  void process_solved(int tid, const NodePtr& node, lp::SimplexResult&& rel,
                      const PseudoCostTable& pc_read, PseudoCostTable& pc_write,
                      lp::WarmSimplex* heur_ws, lp::WarmSimplex* sb_ws);

  void run_tree(int threads, NodePtr root_node);
  void tree_worker(int tid);
  void finalize(bool proved);

  lp::Model base_;
  MipOptions opt_;
  bool maximize_ = false;
  bool obj_integral_ = false;
  double obj_lattice_offset_ = 0.0;
  int n_ = 0;
  Clock::time_point start_;

  // Root relaxation solved once up front; the root node consumes it instead
  // of re-solving.
  lp::SimplexResult root_result_;
  bool root_pending_ = false;

  Incumbent incumbent_;
  std::unique_ptr<NodePool> pool_;
  std::unique_ptr<FactorCache> cache_;
  std::unique_ptr<SharedPseudoCosts> shared_pc_;

  // Cutting-plane engine: concurrent pool fed by the root rounds and the
  // in-tree separators, conflict graph for the clique cuts, last root point
  // for restart-time selection. `restarts_done_` only changes between tree
  // runs (single-threaded), so a plain int is race-free.
  std::unique_ptr<CutPool> cut_pool_;
  ConflictGraph conflicts_;
  std::vector<Implication> implications_;
  std::vector<double> root_x_;
  // The snapshot finalize() hands out: the clean root basis, every cut row
  // committed by apply_cuts in append order, the latest root basis over
  // them, and the final pseudo-cost table. All written on the coordinating
  // thread (root phase / post-search), so a plain member is race-free.
  MipSnapshot snapshot_;
  std::atomic<bool> restart_requested_{false};
  int restarts_done_ = 0;

  std::atomic<long> nodes_{0};
  std::atomic<long> lp_iterations_{0};
  std::atomic<long> next_id_{1};
  std::atomic<int> cause_{static_cast<int>(Cause::kNone)};
  // The search's own tally. Workers bump it concurrently through bump();
  // nothing reads it until the workers have joined, when finalize() and the
  // root bail take their snapshot. The steals, pc_merges, cut-pool,
  // factor-cache and restart fields are copied from their owners once the
  // workers have joined.
  MipCounters counters_;

  static_assert(std::atomic_ref<long>::required_alignment <= alignof(long));
  void bump(long MipCounters::*field, long by = 1) noexcept {
    std::atomic_ref<long>(counters_.*field).fetch_add(by, std::memory_order_relaxed);
  }

  void add_lp_stats(const lp::SimplexResult& res) {
    for_each_lp_stat(res, [this](long MipCounters::*field, long by) { bump(field, by); });
  }

  [[nodiscard]] bool work_limit_hit() const noexcept {
    return opt_.max_lp_iterations > 0 &&
           lp_iterations_.load(std::memory_order_relaxed) >= opt_.max_lp_iterations;
  }

  double trunc_open_bound_ = std::numeric_limits<double>::infinity();

  MipResult result_;
};

int Search::pick_branch_var(const SearchNode& node, const std::vector<double>& x,
                            double node_bound, const PseudoCostTable& pc_read,
                            PseudoCostTable& pc_write, const lp::Basis* basis,
                            const lp::Factorization* hint, lp::WarmSimplex* sb_ws) {
  struct Cand {
    int j;
    double v;
    double score;
  };
  const bool pc_scores = opt_.branching != Branching::kMostFractional;
  std::vector<Cand> cands;
  for (int j = 0; j < n_; ++j) {
    const lp::Column& c = base_.column(j);
    if (c.type == lp::VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double dist = std::fabs(v - std::round(v));
    if (dist <= lp::tol::kIntTol) continue;
    double score;
    const auto js = static_cast<std::size_t>(j);
    if (pc_scores && pc_read.up_n[js] + pc_read.down_n[js] > 0) {
      const double up = pc_read.up_n[js] > 0
                            ? pc_read.up_sum[js] / static_cast<double>(pc_read.up_n[js])
                            : 1.0;
      const double down = pc_read.down_n[js] > 0
                              ? pc_read.down_sum[js] / static_cast<double>(pc_read.down_n[js])
                              : 1.0;
      const double f = v - std::floor(v);
      // Product rule: balanced degradation on both children scores high.
      score = std::max(up * (1.0 - f), lp::tol::kScoreFloor) * std::max(down * f, lp::tol::kScoreFloor);
    } else {
      // Most-fractional: distance from the nearest integer.
      score = dist;
    }
    cands.push_back(Cand{j, v, score});
  }
  if (cands.empty()) return -1;

  // Reliability branching: while a candidate's pseudo-cost rests on fewer
  // than kReliableObservations per side, replace its estimated score by
  // two bounded strong-branching dual probes from this node's own optimal
  // basis. Optimal probes feed the pseudo-cost table, so probing pays for
  // itself and dies out as the table matures.
  if (opt_.branching == Branching::kReliability && sb_ws && basis && !basis->empty() &&
      node.depth <= kStrongBranchDepth) {
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      return a.score != b.score ? a.score > b.score : a.j < b.j;
    });
    int probed = 0;
    for (Cand& c : cands) {
      if (probed >= kStrongBranchCandidates) break;
      // Observations count from both the shared snapshot and this worker's
      // unmerged delta.
      const auto js = static_cast<std::size_t>(c.j);
      const long up_n = pc_read.up_n[js] + pc_write.up_n[js];
      const long down_n = pc_read.down_n[js] + pc_write.down_n[js];
      if (std::min(up_n, down_n) >= kReliableObservations) continue;
      ++probed;

      // Effective bounds of c.j at this node (later overrides win).
      double lo = base_.column(c.j).lower;
      double hi = base_.column(c.j).upper;
      for (const lp::BoundOverride& o : node.bounds) {
        if (o.column == c.j) {
          lo = o.lower;
          hi = o.upper;
        }
      }
      const double floor_v = std::floor(c.v);
      const double f = c.v - floor_v;
      const double up_avg =
          pc_read.up_n[js] > 0 ? pc_read.up_sum[js] / static_cast<double>(pc_read.up_n[js])
                               : 1.0;
      const double down_avg = pc_read.down_n[js] > 0
                                  ? pc_read.down_sum[js] /
                                        static_cast<double>(pc_read.down_n[js])
                                  : 1.0;
      // A child proven infeasible closes a whole side — score it as a very
      // large degradation without polluting the pseudo-cost averages.
      const double cutoff = std::max(1.0, std::fabs(node_bound)) * 1e3;
      const auto probe = [&](double clo, double chi, bool up_dir, double dist,
                             double estimate) -> double {
        std::vector<lp::BoundOverride> ov = node.bounds;
        ov.push_back({c.j, clo, chi});
        bump(&MipCounters::strong_branch_lps);
        const lp::SimplexResult res = sb_ws->solve_dual(ov, *basis, hint);
        add_lp_stats(res);
        lp_iterations_.fetch_add(res.iterations, std::memory_order_relaxed);
        if (res.status == lp::SolveStatus::kOptimal) {
          const double deg = std::max(0.0, internal(res.objective) - node_bound);
          pc_write.record(c.j, up_dir, deg, std::max(dist, 1e-3));
          return deg;
        }
        if (res.status == lp::SolveStatus::kInfeasible) return cutoff;
        // Iteration limit or numerical trouble: no objective to trust, keep
        // the pseudo-cost estimate and leave the table untouched.
        return estimate;
      };
      const double down_deg = floor_v >= lo - lp::tol::kCoeffTol
                                  ? probe(lo, floor_v, /*up_dir=*/false, f, down_avg * f)
                                  : cutoff;
      const double up_deg = floor_v + 1.0 <= hi + lp::tol::kCoeffTol
                                ? probe(floor_v + 1.0, hi, /*up_dir=*/true, 1.0 - f,
                                        up_avg * (1.0 - f))
                                : cutoff;
      c.score = std::max(up_deg, lp::tol::kScoreFloor) * std::max(down_deg, lp::tol::kScoreFloor);
    }
  }

  int pick = -1;
  double best = -1.0;
  for (const Cand& c : cands) {
    if (c.score > best) {
      best = c.score;
      pick = c.j;
    }
  }
  return pick;
}

void Search::offer_point(const std::vector<double>& x, long node_id) {
  // Polish before offering: dives routinely strand one affordable binary at 0
  // behind an already-rounded window, leaving the incumbent exactly one unit
  // below the optimum — on near-symmetric budget plateaus that gap is never
  // closed by branching. The greedy fill flips such binaries back on with
  // pure row-activity arithmetic, and its result dominates `x` whenever it
  // flips anything, so only the better of the two points is offered.
  std::vector<double> polished = x;
  if (greedy_fill(base_, &polished) > 0 && base_.is_feasible(polished, lp::tol::kResidualTol)) {
    incumbent_.offer(internal(base_.objective_value(polished)), polished, node_id);
    return;
  }
  incumbent_.offer(internal(base_.objective_value(x)), x, node_id);
}

void Search::try_integral_incumbent(const std::vector<double>& xrel, long node_id) {
  std::vector<double> x = xrel;
  for (int j = 0; j < n_; ++j) {
    if (base_.column(j).type != lp::VarType::kContinuous)
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
  }
  if (base_.is_feasible(x, lp::tol::kHeuristicFeasTol)) offer_point(x, node_id);
}

// Fix-and-solve rounding heuristic on the warm workspace: fixing every
// integer column to its rounded value is a pure bound change, so the node's
// optimal basis re-solves in a handful of dual pivots instead of copying the
// model and running a cold two-phase primal. A failed heuristic is harmless,
// so infeasible/unstable outcomes just return nullopt.
std::optional<std::vector<double>> Search::warm_round_and_fix(
    lp::WarmSimplex& ws, const SearchNode& node, const std::vector<double>& xrel,
    const lp::Basis& basis, const lp::Factorization* hint) {
  std::vector<lp::BoundOverride> overrides = node.bounds;
  bool any_integer = false;
  for (int j = 0; j < n_; ++j) {
    const lp::Column& c = base_.column(j);
    if (c.type == lp::VarType::kContinuous) continue;
    any_integer = true;
    // Effective bounds of j at this node (later overrides win).
    double lo = c.lower, hi = c.upper;
    for (const lp::BoundOverride& o : node.bounds) {
      if (o.column == j) {
        lo = o.lower;
        hi = o.upper;
      }
    }
    double r = std::round(xrel[static_cast<std::size_t>(j)]);
    r = std::max(r, std::ceil(lo - lp::tol::kCoeffTol));
    r = std::min(r, std::floor(hi + lp::tol::kCoeffTol));
    if (r < lo - lp::tol::kCoeffTol || r > hi + lp::tol::kCoeffTol) return std::nullopt;
    overrides.push_back({j, r, r});
  }
  if (!any_integer) return xrel;

  bump(&MipCounters::heur_warm);
  const lp::SimplexResult res = ws.solve_dual(overrides, basis, hint);
  add_lp_stats(res);
  if (!res.optimal()) {
    bump(&MipCounters::heur_warm_failed);
    return std::nullopt;
  }
  std::vector<double> x = res.x;
  // Snap the integers exactly to avoid tolerance drift downstream.
  for (int j = 0; j < n_; ++j) {
    if (base_.column(j).type != lp::VarType::kContinuous)
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
  }
  if (!base_.is_feasible(x, lp::tol::kIntTol)) return std::nullopt;
  return x;
}

// Warm iterative diving: repeatedly fix the least-fractional unfixed integer
// variable to its nearest in-bounds integer and dual-re-solve, chaining each
// step from the previous step's exported basis and factorization — every
// re-solve is a one-bound perturbation, so a dive that cost max_depth cold
// two-phase solves now costs a few dual pivots per step. Mirrors
// heuristics.cpp dive(); like all heuristics, failure is harmless.
std::optional<std::vector<double>> Search::warm_dive(lp::WarmSimplex& ws,
                                                     const SearchNode& node,
                                                     const std::vector<double>& xrel,
                                                     const lp::Basis& basis,
                                                     const lp::Factorization* hint,
                                                     int max_depth) {
  // Effective bounds at this node.
  std::vector<double> lo(static_cast<std::size_t>(n_)), hi(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    lo[static_cast<std::size_t>(j)] = base_.column(j).lower;
    hi[static_cast<std::size_t>(j)] = base_.column(j).upper;
  }
  for (const lp::BoundOverride& o : node.bounds) {
    lo[static_cast<std::size_t>(o.column)] = o.lower;
    hi[static_cast<std::size_t>(o.column)] = o.upper;
  }

  std::vector<lp::BoundOverride> overrides = node.bounds;
  std::vector<double> current = xrel;
  lp::Basis cur_basis = basis;
  std::shared_ptr<const lp::Factorization> cur_factor;  // keeps the hint alive
  const lp::Factorization* cur_hint = hint;
  std::vector<bool> fixed(static_cast<std::size_t>(n_), false);

  for (int depth = 0; depth < max_depth; ++depth) {
    // Pick the least-fractional unfixed integer variable.
    int pick = -1;
    double best_dist = 0.5 + lp::tol::kCoeffTol;
    for (int j = 0; j < n_; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (base_.column(j).type == lp::VarType::kContinuous) continue;
      if (fixed[js] || lo[js] == hi[js]) continue;
      const double v = current[js];
      const double dist = std::fabs(v - std::round(v));
      if (dist <= lp::tol::kIntTol) continue;
      if (dist < best_dist) {
        best_dist = dist;
        pick = j;
      }
    }
    if (pick < 0) {
      // All integral: finish with a fix-and-solve from the dive's basis
      // (also fixes near-integral drift and re-checks feasibility).
      SearchNode dived;
      dived.bounds = std::move(overrides);
      return warm_round_and_fix(ws, dived, current, cur_basis, cur_hint);
    }
    const auto ps = static_cast<std::size_t>(pick);
    const double v = current[ps];
    double nearest = std::round(v);
    nearest = std::max(nearest, std::ceil(lo[ps] - lp::tol::kCoeffTol));
    nearest = std::min(nearest, std::floor(hi[ps] + lp::tol::kCoeffTol));
    // Nearest first; if that direction is LP-infeasible, try the other side.
    const double other = nearest >= v
                             ? std::max(nearest - 1.0, std::ceil(lo[ps] - lp::tol::kCoeffTol))
                             : std::min(nearest + 1.0, std::floor(hi[ps] + lp::tol::kCoeffTol));
    overrides.push_back({pick, nearest, nearest});
    lp::SimplexResult res = ws.solve_dual(overrides, cur_basis, cur_hint);
    add_lp_stats(res);
    if (!res.optimal() && other != nearest) {
      overrides.back() = {pick, other, other};
      res = ws.solve_dual(overrides, cur_basis, cur_hint);
      add_lp_stats(res);
    }
    if (!res.optimal()) return std::nullopt;
    fixed[ps] = true;
    current = std::move(res.x);
    if (!res.basis.empty()) {
      cur_basis = std::move(res.basis);
      cur_factor = res.factor;  // matches cur_basis by construction
      cur_hint = cur_factor.get();
    }
  }
  return std::nullopt;
}

void Search::node_heuristic(lp::WarmSimplex* heur_ws, const SearchNode& node,
                            const std::vector<double>& xrel,
                            const std::shared_ptr<const lp::Basis>& basis,
                            const lp::Factorization* hint, long node_id) {
  if (heur_ws && basis && !basis->empty()) {
    if (auto x = warm_round_and_fix(*heur_ws, node, xrel, *basis, hint))
      offer_point(*x, node_id);
    return;
  }
  // No usable basis: fall back to the model-copying cold path.
  lp::Model local = base_;
  for (const lp::BoundOverride& o : node.bounds) local.set_bounds(o.column, o.lower, o.upper);
  if (auto x = round_and_fix(local, xrel, opt_.lp)) offer_point(*x, node_id);
}

lp::SimplexResult Search::solve_node(lp::WarmSimplex& ws, const SearchNode& node,
                                     const lp::Factorization* hint) {
  if (opt_.warm_start && node.warm_basis && !node.warm_basis->empty()) {
    bump(hint ? &MipCounters::factor_hits : &MipCounters::factor_misses);
    lp::SimplexResult res = ws.solve_dual(node.bounds, *node.warm_basis, hint);
    add_lp_stats(res);
    // Optimal outcomes are residual-checked and infeasibility proofs are
    // self-validating inside the dual loop (br * B = e_r plus the
    // sub-tolerance-column slack bound), so both can be trusted even when
    // the product-form hint has drifted. Anything else falls back cold.
    if (res.status == lp::SolveStatus::kOptimal ||
        res.status == lp::SolveStatus::kInfeasible) {
      bump(&MipCounters::warm_solves);
      return res;
    }
    bump(&MipCounters::warm_failures);
  }
  bump(&MipCounters::cold_solves);
  lp::SimplexResult cold = ws.solve_cold(node.bounds);
  add_lp_stats(cold);
  if (cold.status != lp::SolveStatus::kNumericalFailure || !opt_.lp.enable_recovery)
    return cold;

  // Last tree-level rung: even the cold primal failed numerically, which on
  // these models means the shared workspace state (eta drift, pricing
  // weights) is suspect rather than the subproblem itself. Re-solve once
  // from scratch on a throwaway workspace with conservative settings — full
  // Dantzig pricing, frequent refactorization — before dropping the node
  // (dropping an unsolved node silently weakens the optimality proof).
  bump(&MipCounters::node_retries);
  lp::SimplexOptions careful = opt_.lp;
  careful.collect_basis = true;
  careful.want_duals = false;
  careful.price_block_size = 0;
  careful.refactor_interval = 32;
  lp::WarmSimplex fresh(base_, careful);
  lp::SimplexResult retry = fresh.solve_cold(node.bounds);
  add_lp_stats(retry);
  return retry;
}

// In-tree separation: shallow non-root nodes run the bound-independent
// separators (covers and cliques come from rows + global bounds, so cuts
// found anywhere in the tree are valid everywhere; GMI stays root-only) into
// the shared pool. Once enough fresh cuts accumulate early in the search, a
// cut-and-branch restart is requested: node workspaces are bound to a fixed
// row set, so restarting the tree on the extended model is the only way
// these cuts can reach the node LPs.
void Search::separate_in_tree(const SearchNode& node, const std::vector<double>& x) {
  if (!opt_.in_tree_cuts || !cut_pool_) return;
  if (!(opt_.use_cover_cuts || opt_.use_clique_cuts || opt_.use_mir_cuts)) return;
  if (node.depth == 0 || node.depth > kCutNodeDepth) return;
  if (restarts_done_ >= kMaxTreeRestarts) return;
  if (nodes_.load(std::memory_order_relaxed) > kRestartNodeBudget) return;
  // Injected separator failure: cuts are optional, so the round just yields
  // nothing — the search must still prove the optimum from branching alone.
  if (fault::enabled() && fault::should_fail(fault::Hook::kCutSeparation)) return;
  int fresh = 0;
  if (opt_.use_cover_cuts) fresh += cut_pool_->add_all(generate_cover_cuts(base_, x));
  if (opt_.use_clique_cuts)
    fresh += cut_pool_->add_all(generate_clique_cuts(base_, x, conflicts_));
  if (opt_.use_mir_cuts)
    fresh += cut_pool_->add_all(generate_mir_cuts(base_, x));
  if (fresh > 0 && cut_pool_->size() >= kMinRestartCuts &&
      !restart_requested_.load(std::memory_order_relaxed)) {
    restart_requested_.store(true, std::memory_order_relaxed);
    pool_->stop();  // drain the workers; run_tree restarts
  }
}

void Search::process_solved(int tid, const NodePtr& node, lp::SimplexResult&& rel,
                            const PseudoCostTable& pc_read, PseudoCostTable& pc_write,
                            lp::WarmSimplex* heur_ws, lp::WarmSimplex* sb_ws) {
  if (!rel.optimal()) return;  // infeasible or numerical trouble: drop the node
  const double bound = internal(rel.objective);

  // Charge the LP bound movement of this node relative to its parent to the
  // variable branched at the parent, scaled by its fractionality there.
  if (!node->bounds.empty()) {
    const lp::BoundOverride& o = node->bounds.back();
    const bool was_up = o.upper >= base_.column(o.column).upper - lp::tol::kCoeffTol;
    pc_write.record(o.column, was_up, std::max(0.0, bound - node->parent_bound),
                    std::max(node->branch_frac, 1e-3));
  }

  if (incumbent_.has() && tighten(bound) >= incumbent_.bound() - opt_.gap_abs) return;

  separate_in_tree(*node, rel.x);

  // Copy-on-branch: both children share one immutable snapshot of the
  // parent's optimal basis. Built before branching so the strong-branch
  // probes can start from it.
  std::shared_ptr<const lp::Basis> basis;
  if (!rel.basis.empty()) basis = std::make_shared<lp::Basis>(std::move(rel.basis));

  const int branch_var = pick_branch_var(*node, rel.x, bound, pc_read, pc_write,
                                         basis.get(), rel.factor.get(), sb_ws);
  if (branch_var < 0) {
    try_integral_incumbent(rel.x, node->id);
    return;
  }

  // Occasional node heuristic on shallow nodes, warm-started from this
  // node's own basis and factorization.
  if (opt_.use_rounding_heuristic && node->depth <= 2)
    node_heuristic(heur_ws, *node, rel.x, basis, rel.factor.get(), node->id);

  const double v = rel.x[static_cast<std::size_t>(branch_var)];
  const double floor_v = std::floor(v);
  const double frac = v - floor_v;

  // Effective bounds of the branch variable at this node (later overrides on
  // the same column win, matching sequential set_bounds application).
  double lo = base_.column(branch_var).lower;
  double hi = base_.column(branch_var).upper;
  for (const lp::BoundOverride& o : node->bounds) {
    if (o.column == branch_var) {
      lo = o.lower;
      hi = o.upper;
    }
  }

  auto make_child = [&](double clo, double chi) {
    auto child = std::make_shared<SearchNode>();
    child->bounds = node->bounds;
    child->bounds.push_back({branch_var, clo, chi});
    child->parent_bound = bound;
    child->depth = node->depth + 1;
    child->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    child->parent_id = node->id;
    child->branch_frac = frac;
    child->warm_basis = basis;
    pool_->push(std::move(child), tid);
  };
  // Down child: x <= floor(v); up child: x >= ceil(v).
  if (floor_v >= lo - lp::tol::kCoeffTol) make_child(lo, floor_v);
  if (floor_v + 1.0 <= hi + lp::tol::kCoeffTol) make_child(floor_v + 1.0, hi);
}

void Search::tree_worker(int tid) {
  // Workspaces are built lazily at the first popped node: on small trees
  // (or oversubscribed machines) most workers never get one, and the dense
  // workspace allocations would dominate their cost.
  std::optional<lp::WarmSimplex> ws;
  std::optional<lp::WarmSimplex> heur_ws;
  std::optional<lp::WarmSimplex> sb_ws;
  auto ensure_workspaces = [&] {
    if (ws) return;
    lp::SimplexOptions lpopt = opt_.lp;
    lpopt.collect_basis = true;
    lpopt.want_duals = false;
    ws.emplace(base_, lpopt);
    lp::SimplexOptions heur_lpopt = opt_.lp;
    heur_lpopt.collect_basis = false;
    heur_lpopt.want_duals = false;
    heur_ws.emplace(base_, heur_lpopt);
    if (opt_.branching == Branching::kReliability) {
      lp::SimplexOptions sb_lpopt = opt_.lp;
      sb_lpopt.collect_basis = false;
      sb_lpopt.want_duals = false;
      sb_lpopt.max_iterations = kStrongBranchIterations;
      sb_ws.emplace(base_, sb_lpopt);
    }
  };
  FactorCache& cache = *cache_;
  PseudoCostTable pc_read = shared_pc_->snapshot();
  PseudoCostTable pc_delta;
  pc_delta.resize(n_);
  long since_merge = 0;

  while (NodePtr node = pool_->pop(tid)) {
    const long processed = nodes_.load(std::memory_order_relaxed);
    if (processed >= opt_.max_nodes || work_limit_hit() ||
        elapsed_s() > opt_.time_limit_s) {
      set_cause(processed >= opt_.max_nodes ? Cause::kNodeLimit
                : work_limit_hit()          ? Cause::kWorkLimit
                                            : Cause::kTimeLimit);
      // Keep the node's bound visible to the final best_bound accounting.
      pool_->push(std::move(node), tid);
      pool_->task_done(tid);
      pool_->stop();
      break;
    }
    if (incumbent_.has() &&
        tighten(node->parent_bound) >= incumbent_.bound() - opt_.gap_abs) {
      pool_->task_done(tid);
      continue;
    }
    nodes_.fetch_add(1, std::memory_order_relaxed);

    ensure_workspaces();
    lp::SimplexResult rel;
    if (node->id == 0 && root_pending_) {
      // Only one worker ever pops the root node.
      root_pending_ = false;
      rel = std::move(root_result_);
    } else {
      std::shared_ptr<const lp::Factorization> hint;
      if (node->parent_id >= 0) hint = cache.get(node->parent_id);
      rel = solve_node(*ws, *node, hint.get());
      lp_iterations_.fetch_add(rel.iterations, std::memory_order_relaxed);
    }
    if (rel.optimal() && rel.factor) cache.put(node->id, rel.factor);

    process_solved(tid, node, std::move(rel), pc_read, pc_delta, &*heur_ws,
                   sb_ws ? &*sb_ws : nullptr);

    if (++since_merge >= kPcMergeInterval) {
      shared_pc_->merge(&pc_delta, &pc_read);
      since_merge = 0;
    }
    pool_->task_done(tid);
  }
  if (since_merge > 0) shared_pc_->merge(&pc_delta, nullptr);
}

void Search::run_tree(int threads, NodePtr root_node) {
  shared_pc_ = std::make_unique<SharedPseudoCosts>(n_);
  if (opt_.snapshot && static_cast<int>(opt_.snapshot->pseudo_costs.up_sum.size()) == n_) {
    // Seed reliability branching from the earlier solve's estimates so the
    // first nodes branch on trusted columns instead of strong-branching the
    // same candidates that solve already probed.
    PseudoCostTable seed = opt_.snapshot->pseudo_costs;
    shared_pc_->merge(&seed, nullptr);
    counters_.pc_seeded = 1;
  }
  for (;;) {
    // A cut-and-branch restart discards the previous tree wholesale, so the
    // pool and the factorization cache (whose factors are bound to the
    // pre-restart row set) are rebuilt each round; pseudo-costs and the
    // incumbent carry over.
    pool_ = std::make_unique<NodePool>(threads);
    cache_ = std::make_unique<FactorCache>(kFactorCacheSize);
    pool_->push(std::move(root_node), 0);

    insched::parallel_run(threads, [this](int tid) { tree_worker(tid); });

    counters_.steals += pool_->steals();
    const bool limit =
        cause_.load(std::memory_order_relaxed) != static_cast<int>(Cause::kNone);
    if (!limit && restart_requested_.load(std::memory_order_relaxed)) {
      restart_requested_.store(false, std::memory_order_relaxed);
      if (NodePtr fresh = try_restart()) {
        root_node = std::move(fresh);
        continue;
      }
      // The extended root could not be re-solved; the discarded open nodes
      // mean nothing was proved, so report an honest truncation.
      set_cause(Cause::kNodeLimit);
    }
    break;
  }
  counters_.pc_merges = shared_pc_->merges();
  snapshot_.pseudo_costs = shared_pc_->snapshot();
  trunc_open_bound_ = pool_->best_open_bound();
  finalize(/*proved=*/cause_.load(std::memory_order_relaxed) ==
           static_cast<int>(Cause::kNone));
}

void Search::finalize(bool proved) {
  const auto [inc_obj, inc_x] = incumbent_.snapshot();
  const bool have_inc = std::isfinite(inc_obj);

  result_.nodes = nodes_.load(std::memory_order_relaxed);
  result_.lp_iterations = lp_iterations_.load(std::memory_order_relaxed);
  if (cache_) {
    counters_.factor_cache_peak_bytes = static_cast<long>(cache_->peak_bytes());
    counters_.factor_cache_peak_dense_bytes = static_cast<long>(cache_->peak_dense_bytes());
  }
  if (cut_pool_) {
    const CutPoolCounters cc = cut_pool_->counters();
    counters_.cuts_separated = cc.separated;
    counters_.cuts_applied = cc.applied;
    counters_.cuts_applied_cover = cc.applied_cover;
    counters_.cuts_applied_clique = cc.applied_clique;
    counters_.cuts_applied_gomory = cc.applied_gomory;
    counters_.cuts_applied_mir = cc.applied_mir;
    counters_.cuts_aged = cc.aged_out;
    counters_.cuts_duplicate = cc.duplicates;
  }
  counters_.tree_restarts = restarts_done_;
  result_.counters = counters_;

  result_.has_solution = have_inc;
  if (have_inc) {
    result_.x = inc_x;
    result_.objective = maximize_ ? -inc_obj : inc_obj;
  }

  result_.snapshot = std::make_shared<MipSnapshot>(std::move(snapshot_));

  if (proved) {
    result_.status = have_inc ? lp::SolveStatus::kOptimal : lp::SolveStatus::kInfeasible;
    result_.termination =
        have_inc ? MipTermination::kProvedOptimal : MipTermination::kProvedInfeasible;
    const double ob = have_inc ? inc_obj : 0.0;
    result_.best_bound = maximize_ ? -ob : ob;
  } else {
    result_.status = lp::SolveStatus::kIterationLimit;
    switch (static_cast<Cause>(cause_.load(std::memory_order_relaxed))) {
      case Cause::kNodeLimit: result_.termination = MipTermination::kNodeLimit; break;
      case Cause::kWorkLimit: result_.termination = MipTermination::kWorkLimit; break;
      default: result_.termination = MipTermination::kTimeLimit; break;
    }
    double ob = trunc_open_bound_;
    if (have_inc) ob = std::min(ob, inc_obj);
    if (!std::isfinite(ob)) ob = 0.0;
    result_.best_bound = maximize_ ? -ob : ob;
  }
  result_.solve_seconds = elapsed_s();
}

// Appends `cuts` to a trial copy of the base model and re-solves the root
// LP. Commits the rows and the new root result only when the trial solves to
// optimality — the cuts are valid inequalities, so a failure is numerical
// and the base model is left untouched.
bool Search::apply_cuts(const std::vector<Cut>& cuts, lp::SimplexResult* root) {
  if (cuts.empty()) return false;
  lp::Model trial = base_;
  for (const Cut& cut : cuts)
    trial.add_row(cut_family_name(cut.family), cut.type, cut.rhs, cut.entries);
  lp::SimplexOptions root_lp = opt_.lp;
  root_lp.collect_basis = true;
  lp::SimplexResult res;
  bool solved = false;
  if (!root->basis.empty()) {
    // Dual warm restart: the appended rows keep every existing slack index
    // valid and their own slacks enter basic with zero duals, so extending
    // the incumbent root basis stays dual feasible. The dual simplex then
    // only repairs the rows the new cuts violate instead of re-walking the
    // whole root LP from a cold start each round.
    const lp::Basis ext = lp::extend_basis_with_slacks(
        root->basis, base_.num_columns(), static_cast<int>(cuts.size()));
    res = lp::solve_lp_dual(trial, ext, root_lp);
    lp_iterations_.fetch_add(res.iterations, std::memory_order_relaxed);
    add_lp_stats(res);
    solved = res.optimal();
    bump(solved ? &MipCounters::cut_warm : &MipCounters::cut_warm_failed);
  }
  if (!solved) {
    res = lp::solve_lp(trial, root_lp);
    lp_iterations_.fetch_add(res.iterations, std::memory_order_relaxed);
    add_lp_stats(res);
    if (!res.optimal()) return false;
  }
  base_ = std::move(trial);
  result_.cuts_added += static_cast<int>(cuts.size());
  snapshot_.cuts.insert(snapshot_.cuts.end(), cuts.begin(), cuts.end());
  *root = std::move(res);
  root_x_ = root->x;
  return true;
}

// One root cut round: every enabled separator runs at the current root
// point, offers into the pool, and a violation-ranked parallelism-filtered
// batch is committed. Returns false when the round went dry.
bool Search::separate_root(lp::SimplexResult* root) {
  // Injected separator failure: the round reports dry, which ends the root
  // cutting loop cleanly (cuts only accelerate the search, never gate it).
  if (fault::enabled() && fault::should_fail(fault::Hook::kCutSeparation)) return false;
  // Each enabled family separates into a private batch — the separators are
  // pure functions of the (read-only) base model and root point, so the
  // batches can be produced concurrently on the shared worker pool. The
  // batches then merge into the pool in fixed family order on this thread,
  // which keeps cut ids (and a single-thread tree, bit for bit)
  // independent of thread scheduling.
  std::vector<Cut> cover_batch, clique_batch, mir_batch, gomory_batch;
  long btrans = 0;
  std::vector<std::function<void()>> separators;
  if (opt_.use_cover_cuts)
    separators.push_back([&] { cover_batch = generate_cover_cuts(base_, root->x); });
  if (opt_.use_clique_cuts)
    separators.push_back(
        [&] { clique_batch = generate_clique_cuts(base_, root->x, conflicts_); });
  if (opt_.use_mir_cuts)
    separators.push_back([&] { mir_batch = generate_mir_cuts(base_, root->x); });
  if (opt_.use_gomory_cuts && !root->basis.empty())
    separators.push_back([&] {
      gomory_batch = generate_gomory_cuts(
          base_, root->x, root->basis, root->factor.get(),
          kMaxGomoryCutsPerRound, lp::tol::kCutViolationTol, &btrans);
    });
  if (opt_.parallel_separation && separators.size() > 1) {
    insched::parallel_run(static_cast<int>(separators.size()),
                          [&](int tid) { separators[static_cast<std::size_t>(tid)](); });
  } else {
    for (const auto& separate : separators) separate();
  }
  cut_pool_->add_all(cover_batch);
  cut_pool_->add_all(clique_batch);
  cut_pool_->add_all(mir_batch);
  cut_pool_->add_all(gomory_batch);
  // The Gomory separator's tableau BTRANs happen outside any simplex solve.
  bump(&MipCounters::lp_btran, btrans);
  const std::vector<Cut> selected =
      cut_pool_->select(root->x, kMaxRootCutsPerRound, lp::tol::kCutViolationTol, kCutMaxParallel);
  if (selected.empty()) return false;
  return apply_cuts(selected, root);
}

// Cut-and-branch restart: drain the pool of everything it accumulated while
// the previous tree ran (in-tree cuts are valid at the root even when the
// root point no longer violates them — they were separated because they cut
// off some node LP optimum), commit what survives the trial re-solve, and
// hand back a fresh root node. Pseudo-costs and the incumbent carry over;
// returns null only when even the unchanged base model fails to re-solve.
NodePtr Search::try_restart() {
  lp::SimplexResult root;
  const int take = kMaxRootCutsPerRound * 2;
  const std::vector<Cut> pooled = cut_pool_->select(
      root_x_, take, -std::numeric_limits<double>::infinity(), kCutMaxParallel);
  if (!apply_cuts(pooled, &root)) {
    lp::SimplexOptions root_lp = opt_.lp;
    root_lp.collect_basis = true;
    root = lp::solve_lp(base_, root_lp);
    lp_iterations_.fetch_add(root.iterations, std::memory_order_relaxed);
    add_lp_stats(root);
    if (!root.optimal()) return nullptr;
  }
  ++restarts_done_;

  auto node = std::make_shared<SearchNode>();
  node->parent_bound = internal(root.objective);
  node->id = 0;
  snapshot_.cut_basis = root.basis;
  root_result_ = std::move(root);
  root_pending_ = true;
  return node;
}

MipResult Search::run() {
  start_ = Clock::now();
  // Propagate the wall-clock budget into every LP this search spawns (root,
  // cut rounds, heuristics, strong branching, node re-solves all copy
  // opt_.lp): the simplex loops check the deadline every few hundred pivots,
  // so one degenerate LP can no longer overrun time_limit_s by an order of
  // magnitude (ROADMAP 2b). Deadline expiry surfaces as kIterationLimit and
  // is mapped back to kTimeLimit below. A non-positive limit keeps the
  // documented contract (ROBUSTNESS.md §3): the root LP and its rounding
  // heuristic still run to completion so callers get an incumbent plus a
  // bound, and the post-root time check then stops the tree.
  if (std::isfinite(opt_.time_limit_s) && opt_.time_limit_s > 0.0) {
    const auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(opt_.time_limit_s));
    const Clock::time_point until = start_ + budget;
    if (until < opt_.lp.deadline) opt_.lp.deadline = until;
  }
  n_ = base_.num_columns();
  int threads = opt_.threads;
  if (threads <= 0) threads = insched::thread_count();
  threads = std::max(1, threads);
  if (!opt_.oversubscribe) {
    const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    threads = std::min(threads, hw);
  }
  result_.threads_used = threads;

  // --- Root LP with optional cut rounds ---------------------------------
  lp::SimplexOptions root_lp = opt_.lp;
  root_lp.collect_basis = true;
  lp::SimplexResult root;
  bool root_solved = false;
  if (opt_.snapshot && opt_.snapshot->columns == base_.num_columns() &&
      opt_.snapshot->rows == base_.num_rows() && !opt_.snapshot->root_basis.empty()) {
    // Warm start: dual-restart from the root basis of an earlier solve of a
    // same-shape model. For a perturbed near-duplicate that basis is optimal
    // or one neighbourhood away, so the restart beats even the greedy
    // crash. Any failure falls through to the crash/cold paths below.
    root = lp::solve_lp_dual(base_, opt_.snapshot->root_basis, root_lp);
    lp_iterations_.fetch_add(root.iterations, std::memory_order_relaxed);
    add_lp_stats(root);
    root_solved = root.optimal();
    bump(root_solved ? &MipCounters::shared_basis_warm : &MipCounters::shared_basis_failed);
  }
  if (!root_solved && opt_.use_crash_basis) {
    // Crash start: greedy_fill's schedule, when feasible, becomes a
    // primal-feasible basis. The dual loop accepts it unchanged and the
    // solve reduces to a phase-2 cleanup from a near-optimal point instead
    // of the all-slack walk that prices the whole schedule in one by one.
    std::vector<double> point(static_cast<std::size_t>(base_.num_columns()), 0.0);
    for (int j = 0; j < base_.num_columns(); ++j) {
      const lp::Column& col = base_.column(j);
      double v = 0.0;
      if (v < col.lower) v = col.lower;
      if (v > col.upper) v = col.upper;
      point[static_cast<std::size_t>(j)] = v;
    }
    greedy_fill(base_, &point);
    if (base_.is_feasible(point, lp::tol::kResidualTol)) {
      const lp::CrashResult crash = lp::crash_basis(base_, point);
      root = lp::solve_lp_dual(base_, crash.basis, root_lp);
      lp_iterations_.fetch_add(root.iterations, std::memory_order_relaxed);
      add_lp_stats(root);
      root_solved = root.optimal();
      bump(root_solved ? &MipCounters::crash_warm : &MipCounters::crash_failed);
    }
  }
  if (!root_solved) {
    root = lp::solve_lp(base_, root_lp);
    lp_iterations_.fetch_add(root.iterations, std::memory_order_relaxed);
    add_lp_stats(root);
  }
  if (root.status == lp::SolveStatus::kNumericalFailure && opt_.lp.enable_recovery) {
    // The engine's own ladder is exhausted; one conservative re-solve (full
    // Dantzig pricing, frequent refactorization) before giving up on the
    // whole MILP — everything downstream depends on this one LP.
    bump(&MipCounters::root_retries);
    lp::SimplexOptions careful = root_lp;
    careful.price_block_size = 0;
    careful.refactor_interval = 32;
    root = lp::solve_lp(base_, careful);
    lp_iterations_.fetch_add(root.iterations, std::memory_order_relaxed);
    add_lp_stats(root);
  }
  auto bail = [&](lp::SolveStatus status, MipTermination termination) {
    result_.status = status;
    result_.termination = termination;
    result_.lp_iterations = lp_iterations_.load(std::memory_order_relaxed);
    result_.counters = counters_;
    result_.solve_seconds = elapsed_s();
    return result_;
  };
  if (root.status == lp::SolveStatus::kInfeasible)
    return bail(lp::SolveStatus::kInfeasible, MipTermination::kProvedInfeasible);
  if (root.status == lp::SolveStatus::kUnbounded) {
    // The relaxation is unbounded; for the models this library builds that
    // means the MIP itself is unbounded or mis-built. Report as-is.
    return bail(lp::SolveStatus::kUnbounded, MipTermination::kUnbounded);
  }
  if (!root.optimal()) {
    // A root LP cut short by the in-loop deadline check is a time limit, not
    // a numerical failure: report kTimeLimit so scheduler::solve_schedule
    // routes through its degradation ladder (greedy fallback) instead of the
    // numerical-collapse path. kProvedInfeasible is never reachable here —
    // the infeasible case already bailed above.
    if (root.status == lp::SolveStatus::kIterationLimit &&
        std::isfinite(opt_.time_limit_s) && elapsed_s() >= opt_.time_limit_s)
      return bail(root.status, MipTermination::kTimeLimit);
    return bail(root.status, MipTermination::kNumericalFailure);
  }

  // Capture the clean root basis before any cut rows extend the model: a
  // later same-shape model has exactly this shape.
  snapshot_.columns = n_;
  snapshot_.rows = base_.num_rows();
  snapshot_.root_basis = root.basis;

  // Cut pool + conflict graph live for the whole search (in-tree separation
  // and restarts use them); the root rounds run all families — the trial
  // re-solve inside apply_cuts() guarantees a failed cut LP never replaces
  // the working root, so no recovery pass is needed here.
  cut_pool_ = std::make_unique<CutPool>(kCutMaxAge);
  if (opt_.use_clique_cuts) {
    conflicts_.build(base_, implications_);
    counters_.conflict_cliques = conflicts_.cliques();
    counters_.conflict_edges = conflicts_.edges();
  }
  root_x_ = root.x;
  if (cuts_enabled()) {
    for (int round = 0; round < kMaxCutRounds; ++round) {
      // Cut separation + the trial re-solve inside apply_cuts can be as
      // expensive as the root LP itself; stop opening new rounds once the
      // wall-clock budget is spent and hand the remaining time to the tree.
      if (elapsed_s() > opt_.time_limit_s) break;
      if (!separate_root(&root)) break;
    }
  }

  // Incumbent hint (warm-delta re-solve): the previous solve's schedule,
  // when still feasible for this model, seeds the incumbent through the same
  // greedy_fill polish as any heuristic point. Pseudo id -2 wins objective
  // ties against both tree nodes and the root heuristic. Offered *before*
  // the root heuristic: a landed hint makes the root dive redundant (the
  // dive costs up to num_columns LP steps, the dominant fixed cost of a
  // re-solve whose basis is already optimal).
  bool hint_offered = false;
  if (!opt_.incumbent_hint.empty() &&
      static_cast<int>(opt_.incumbent_hint.size()) == n_) {
    if (base_.is_feasible(opt_.incumbent_hint, lp::tol::kResidualTol)) {
      offer_point(opt_.incumbent_hint, -2);
      hint_offered = true;
    } else {
      // Constraint drift left the old schedule slightly over budget: shed
      // the cheapest steps until feasible, then offer (offer_point re-fills
      // greedily). Far cheaper than rebuilding an incumbent with the dive.
      std::vector<double> shed = opt_.incumbent_hint;
      if (greedy_shed(base_, &shed) && base_.is_feasible(shed, lp::tol::kResidualTol)) {
        offer_point(shed, -2);
        hint_offered = true;
      }
    }
  }

  // Root heuristic: an early incumbent makes pruning effective immediately.
  // Heuristic offers use pseudo node id -1 so they win objective ties against
  // any tree node, independent of discovery order.
  if (opt_.use_rounding_heuristic && !hint_offered) {
    SearchNode root_ctx;  // empty bound set = root subproblem
    if (!root.basis.empty()) {
      // collect_basis stays on so warm_dive can chain each step from the
      // previous one's exported basis.
      lp::SimplexOptions heur_lpopt = opt_.lp;
      heur_lpopt.collect_basis = true;
      heur_lpopt.want_duals = false;
      lp::WarmSimplex heur_ws(base_, heur_lpopt);
      if (auto x = warm_round_and_fix(heur_ws, root_ctx, root.x, root.basis,
                                      root.factor.get())) {
        offer_point(*x, -1);
      } else {
        // The root dive must be deep enough to walk a fully fractional
        // point to integrality: on the staircase models a budget row can
        // spread thinly across every step binary, so a fixed shallow depth
        // would abandon the dive with hundreds of fractionals left and the
        // search would run without any incumbent at all.
        const int dive_depth = std::max(64, base_.num_columns() + 16);
        if (auto xd = warm_dive(heur_ws, root_ctx, root.x, root.basis, root.factor.get(),
                                dive_depth)) {
          offer_point(*xd, -1);
        }
      }
    } else {
      // Cold path only when the root solve could not export a basis.
      if (auto x = round_and_fix(base_, root.x, opt_.lp)) offer_point(*x, -1);
      else if (auto xd = dive(base_, root.x, opt_.lp)) offer_point(*xd, -1);
    }
  }

  auto root_node = std::make_shared<SearchNode>();
  root_node->parent_bound = internal(root.objective);
  root_node->id = 0;
  snapshot_.cut_basis = root.basis;
  root_result_ = std::move(root);
  root_pending_ = true;

  run_tree(threads, std::move(root_node));
  return result_;
}

}  // namespace

MipResult solve_mip(const lp::Model& model, const MipOptions& options) {
  if (!options.fault_spec.empty() && !fault::arm_from_spec(options.fault_spec))
    INSCHED_LOG_WARN("mip: malformed fault_spec '%s' ignored", options.fault_spec.c_str());

  if (!model.has_integers()) {
    // Pure LP: answer directly, with the wall-clock budget active inside the
    // pivot loops (the tree search installs the same deadline in run()).
    // Like the tree search, a non-positive limit does not arm the in-loop
    // deadline — the single LP runs to completion (ROBUSTNESS.md §3).
    lp::SimplexOptions lp_opt = options.lp;
    if (std::isfinite(options.time_limit_s) && options.time_limit_s > 0.0) {
      const auto budget = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.time_limit_s));
      const Clock::time_point until = Clock::now() + budget;
      if (until < lp_opt.deadline) lp_opt.deadline = until;
    }
    const lp::SimplexResult res = lp::solve_lp(model, lp_opt);
    MipResult out;
    out.status = res.status;
    out.has_solution = res.optimal();
    out.objective = res.objective;
    out.best_bound = res.objective;
    out.x = res.x;
    out.lp_iterations = res.iterations;
    for_each_lp_stat(res, [&out](long MipCounters::*field, long by) { out.counters.*field += by; });
    switch (res.status) {
      case lp::SolveStatus::kOptimal: out.termination = MipTermination::kProvedOptimal; break;
      case lp::SolveStatus::kInfeasible:
        out.termination = MipTermination::kProvedInfeasible;
        break;
      case lp::SolveStatus::kUnbounded: out.termination = MipTermination::kUnbounded; break;
      case lp::SolveStatus::kIterationLimit:
        // Distinguish the in-loop deadline from a genuine pivot-budget hit.
        out.termination = std::isfinite(options.time_limit_s) &&
                                  Clock::now() >= lp_opt.deadline
                              ? MipTermination::kTimeLimit
                              : MipTermination::kNumericalFailure;
        break;
      default: out.termination = MipTermination::kNumericalFailure; break;
    }
    return out;
  }

  // Reduction pipeline: generic LP presolve first, then probing presolve
  // over the binaries of the reduced model. Each stage pushes its restore
  // mapping; the incumbent is expanded back through them in reverse order.
  MipOptions inner = options;
  inner.fault_spec.clear();  // already armed; a recursive call must not re-arm
  lp::Model work = model;
  std::vector<lp::PresolveResult> stack;
  std::vector<Implication> implications;
  MipCounters probing_counters;

  const auto infeasible_out = [] {
    MipResult out;
    out.status = lp::SolveStatus::kInfeasible;
    out.termination = MipTermination::kProvedInfeasible;
    return out;
  };

  if (options.use_presolve) {
    lp::PresolveResult pre = lp::presolve(work);
    if (pre.infeasible) return infeasible_out();
    if (pre.removed_columns > 0 || pre.removed_rows > 0) {
      work = pre.reduced;
      stack.push_back(std::move(pre));
    }
    inner.use_presolve = false;  // already applied
  }

  if (options.use_probing && work.has_integers()) {
    const ProbingResult probing = probe_binaries(work);
    probing_counters.probing_probes = probing.probes;
    probing_counters.probing_fixed = static_cast<long>(probing.fixed_columns.size());
    probing_counters.probing_aggregated = static_cast<long>(probing.aggregations.size());
    probing_counters.probing_implications = static_cast<long>(probing.implications.size());
    probing_counters.probing_work_limited = probing.work_limited ? 1 : 0;
    if (probing.infeasible) return infeasible_out();
    if (probing.has_reductions()) {
      long tightened = 0;
      lp::PresolveResult pre = apply_probing(work, probing, &tightened);
      probing_counters.probing_tightened = tightened;
      if (pre.infeasible) return infeasible_out();
      // Conflict implications feed the clique separator; remap them onto the
      // probed model's column space, dropping any whose endpoint was
      // eliminated (its conflicts are already encoded in the reduction).
      for (const Implication& imp : probing.implications) {
        const int a = pre.column_map[static_cast<std::size_t>(imp.antecedent)];
        const int c = pre.column_map[static_cast<std::size_t>(imp.consequent)];
        if (a >= 0 && c >= 0 && a != c)
          implications.push_back(Implication{a, imp.value, c, imp.forced});
      }
      work = pre.reduced;
      stack.push_back(std::move(pre));
    } else {
      implications = probing.implications;
    }
  }

  const auto restore_through = [&stack](MipResult& out) {
    if (!out.has_solution) return;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) out.x = it->restore(out.x);
  };

  // Presolve/probing changed the column space: the incumbent hint no
  // longer addresses these columns, so drop it rather than feed the search
  // garbage.
  if (!stack.empty()) inner.incumbent_hint.clear();

  if (!work.has_integers()) {
    // Probing fixed every integer: what is left is a pure LP.
    MipResult out = solve_mip(work, inner);
    out.counters += probing_counters;
    restore_through(out);
    return out;
  }

  Search solver(work, inner, std::move(implications));
  MipResult out = solver.run();
  out.counters += probing_counters;
  restore_through(out);
  return out;
}

}  // namespace insched::mip
