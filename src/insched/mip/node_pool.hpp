#pragma once

// Shared-state building blocks for the parallel branch-and-bound search:
//
//  * SearchNode      — one open subproblem (bound overrides + warm-start
//                      basis inherited copy-on-branch from the parent).
//  * NodePool        — thread-safe best-bound node pool with idle blocking
//                      and global-termination detection. Workers that pop a
//                      node another thread produced are counted as steals.
//  * FactorCache     — small LRU of basis factorizations keyed by node id,
//                      so hot subtrees skip refactorization while memory
//                      stays bounded.
//  * Incumbent       — atomic bound for lock-free pruning reads plus a
//                      mutex-guarded solution swap; ties break to the
//                      smaller node id, so equal-objective points found in
//                      either order settle on the same incumbent.
//  * SharedPseudoCosts — global pseudo-cost table; workers accumulate local
//                      deltas and merge on a fixed cadence.

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "insched/lp/basis.hpp"
#include "insched/support/thread_annotations.hpp"

namespace insched::mip {

struct SearchNode {
  // Bound overrides relative to the base model, one per integer column
  // touched on the path from the root.
  std::vector<lp::BoundOverride> bounds;
  double parent_bound = 0.0;  ///< LP bound inherited from the parent (internal minimize)
  int depth = 0;
  long id = 0;
  long parent_id = -1;        ///< FactorCache key for the warm-start hint
  int producer = 0;           ///< worker tid that created the node
  double branch_frac = 0.0;   ///< fractionality of the parent's branch variable
  std::shared_ptr<const lp::Basis> warm_basis;  ///< parent's optimal basis
};

using NodePtr = std::shared_ptr<SearchNode>;

/// Best-bound order: smaller bound first, then deeper (cheap dive
/// behaviour), then smaller id, so a single worker pops a fixed sequence.
struct NodeOrder {
  bool operator()(const NodePtr& a, const NodePtr& b) const noexcept {
    if (a->parent_bound != b->parent_bound) return a->parent_bound < b->parent_bound;
    if (a->depth != b->depth) return a->depth > b->depth;
    return a->id < b->id;
  }
};

class NodePool {
 public:
  explicit NodePool(int workers);

  void push(NodePtr node, int tid);

  /// Blocks until a node is available; returns nullptr on global
  /// termination (stopped, or empty with no worker mid-node). The returned
  /// node counts as in-flight until task_done(tid).
  [[nodiscard]] NodePtr pop(int tid);

  /// Marks the node handed out by the last pop(tid) as retired.
  void task_done(int tid);

  /// Aborts the search: blocked and future pops return nullptr.
  void stop();
  [[nodiscard]] bool stopped() const noexcept { return stop_.load(std::memory_order_relaxed); }

  /// Smallest bound among queued + in-flight nodes (internal minimize
  /// convention); +inf when none. Exact only after the search quiesced.
  [[nodiscard]] double best_open_bound() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] long steals() const noexcept { return steals_.load(std::memory_order_relaxed); }

 private:
  // Global lock order (docs/STATIC_ANALYSIS.md): solver-core layer.
  mutable Mutex mu_{"mip.NodePool.mu"};
  CondVar cv_;
  std::multiset<NodePtr, NodeOrder> open_ INSCHED_GUARDED_BY(mu_);
  // Per-tid bound of the node being processed.
  std::vector<double> inflight_ INSCHED_GUARDED_BY(mu_);
  int active_ INSCHED_GUARDED_BY(mu_) = 0;
  std::atomic<bool> stop_{false};
  std::atomic<long> steals_{0};
};

class FactorCache {
 public:
  explicit FactorCache(std::size_t capacity);

  void put(long id, std::shared_ptr<const lp::Factorization> factor);
  [[nodiscard]] std::shared_ptr<const lp::Factorization> get(long id);
  [[nodiscard]] long hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] long misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
  /// Peak resident size of the cached LU+eta snapshots (shared cores counted
  /// once per entry, an overcount when siblings share a core).
  [[nodiscard]] std::size_t peak_bytes() const noexcept {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  /// What the same peak population would have cost as dense m x m inverses —
  /// the pre-LU snapshot format. The sparse/dense ratio is the memory win.
  [[nodiscard]] std::size_t peak_dense_bytes() const noexcept {
    return peak_dense_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::shared_ptr<const lp::Factorization> factor;
    std::list<long>::iterator pos;
    std::size_t bytes = 0;        // factor->bytes() at insertion
    std::size_t dense_bytes = 0;  // factor->dense_equivalent_bytes()
  };

  Mutex mu_{"mip.FactorCache.mu"};
  const std::size_t capacity_;
  std::list<long> order_ INSCHED_GUARDED_BY(mu_);  // most recent first
  std::unordered_map<long, Slot> map_ INSCHED_GUARDED_BY(mu_);
  std::size_t bytes_ INSCHED_GUARDED_BY(mu_) = 0;        // current resident total
  std::size_t dense_bytes_ INSCHED_GUARDED_BY(mu_) = 0;  // dense-equivalent counterpart
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<std::size_t> peak_bytes_{0};
  std::atomic<std::size_t> peak_dense_bytes_{0};
};

class Incumbent {
 public:
  /// Accepts strictly better objectives; on a tie (within 1e-12) the smaller
  /// node id wins, which makes the final incumbent independent of discovery
  /// order. Returns true when the incumbent changed. `obj` is in the
  /// internal minimize convention.
  bool offer(double obj, const std::vector<double>& x, long node_id);

  /// Lock-free objective read for pruning (+inf when no incumbent yet).
  [[nodiscard]] double bound() const noexcept { return obj_.load(std::memory_order_relaxed); }
  [[nodiscard]] bool has() const noexcept {
    return obj_.load(std::memory_order_relaxed) < std::numeric_limits<double>::infinity();
  }

  /// Final snapshot; call after the search quiesced.
  [[nodiscard]] std::pair<double, std::vector<double>> snapshot() const;

 private:
  // obj_ is written only under mu_ but read lock-free by pruning; it stays a
  // bare atomic (GUARDED_BY would outlaw the lock-free bound() fast path).
  std::atomic<double> obj_{std::numeric_limits<double>::infinity()};
  mutable Mutex mu_{"mip.Incumbent.mu"};
  std::vector<double> x_ INSCHED_GUARDED_BY(mu_);
  long node_id_ INSCHED_GUARDED_BY(mu_) = std::numeric_limits<long>::max();
};

/// Per-column pseudo-cost statistics: average objective degradation per unit
/// of fractional distance, separately for up and down branches.
struct PseudoCostTable {
  std::vector<double> up_sum, down_sum;
  std::vector<long> up_n, down_n;

  void resize(int columns);
  void record(int column, bool up, double degradation, double frac);
  void add(const PseudoCostTable& delta);
  void clear_counts();
};

class SharedPseudoCosts {
 public:
  explicit SharedPseudoCosts(int columns);

  /// Folds `delta` into the global table and refreshes `snapshot` with the
  /// merged state; `delta` is cleared.
  void merge(PseudoCostTable* delta, PseudoCostTable* snapshot);
  [[nodiscard]] PseudoCostTable snapshot() const;
  [[nodiscard]] long merges() const noexcept { return merges_.load(std::memory_order_relaxed); }

 private:
  mutable Mutex mu_{"mip.SharedPseudoCosts.mu"};
  PseudoCostTable global_ INSCHED_GUARDED_BY(mu_);
  std::atomic<long> merges_{0};
};

}  // namespace insched::mip
