#pragma once

// Solution and warm-start caches for the scheduling daemon (docs/SERVING.md).
//
// SolutionCache memoizes *proven-optimal* solutions keyed by the canonical
// instance (canonical.hpp): a repeated or isomorphic request is answered in
// microseconds instead of re-running branch-and-bound. The fingerprint
// indexes the entry; the full canonical key is compared before a hit is
// declared, so a fingerprint collision costs one miss, never a wrong
// schedule. Eviction is least-recently-used over a fixed capacity — entries
// are a few kilobytes (one schedule), so a few hundred instances fit
// comfortably.
//
// FamilyWarmPool keeps the latest mip::MipSnapshot per *family* fingerprint
// (MILP shape only): requests whose cost numbers differ but whose model
// shape matches start from the previous solve's root basis and pseudo-cost
// table instead of cold. Snapshots are immutable and handed out as
// shared_ptr — a solve in flight keeps its snapshot alive even if the pool
// replaces or evicts it meanwhile.
//
// Both caches take one mutex per operation; the protected work is a scan of
// at most `capacity` small entries, negligible next to even a cached
// request's serialization cost.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "insched/mip/branch_and_bound.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/support/thread_annotations.hpp"

namespace insched::serve {

/// LRU memo of canonical-order solutions keyed by canonical instance.
class SolutionCache {
 public:
  struct Counters {
    long lookups = 0;
    long hits = 0;
    long misses = 0;
    long inserts = 0;
    long updates = 0;            ///< insert over an existing key
    long evictions = 0;
    long collision_rejects = 0;  ///< fingerprint matched, key differed
  };

  explicit SolutionCache(std::size_t capacity = 256);

  /// The cached canonical-order solution for this instance, or nullopt.
  [[nodiscard]] std::optional<scheduler::ScheduleSolution> lookup(std::uint64_t fingerprint,
                                                                  const std::string& key);

  /// Stores `solution` (already in canonical order) for this instance,
  /// evicting the least-recently-used entry at capacity. Callers only pass
  /// proven-optimal, validated solutions — degraded or time-limited results
  /// must not be replayed to later requests.
  void insert(std::uint64_t fingerprint, const std::string& key,
              const scheduler::ScheduleSolution& solution);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] Counters counters() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::string key;
    scheduler::ScheduleSolution solution;
    std::uint64_t stamp = 0;  ///< LRU clock value of the last touch
  };

  // Global lock order (docs/STATIC_ANALYSIS.md): serving layer, below the
  // engine lock; never held across a solve.
  mutable Mutex mu_{"serve.SolutionCache.mu"};
  std::vector<Entry> entries_ INSCHED_GUARDED_BY(mu_);
  Counters counters_ INSCHED_GUARDED_BY(mu_);
  std::uint64_t clock_ INSCHED_GUARDED_BY(mu_) = 0;
  const std::size_t capacity_;
};

/// LRU pool of the latest warm-start snapshot per family.
class FamilyWarmPool {
 public:
  explicit FamilyWarmPool(std::size_t capacity = 64);

  /// The family's latest snapshot, or null when none is stored.
  [[nodiscard]] std::shared_ptr<const mip::MipSnapshot> get(std::uint64_t family);

  /// Stores `snapshot` as the family's (last writer wins: the freshest
  /// optimum is the best predictor for the next perturbation), evicting the
  /// least-recently-used family at capacity.
  void put(std::uint64_t family, std::shared_ptr<const mip::MipSnapshot> snapshot);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t family = 0;
    std::shared_ptr<const mip::MipSnapshot> snapshot;
    std::uint64_t stamp = 0;
  };

  mutable Mutex mu_{"serve.FamilyWarmPool.mu"};
  std::vector<Entry> entries_ INSCHED_GUARDED_BY(mu_);
  std::uint64_t clock_ INSCHED_GUARDED_BY(mu_) = 0;
  const std::size_t capacity_;
};

}  // namespace insched::serve
