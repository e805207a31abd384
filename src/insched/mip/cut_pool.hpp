#pragma once

// Concurrent cut pool shared by the root separation loop and the in-tree
// separators. Workers offer globally valid cuts as they find them; the
// search owner periodically *selects* a batch to append to the base model
// (cut-and-branch restart). Selection is violation-driven with a parallelism
// filter, survivors age and fall off, and every decision is a deterministic
// function of pool contents (insertion order breaks ties), so deterministic
// wave mode stays bit-identical as long as cuts are offered in a
// deterministic order — which the sequential wave phase guarantees.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "insched/lp/tolerances.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/support/thread_annotations.hpp"

namespace insched::mip {

struct CutPoolCounters {
  long separated = 0;   ///< cuts offered via add()/add_all()
  long duplicates = 0;  ///< offers rejected as already seen (pooled or applied)
  long applied = 0;     ///< cuts handed out by select()
  long applied_cover = 0;   ///< of `applied`: covers, lifted or not
  long applied_clique = 0;  ///< of `applied`: clique cuts
  long applied_gomory = 0;  ///< of `applied`: Gomory mixed-integer cuts
  long applied_mir = 0;     ///< of `applied`: MIR cuts
  long aged_out = 0;    ///< cuts dropped after going unselected too long
  long evicted = 0;     ///< cuts displaced by the capacity cap
};

class CutPool {
 public:
  /// `capacity` caps the pooled (unapplied) cuts; 0 = unbounded. At capacity
  /// an incoming fresh cut evicts the stalest pooled entry — highest age,
  /// oldest id on ties — so the pool degrades deterministically instead of
  /// growing without bound on cut-heavy models.
  explicit CutPool(int max_age = 4, int capacity = 0)
      : max_age_(max_age), capacity_(capacity) {}

  /// Offers one cut. Returns false when an identical cut (same type, rhs and
  /// entries up to 1e-9 rounding) was already offered — including cuts that
  /// were since selected and applied, so a model row is never duplicated
  /// across restarts. Thread-safe.
  bool add(Cut cut);
  /// Offers a batch; returns how many were fresh. Thread-safe.
  int add_all(std::vector<Cut> cuts);

  /// Picks up to `max_cuts` cuts whose violation at `x` (normalized by the
  /// entry 2-norm) exceeds `min_violation`, most violated first, skipping
  /// cuts whose cosine against an already selected one exceeds
  /// `max_parallel`. Selected cuts leave the pool (counted applied); the
  /// rest age by one round and are dropped past `max_age`. Thread-safe.
  [[nodiscard]] std::vector<Cut> select(const std::vector<double>& x, int max_cuts,
                                        double min_violation = lp::tol::kCutSelectTol,
                                        double max_parallel = 0.98);

  /// Cuts currently pooled (not yet applied or aged out). Thread-safe.
  [[nodiscard]] int size() const;
  [[nodiscard]] CutPoolCounters counters() const;

 private:
  struct Entry {
    Cut cut;
    double norm = 1.0;  ///< 2-norm of the entry coefficients
    int age = 0;
    long id = 0;  ///< insertion order, deterministic tiebreak
  };

  // Global lock order (docs/STATIC_ANALYSIS.md): solver-core layer —
  // leaf-like; may be held while logging only.
  mutable Mutex mu_{"mip.CutPool.mu"};
  std::vector<Entry> entries_ INSCHED_GUARDED_BY(mu_);
  std::unordered_set<std::uint64_t> seen_ INSCHED_GUARDED_BY(mu_);
  CutPoolCounters counters_ INSCHED_GUARDED_BY(mu_);
  const int max_age_;
  const int capacity_;
  long next_id_ INSCHED_GUARDED_BY(mu_) = 0;
};

}  // namespace insched::mip
