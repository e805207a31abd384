#pragma once

// The serving engine: transport-independent request handling for the
// scheduling daemon (docs/SERVING.md). ServeEngine::handle() is a blocking,
// thread-safe call — the socket server and the --stdin batch driver both
// run it from TaskPool workers, and the tests call it directly.
//
// Request lifecycle for op=solve:
//
//   1. admission   — at most `max_inflight` leader solves run at once;
//                    beyond that, requests are rejected immediately
//                    (status=rejected) rather than queued into a deadline
//                    they can no longer meet.
//   2. lint        — insched_lint's structural checks run on ingest; an
//                    instance with lint *errors* is rejected with the full
//                    diagnostic report, before any MILP work.
//   3. cache       — the canonical instance (canonical.hpp) is looked up in
//                    the solution cache; a hit is mapped back into request
//                    order, re-validated against the raw problem (cheap,
//                    exact), and answered in microseconds.
//   4. coalescing  — a request identical (canonically) to one already being
//                    solved piggy-backs on that solve instead of starting
//                    its own; followers wait and share the leader's result.
//   5. solve       — the leader maps its remaining deadline onto the MILP
//                    time limit and starts from the family's latest
//                    mip::MipSnapshot, so repeated families start from the
//                    previous optimum; the solve's own snapshot then
//                    replaces it in the pool. A deadline that expires
//                    before or during the solve rides the graceful-
//                    degradation ladder: the response carries the validated
//                    greedy schedule with degraded=true. Proven
//                    infeasibility is reported as such, never masked.
//   6. memoize     — proven-optimal validated solutions (and only those)
//                    are stored in canonical order for future hits.
//
// Every request is folded into runtime::ServingMetrics under its op name.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "insched/mip/resolve.hpp"
#include "insched/runtime/metrics.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/serve/cache.hpp"
#include "insched/serve/canonical.hpp"
#include "insched/serve/protocol.hpp"
#include "insched/support/thread_annotations.hpp"

namespace insched::serve {

struct EngineOptions {
  /// Base solve options; per-request deadline overrides mip.time_limit_s
  /// and a request's "formulation" field overrides formulation.
  scheduler::SolveOptions solve;
  std::size_t cache_capacity = 256;
  /// Deadline applied when a request does not carry one.
  double default_deadline_ms = 120000.0;
  /// Leader solves allowed in flight at once; 0 = unbounded.
  int max_inflight = 64;
  bool cache_enabled = true;
  bool coalesce_enabled = true;
  /// Live reschedule contexts (problem + warm-delta snapshot) kept for the
  /// `reschedule` op; least-recently-used handles are evicted beyond this.
  std::size_t resolve_capacity = 32;
  /// Re-run the exact validator on cache hits against the incoming raw
  /// problem — the last line of defense should canonicalization ever
  /// equate two problems it must not.
  bool revalidate_cache_hits = true;
};

class ServeEngine {
 public:
  explicit ServeEngine(EngineOptions options = {});

  /// Handles one request to completion (solve requests block for the solve
  /// or for the coalesced leader). Never throws; malformed or failing
  /// requests come back as status=error.
  [[nodiscard]] ServeResponse handle(const ServeRequest& request);

  [[nodiscard]] runtime::ServingMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] SolutionCache& cache() noexcept { return cache_; }
  [[nodiscard]] FamilyWarmPool& families() noexcept { return families_; }
  [[nodiscard]] const EngineOptions& options() const noexcept { return opt_; }

 private:
  /// One in-flight leader solve; followers block on `done`. Fields are
  /// written by the leader under the engine mutex.
  struct Inflight {
    std::string key;                        ///< canonical key (collision guard)
    bool done = false;
    bool usable = false;                    ///< leader produced a solved result
    scheduler::ScheduleSolution canonical;  ///< leader's result, canonical order
  };

  using Clock = std::chrono::steady_clock;

  /// One live reschedule context (docs/ONLINE.md): the problem the context
  /// last solved and the warm-delta snapshot chained across re-solves.
  struct ReschedEntry {
    scheduler::ScheduleProblem problem;
    mip::ReSolveContext ctx;
    std::uint64_t last_used = 0;
  };

  [[nodiscard]] ServeResponse handle_solve(const ServeRequest& request, Clock::time_point start);
  [[nodiscard]] ServeResponse handle_reschedule(const ServeRequest& request,
                                                Clock::time_point start);
  /// Deadline-mapped, warm-started solve + memoization (leader work).
  [[nodiscard]] scheduler::ScheduleSolution run_solve(const ServeRequest& request,
                                                      const CanonicalInstance& canon,
                                                      Clock::time_point start);
  [[nodiscard]] ServeResponse respond(const ServeRequest& request,
                                      const scheduler::ScheduleSolution& solution) const;

  EngineOptions opt_;
  SolutionCache cache_;
  FamilyWarmPool families_;
  runtime::ServingMetrics metrics_;

  // Global lock order (docs/STATIC_ANALYSIS.md): serving layer, above the
  // cache/warm-pool and every solver-core lock.
  Mutex mu_{"serve.ServeEngine.mu"};
  CondVar done_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight_ INSCHED_GUARDED_BY(mu_);
  int active_ INSCHED_GUARDED_BY(mu_) = 0;

  /// Reschedule contexts are serialized per engine: ReSolveContext is not
  /// thread-safe and chained snapshots must not interleave, so the lock is
  /// held across the (warm, short) re-solve.
  Mutex resolve_mu_ INSCHED_ACQUIRED_AFTER(mu_){"serve.ServeEngine.resolve_mu"};
  std::unordered_map<std::string, std::unique_ptr<ReschedEntry>> resolves_
      INSCHED_GUARDED_BY(resolve_mu_);
  std::uint64_t resolve_clock_ INSCHED_GUARDED_BY(resolve_mu_) = 0;
  std::uint64_t next_handle_ INSCHED_GUARDED_BY(resolve_mu_) = 1;
};

}  // namespace insched::serve
