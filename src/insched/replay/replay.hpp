#pragma once

// Discrete-event replay of a concrete schedule (ROADMAP item 5, after
// SIM-SITU's faithful-simulation approach): walks the Eq 2-8 time/memory
// recurrences event by event — setup, facilitation, analysis kernel, output
// write, allocation, reset — optionally perturbing each cost with
// deterministic seeded jitter, and compares the replayed trajectory against
// the solver's predicted one step by step.
//
// Jitter semantics (docs/REPLAY.md):
//  - *time* costs (ft, it, ct, ot) are perturbed independently per event:
//    cost * (1 + time_jitter * U[-1, 1)), modeling run-to-run noise;
//  - *memory* increments (fm, im, cm, om) are perturbed once per analysis
//    at activation and then reused, modeling allocation sizes that differ
//    from the Table-1 estimate but are deterministic per code path (the
//    Eq 6 reset must return to the same fm the activation charged, or the
//    recurrence itself would be broken rather than perturbed).
//
// The replay is the recurrence::Walker under a jittering cost hook; with
// zero jitter the hook returns the problem's own costs, so the replay is
// predicted_trajectory() bit for bit and the divergence report is exactly
// empty — the differential validator asserts this. With jitter, any budget violation in
// the replayed trajectory must be accompanied by a flagged divergence
// (ReplayResult::sound()); a violation with no divergence would mean the
// replay disagrees with the recurrences themselves.

#include <cstdint>
#include <string>
#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/scheduler/recurrence.hpp"
#include "insched/scheduler/schedule.hpp"
#include "insched/scheduler/trajectory.hpp"

namespace insched::replay {

struct ReplayOptions {
  std::uint64_t seed = 1;      ///< xoshiro256** seed; same seed = same replay
  double time_jitter = 0.0;    ///< relative half-width on per-event time costs
  double memory_jitter = 0.0;  ///< relative half-width on per-analysis memory costs

  /// Divergence thresholds: a step diverges when the replayed value differs
  /// from the predicted one by more than rel * max(1, |predicted|).
  double time_rel_tol = scheduler::recurrence::kReplayRelTol;
  double memory_rel_tol = scheduler::recurrence::kReplayRelTol;
};

/// Where and how far the replayed trajectory separates from the prediction.
struct DivergenceReport {
  bool diverged = false;
  long first_step = 0;  ///< 1-based first diverging step (0 = none)
  double max_time_deviation = 0.0;    ///< max |replayed - predicted| cumulative s
  long max_time_step = 0;
  double max_memory_deviation = 0.0;  ///< max |replayed - predicted| sum mStart
  long max_memory_step = 0;
  std::vector<std::string> notes;  ///< one line per distinct divergence kind
};

struct ReplayResult {
  scheduler::Trajectory predicted;
  scheduler::Trajectory replayed;

  bool predicted_time_feasible = true;  ///< prediction within the time budget
  bool predicted_memory_feasible = true;
  bool replayed_time_feasible = true;   ///< replay within the time budget
  bool replayed_memory_feasible = true;

  DivergenceReport divergence;
  long events = 0;  ///< cost events processed (throughput accounting)

  [[nodiscard]] bool replay_feasible() const noexcept {
    return replayed_time_feasible && replayed_memory_feasible;
  }

  /// Soundness invariant of the differential validator: a replayed budget
  /// violation on a schedule the prediction deems feasible must come with a
  /// flagged divergence. False here is a replay bug, not a schedule bug.
  [[nodiscard]] bool sound() const noexcept {
    const bool surprise_time = !replayed_time_feasible && predicted_time_feasible;
    const bool surprise_memory = !replayed_memory_feasible && predicted_memory_feasible;
    return !((surprise_time || surprise_memory) && !divergence.diverged);
  }
};

/// Replays `schedule` against `problem`'s costs. The schedule must
/// structurally match the problem (asserted). Deterministic for a fixed
/// (options.seed, problem, schedule) triple.
[[nodiscard]] ReplayResult replay_schedule(const scheduler::ScheduleProblem& problem,
                                           const scheduler::Schedule& schedule,
                                           const ReplayOptions& options = {});

}  // namespace insched::replay
