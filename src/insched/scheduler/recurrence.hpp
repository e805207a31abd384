#pragma once

// The Eq 2-8 time/memory recurrences: their tolerance constants, the budget
// predicates, and the one stepping state (`Walker`) that walks them.
//
// Every component that needs the per-step time or memory state of a
// schedule is a view over the walker: the exact validator
// (validator.cpp), predicted trajectories (trajectory.cpp), the
// discrete-event replay (replay/replay.cpp), the virtual executor and the
// in-situ runtime (runtime/). They differ only in the costs they feed it —
// Table-1 estimates, seeded jitter, `actual` costs, measured bytes — so
// they cannot disagree about what a step charges, and they must not
// disagree about when a trajectory *violates* a budget either: this header
// is the single source of those comparisons; nothing else in the tree
// hard-codes a budget epsilon.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "insched/scheduler/params.hpp"
#include "insched/scheduler/schedule.hpp"
#include "insched/support/assert.hpp"

namespace insched::scheduler::recurrence {

/// Relative slack applied to budget comparisons so schedules sitting exactly
/// on the budget (the optimum frequently does) are not rejected.
inline constexpr double kBudgetRelTol = 1e-9;

/// Absolute slack for the cumulative time comparison (seconds).
inline constexpr double kTimeAbsTol = 1e-9;

/// Absolute slack for the peak-memory comparison (bytes). Memory values are
/// O(GiB), so 1e-6 bytes absorbs accumulation error without hiding any real
/// overshoot.
inline constexpr double kMemoryAbsTol = 1e-6;

/// Relative slack of the walker's *online* per-step memory sample
/// (Walker::commit): tighter than the validator's, because the walker
/// accumulates the same additions the recurrence prescribes and should flag
/// even marginal overshoot as it happens.
inline constexpr double kSampleRelTol = 1e-12;

// --- scheduler/replay decision tolerances ----------------------------------
// Not part of the Eq 2-8 recurrences themselves, but centralized here for the
// same reason: components that compare objectives or constraint activities
// must agree on "equal". `insched_srclint` (tolerance-literal) keeps stray
// epsilon literals out of scheduler/, lp/, mip/ and replay/.

/// An integer objective only counts as *improved* when it clears the old one
/// by this much (sensitivity bracketing, recommendation frontier).
inline constexpr double kObjectiveImproveTol = 1e-9;

/// A budget row is "binding" when its activity is within this of the rhs.
inline constexpr double kBindingSlackTol = 1e-6;

/// Relative width (of the time budget) at which the sensitivity bisection
/// over extra budget stops refining.
inline constexpr double kBisectionRelTol = 1e-4;

/// Relative slack of the greedy heuristic's budget check — tighter than the
/// validator's kBudgetRelTol because greedy sums the same costs it compares.
inline constexpr double kGreedyBudgetRelTol = 1e-12;

/// Model lint: |rhs| below this counts as a structurally zero right-hand
/// side when checking empty-row consistency.
inline constexpr double kModelRhsTol = 1e-12;

/// Model lint: slack allowed when re-evaluating row activity of a claimed
/// feasible point.
inline constexpr double kModelActivityTol = 1e-9;

/// Replay divergence: relative mismatch between replayed and predicted
/// time/memory trajectories tolerated before flagging (ReplayOptions).
inline constexpr double kReplayRelTol = 1e-9;

/// Eq 4: does the cumulative analysis time exceed the whole-run budget?
[[nodiscard]] inline bool time_exceeds_budget(double total_seconds,
                                              double budget_seconds) noexcept {
  return total_seconds > budget_seconds * (1.0 + kBudgetRelTol) + kTimeAbsTol;
}

/// Eq 8: does the peak sum of mStart exceed mth? Infinite mth never trips.
[[nodiscard]] inline bool memory_exceeds_budget(double peak_bytes, double mth) noexcept {
  return std::isfinite(mth) && peak_bytes > mth * (1.0 + kBudgetRelTol) + kMemoryAbsTol;
}

/// Online per-step sample check of Walker::commit.
[[nodiscard]] inline bool sample_exceeds_budget(double total_bytes, double mth) noexcept {
  return std::isfinite(mth) && total_bytes > mth * (1.0 + kSampleRelTol);
}

// --- The walker --------------------------------------------------------------

/// The Table-1 costs a schedule-level walk asks its cost hook for.
enum class Cost { kFm, kIm, kCm, kOm, kFt, kIt, kCt, kOt };

/// fm, im, cm, om: bytes; the rest are seconds.
[[nodiscard]] constexpr bool is_memory_cost(Cost kind) noexcept {
  return kind == Cost::kFm || kind == Cost::kIm || kind == Cost::kCm || kind == Cost::kOm;
}

/// `problem`'s own Table-1 cost of `kind` for analysis i (ot resolved
/// through om/bw exactly as ScheduleProblem::output_time does).
[[nodiscard]] inline double nominal_cost(const ScheduleProblem& problem, Cost kind,
                                         std::size_t i) {
  const AnalysisParams& p = problem.analyses[i];
  switch (kind) {
    case Cost::kFm: return p.fm;
    case Cost::kIm: return p.im;
    case Cost::kCm: return p.cm;
    case Cost::kOm: return p.om;
    case Cost::kFt: return p.ft;
    case Cost::kIt: return p.it;
    case Cost::kCt: return p.ct;
    case Cost::kOt: return p.output_time(problem.bw);
  }
  return 0.0;
}

/// Cost hook charging a problem's Table-1 costs verbatim.
struct NominalCosts {
  const ScheduleProblem& problem;
  double operator()(Cost kind, std::size_t i) const { return nominal_cost(problem, kind, i); }
};

/// Stepping state of the Eq 2-8 recurrences: per-analysis mEnd (running
/// mStart within a step) and fm, the cursors into a schedule's sorted step
/// lists, cumulative seconds, and the sum-of-mStart peak with its step.
///
/// Two entry points share the state:
///  - *event level* (activate / charge / commit / reset) — a caller that
///    measures costs as they happen (the in-situ runtime) reports each one;
///  - *schedule level* (start / advance / run) — the walker reads the
///    schedule's step lists itself and asks a cost hook,
///    `double cost(Cost kind, std::size_t i)`, for every charge. The event
///    order is fixed: at activation, per active analysis in index order,
///    fm, im, cm, om, ft; then per step, per active analysis, it, ct (at an
///    analysis step), ot (at an output step). Memory costs are asked for
///    once, at activation, and reused every step, so the Eq 6 reset always
///    returns to the fm the activation charged.
class Walker {
 public:
  /// Event level: `analyses` inactive slots; each commit samples the step's
  /// sum of mStart against `mth` (infinity: never a violation).
  explicit Walker(std::size_t analyses,
                  double mth = std::numeric_limits<double>::infinity());
  /// Schedule level over `schedule`, which must outlive the walker.
  explicit Walker(const Schedule& schedule,
                  double mth = std::numeric_limits<double>::infinity());

  // --- event level ---------------------------------------------------------

  /// Step 0 (Eqs 3, 7): mEnd_{i,0} = fm; `setup_seconds` (ft) is charged
  /// to the cumulative time.
  void activate(std::size_t i, double fm, double setup_seconds = 0.0) {
    INSCHED_EXPECTS(i < slots_.size());
    slots_[i].fm = fm;
    slots_[i].mem = fm;
    setup_seconds_ += setup_seconds;
    cumulative_seconds_ += setup_seconds;
    ++events_;
  }
  /// One cost event of the open step: `bytes` join analysis i's mStart,
  /// `seconds` the step's time (Eqs 2, 5).
  void charge(std::size_t i, double bytes, double seconds = 0.0) {
    INSCHED_EXPECTS(i < slots_.size());
    slots_[i].mem += bytes;
    open_seconds_ += seconds;
    ++events_;
  }
  /// Closes step `step` (Eq 8): samples the sum of mStart — every
  /// allocation reported, no reset applied yet — into the peak and the
  /// budget check, and adds the step's seconds to the cumulative total.
  /// Returns the sample.
  double commit(long step);
  /// Eq 6: analysis i's memory returns to its fm. Call after commit().
  void reset(std::size_t i) {
    INSCHED_EXPECTS(i < slots_.size());
    slots_[i].mem = slots_[i].fm;
  }

  // --- schedule level ------------------------------------------------------

  /// Activates every active analysis of the schedule (step 0).
  template <class CostFn>
  void start(CostFn&& cost) {
    INSCHED_EXPECTS(schedule_ != nullptr && step_ == 0);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!schedule_->analyses()[i].active()) continue;
      Slot& slot = slots_[i];
      const double fm = cost(Cost::kFm, i);
      slot.im = cost(Cost::kIm, i);
      slot.cm = cost(Cost::kCm, i);
      slot.om = cost(Cost::kOm, i);
      activate(i, fm, cost(Cost::kFt, i));
    }
  }

  /// Walks the next simulation step; returns its sum of mStart. The same
  /// charges, commit and reset as the event level, fused into one pass.
  template <class CostFn>
  double advance(CostFn&& cost) {
    INSCHED_EXPECTS(schedule_ != nullptr && step_ < schedule_->steps());
    const long j = step_ + 1;
    const std::vector<AnalysisSchedule>& rows = schedule_->analyses();
    double seconds = 0.0;
    double sample = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const AnalysisSchedule& s = rows[i];
      if (!s.active()) continue;
      Slot& slot = slots_[i];
      seconds += cost(Cost::kIt, i);
      slot.mem += slot.im;
      ++events_;
      if (slot.next_a < s.analysis_steps.size() && s.analysis_steps[slot.next_a] == j) {
        ++slot.next_a;
        seconds += cost(Cost::kCt, i);
        slot.mem += slot.cm;
        ++events_;
      }
      const bool output =
          slot.next_o < s.output_steps.size() && s.output_steps[slot.next_o] == j;
      if (output) {
        ++slot.next_o;
        seconds += cost(Cost::kOt, i);
        slot.mem += slot.om;
        ++events_;
      }
      sample += slot.mem;
      if (output) slot.mem = slot.fm;  // Eq 6, after the sample
    }
    close_step(j, seconds, sample);
    return sample;
  }

  /// start() and advance() through the last step.
  template <class CostFn>
  void run(CostFn&& cost) {
    start(cost);
    while (step_ < schedule_->steps()) (void)advance(cost);
  }

  // --- state ---------------------------------------------------------------

  [[nodiscard]] long step() const noexcept { return step_; }  ///< last committed
  [[nodiscard]] double memory(std::size_t i) const {
    INSCHED_EXPECTS(i < slots_.size());
    return slots_[i].mem;
  }
  [[nodiscard]] double setup_seconds() const noexcept { return setup_seconds_; }
  /// Seconds charged in the last committed step.
  [[nodiscard]] double step_seconds() const noexcept { return step_seconds_; }
  /// Setup plus every committed step's seconds: sum_i tAnalyze_{i,step}.
  [[nodiscard]] double cumulative_seconds() const noexcept { return cumulative_seconds_; }
  [[nodiscard]] double peak() const noexcept { return peak_; }
  [[nodiscard]] long peak_step() const noexcept { return peak_step_; }
  /// Committed steps whose sample exceeded mth (sample_exceeds_budget).
  [[nodiscard]] long violations() const noexcept { return violations_; }
  [[nodiscard]] bool within_budget() const noexcept { return violations_ == 0; }
  /// Activations plus charges: the cost events processed so far.
  [[nodiscard]] long events() const noexcept { return events_; }

 private:
  struct Slot {
    double fm = 0.0;
    double mem = 0.0;  ///< mEnd between steps, running mStart within one
    double im = 0.0;   ///< schedule level: the activation's memory costs
    double cm = 0.0;
    double om = 0.0;
    std::size_t next_a = 0;  ///< cursors into the sorted step lists
    std::size_t next_o = 0;
  };

  /// Records a finished step: peak, budget sample, seconds.
  void close_step(long step, double seconds, double sample);

  const Schedule* schedule_ = nullptr;
  double mth_;
  std::vector<Slot> slots_;
  long step_ = 0;
  double setup_seconds_ = 0.0;
  double open_seconds_ = 0.0;
  double step_seconds_ = 0.0;
  double cumulative_seconds_ = 0.0;
  double peak_ = 0.0;
  long peak_step_ = 0;
  long violations_ = 0;
  long events_ = 0;
};

}  // namespace insched::scheduler::recurrence
