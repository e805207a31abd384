#pragma once

// A concrete in-situ schedule: for each analysis the sorted simulation steps
// at which it runs (the paper's set C_i) and at which it writes output (O_i).
// Steps are 1-based like the paper's recurrences; step 0 carries only the
// fixed setup of active analyses.

#include <string>
#include <vector>

namespace insched::scheduler {

struct AnalysisSchedule {
  std::string name;
  std::vector<long> analysis_steps;  ///< strictly increasing, in [1, steps]; C_i
  std::vector<long> output_steps;    ///< strictly increasing subset of C_i; O_i

  [[nodiscard]] long analysis_count() const noexcept {
    return static_cast<long>(analysis_steps.size());
  }
  [[nodiscard]] long output_count() const noexcept {
    return static_cast<long>(output_steps.size());
  }
  [[nodiscard]] bool active() const noexcept { return !analysis_steps.empty(); }
  [[nodiscard]] bool is_analysis_step(long step) const;
  [[nodiscard]] bool is_output_step(long step) const;
};

/// Why `analyses` over `steps` steps cannot form a Schedule; empty when
/// they can. The invariant: steps >= 0, every step list strictly increasing
/// within [1, steps], and O_i a subset of C_i. The Schedule constructor
/// aborts on a defect; schedule_from_json throws it as std::runtime_error.
[[nodiscard]] std::string schedule_defect(long steps,
                                          const std::vector<AnalysisSchedule>& analyses);

class Schedule {
 public:
  Schedule() = default;
  /// Aborts unless schedule_defect(steps, analyses) is empty.
  Schedule(long steps, std::vector<AnalysisSchedule> analyses);

  [[nodiscard]] long steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t size() const noexcept { return analyses_.size(); }
  [[nodiscard]] const AnalysisSchedule& analysis(std::size_t i) const;
  [[nodiscard]] const std::vector<AnalysisSchedule>& analyses() const noexcept {
    return analyses_;
  }

  /// Number of active analyses (|A| in the objective).
  [[nodiscard]] long active_count() const noexcept;

  /// Total analysis steps across analyses (sum |C_i|).
  [[nodiscard]] long total_analysis_steps() const noexcept;

  /// Analysis frequencies as a vector of |C_i| (paper tables report these).
  [[nodiscard]] std::vector<long> frequencies() const;

  /// Paper-objective value |A| + sum_i w_i |C_i| given the weights.
  [[nodiscard]] double objective(const std::vector<double>& weights) const;

  /// Figure-1 style timeline: "S S S S A S OA ..." — S for a simulation
  /// step, A/O suffixes when any analysis/output runs after it. Truncated to
  /// `max_steps` steps for display.
  [[nodiscard]] std::string render(long max_steps = 60,
                                   const std::vector<long>& sim_output_steps = {}) const;

 private:
  long steps_ = 0;
  std::vector<AnalysisSchedule> analyses_;
};

}  // namespace insched::scheduler
