#pragma once

// The in-situ coupling layer (the paper's Figure-1 loop): drives the
// simulation step by step, interleaves the scheduled analyses on the same
// resources and address space, tracks memory per the Eq 5-8 recurrences and
// models output I/O through a storage model. The GLEAN-analog of this
// library.

#include <limits>
#include <optional>

#include "insched/analysis/registry.hpp"
#include "insched/perfmodel/online.hpp"
#include "insched/machine/storage.hpp"
#include "insched/runtime/metrics.hpp"
#include "insched/scheduler/params.hpp"
#include "insched/scheduler/schedule.hpp"
#include "insched/sim/simulation.hpp"

namespace insched::runtime {

/// What the runtime does when an analysis step throws or a committed step's
/// memory peak overruns the budget (docs/ROBUSTNESS.md). The simulation
/// itself is never sacrificed: analyses are the expendable part of the loop.
enum class FailurePolicy {
  kSkipAndLog,       ///< drop this step's analysis work, keep it scheduled
  kDisableAnalysis,  ///< permanently disable the offending analysis
  kAbort,            ///< propagate: the exception leaves run()
};

[[nodiscard]] const char* to_string(FailurePolicy policy) noexcept;

struct RuntimeConfig {
  /// Storage model for analysis outputs; when set, each output's modeled
  /// write time (bytes/bw) is charged to the analysis's output_seconds in
  /// addition to the measured serialization cost.
  std::optional<machine::StorageModel> storage;
  /// Memory budget of the per-step recurrence sample (bytes); infinity
  /// disables violations.
  double memory_budget = std::numeric_limits<double>::infinity();
  /// Record wall-clock per-phase times (off for pure functional runs).
  bool measure_time = true;
  /// GLEAN-style asynchronous output: modeled write time drains behind
  /// subsequent simulation steps instead of blocking the analysis; any
  /// remainder at the end of the run is charged as async_drain_seconds.
  bool async_output = false;
  /// Applied when IAnalysis::analyze() or output() throws.
  FailurePolicy on_analysis_failure = FailurePolicy::kSkipAndLog;
  /// Applied when a committed step's memory peak exceeds `memory_budget`.
  /// kDisableAnalysis turns off the largest-footprint active analysis.
  FailurePolicy on_memory_overrun = FailurePolicy::kSkipAndLog;
  /// Online feedback sink (docs/ONLINE.md): every successful analysis step
  /// streams its measured compute seconds / output seconds / allocated bytes
  /// here, tagged with the coordinates below. Not owned; may be shared with
  /// concurrent runs (the model is thread-safe). nullptr disables feedback.
  perfmodel::OnlineCostModel* online = nullptr;
  /// Cost-model coordinates stamped on each sample for bilinear grid
  /// updates; NaN (default) means coordinates unknown.
  double online_data_size = std::numeric_limits<double>::quiet_NaN();
  double online_nprocs = std::numeric_limits<double>::quiet_NaN();
};

class InsituRuntime {
 public:
  /// The registry must hold exactly one analysis per schedule entry, in the
  /// same order. The schedule is typically the output of solve_schedule().
  InsituRuntime(sim::ISimulation& simulation, analysis::AnalysisRegistry& analyses,
                const scheduler::Schedule& schedule, RuntimeConfig config = {});

  /// Runs the whole schedule (schedule.steps() simulation steps) and returns
  /// the measured metrics.
  RunMetrics run();

 private:
  sim::ISimulation& simulation_;
  analysis::AnalysisRegistry& analyses_;
  const scheduler::Schedule& schedule_;
  RuntimeConfig config_;
};

}  // namespace insched::runtime
