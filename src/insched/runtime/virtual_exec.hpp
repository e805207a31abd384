#pragma once

// Virtual executor: replays a schedule against the Table-1 cost parameters
// and a machine model instead of real kernels — this is how the paper-scale
// experiments (100M-1G atoms on 2Ki-32Ki cores of Mira) are reproduced on a
// laptop. It is the scheduler::recurrence::Walker billing modeled costs,
// viewed as RunMetrics; InsituRuntime feeds the same walker measured bytes,
// so its reports have exactly the same shape as real runs.

#include <vector>

#include "insched/perfmodel/online.hpp"
#include "insched/runtime/metrics.hpp"
#include "insched/scheduler/params.hpp"
#include "insched/scheduler/schedule.hpp"

namespace insched::runtime {

struct VirtualRunReport {
  RunMetrics metrics;                   ///< modeled times in RunMetrics form
  std::vector<double> step_seconds;     ///< per-step total (sim + analyses)
  double sim_output_seconds = 0.0;      ///< simulation output I/O, if modeled
  double end_to_end_seconds = 0.0;      ///< sim + analyses + sim output
};

struct VirtualExecConfig {
  double sim_time_per_step = 0.0;        ///< seconds per simulation step
  double sim_output_bytes_per_step = 0.0;///< simulation output frame size
  long sim_output_interval = 0;          ///< 0 = simulation writes nothing
  double write_bw = 0.0;                 ///< bytes/s for simulation output
  /// The costs reality charges, when they differ from the costs the
  /// schedule was solved with (docs/ONLINE.md): same analyses/steps as the
  /// scheduled problem, but ct/ot/cm/... as actually measured. nullptr =
  /// replay the scheduled costs verbatim. Not owned.
  const scheduler::ScheduleProblem* actual = nullptr;
  /// Online feedback sink; each analysis/output step streams the cost it
  /// was charged (the `actual` cost when given). Not owned.
  perfmodel::OnlineCostModel* online = nullptr;
};

/// Replays `schedule` for `problem`'s analyses under the virtual costs.
[[nodiscard]] VirtualRunReport virtual_execute(const scheduler::ScheduleProblem& problem,
                                               const scheduler::Schedule& schedule,
                                               const VirtualExecConfig& config);

}  // namespace insched::runtime
