#include "insched/runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "insched/perfmodel/profiler.hpp"
#include "insched/scheduler/recurrence.hpp"
#include "insched/support/assert.hpp"
#include "insched/support/fault_inject.hpp"
#include "insched/support/log.hpp"

namespace insched::runtime {

const char* to_string(FailurePolicy policy) noexcept {
  switch (policy) {
    case FailurePolicy::kSkipAndLog: return "skip_and_log";
    case FailurePolicy::kDisableAnalysis: return "disable_analysis";
    case FailurePolicy::kAbort: return "abort";
  }
  return "unknown";
}

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}
}  // namespace

InsituRuntime::InsituRuntime(sim::ISimulation& simulation,
                             analysis::AnalysisRegistry& analyses,
                             const scheduler::Schedule& schedule, RuntimeConfig config)
    : simulation_(simulation), analyses_(analyses), schedule_(schedule), config_(config) {
  INSCHED_EXPECTS(analyses.size() == schedule.size());
}

RunMetrics InsituRuntime::run() {
  const std::size_t n = schedule_.size();
  RunMetrics metrics;
  metrics.steps = schedule_.steps();
  metrics.analyses.resize(n);

  // The Eq 5-8 memory recurrence, fed the bytes each phase measurably adds.
  scheduler::recurrence::Walker walker(n, config_.memory_budget);
  std::optional<machine::SimulatedStore> store;
  if (config_.storage) store.emplace(*config_.storage);

  // Step 0: setup of active analyses (Eq 3 / Eq 7).
  for (std::size_t i = 0; i < n; ++i) {
    const scheduler::AnalysisSchedule& s = schedule_.analysis(i);
    metrics.analyses[i].name = s.name;
    if (!s.active()) continue;
    analysis::IAnalysis& a = analyses_.at(i);
    const auto begin = Clock::now();
    {
      INSCHED_PROFILE("insitu/setup");
      a.setup();
    }
    if (config_.measure_time) metrics.analyses[i].setup_seconds = seconds_since(begin);
    walker.activate(i, a.resident_bytes());
  }

  // Per-analysis cursors over the sorted step lists.
  std::vector<std::size_t> next_a(n, 0), next_o(n, 0);
  double async_debt = 0.0;  // modeled write time not yet hidden

  // Failure-policy state: analyses turned off mid-run, and the violation
  // count already attributed to a policy decision.
  std::vector<char> disabled(n, 0);
  long violations_seen = 0;
  const auto disable = [&](std::size_t i, const char* why) {
    disabled[i] = 1;
    metrics.analyses[i].disabled = true;
    ++metrics.analyses_disabled;
    INSCHED_LOG_WARN("insitu runtime: disabling analysis '%s' (%s)",
                     metrics.analyses[i].name.c_str(), why);
  };
  // Shared analyze/output failure handling; returns after applying the
  // configured policy (kAbort rethrows from the catch site instead).
  const auto note_failure = [&](std::size_t i, long step, const char* phase,
                                const char* what) {
    ++metrics.analyses[i].failures;
    ++metrics.analysis_failures;
    INSCHED_LOG_WARN("insitu runtime: analysis '%s' %s failed at step %ld: %s",
                     metrics.analyses[i].name.c_str(), phase, step, what);
    if (config_.on_analysis_failure == FailurePolicy::kDisableAnalysis)
      disable(i, "analysis failure policy");
  };

  for (long step = 1; step <= schedule_.steps(); ++step) {
    {
      INSCHED_PROFILE("simulation/step");
      const auto begin = Clock::now();
      simulation_.step();
      const double sim_seconds = seconds_since(begin);
      if (config_.measure_time) metrics.simulation_seconds += sim_seconds;
      // The background output channel drains while the simulation computes.
      async_debt = std::max(0.0, async_debt - sim_seconds);
    }

    // Per-step facilitation of every active analysis (it / im).
    for (std::size_t i = 0; i < n; ++i) {
      const scheduler::AnalysisSchedule& s = schedule_.analysis(i);
      if (!s.active() || disabled[i]) continue;
      analysis::IAnalysis& a = analyses_.at(i);
      const double before = a.resident_bytes();
      const auto begin = Clock::now();
      {
        INSCHED_PROFILE("insitu/per_step");
        a.per_step();
      }
      if (config_.measure_time)
        metrics.analyses[i].per_step_seconds += seconds_since(begin);
      walker.charge(i, std::max(0.0, a.resident_bytes() - before));
    }

    // Analysis steps (ct / cm).
    std::vector<bool> output_now(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      const scheduler::AnalysisSchedule& s = schedule_.analysis(i);
      const bool analysis_step =
          next_a[i] < s.analysis_steps.size() && s.analysis_steps[next_a[i]] == step;
      if (!analysis_step) continue;
      ++next_a[i];
      const bool output_due =
          next_o[i] < s.output_steps.size() && s.output_steps[next_o[i]] == step;
      if (disabled[i]) {
        // Keep the output cursor aligned with the schedule even while off.
        if (output_due) ++next_o[i];
        continue;
      }
      analysis::IAnalysis& a = analyses_.at(i);
      const double before = a.resident_bytes();
      const auto begin = Clock::now();
      bool ok = true;
      try {
        INSCHED_PROFILE("insitu/analyze");
        if (fault::enabled() && fault::should_fail(fault::Hook::kRuntimeAnalyze))
          throw std::runtime_error("injected analysis fault");
        (void)a.analyze();
      } catch (const std::exception& e) {
        if (config_.on_analysis_failure == FailurePolicy::kAbort) throw;
        ok = false;
        note_failure(i, step, "analyze", e.what());
      }
      const double analyze_seconds = seconds_since(begin);
      if (config_.measure_time)
        metrics.analyses[i].compute_seconds += analyze_seconds;
      if (!ok) {
        // The failed step produced nothing to flush.
        if (output_due) ++next_o[i];
        continue;
      }
      ++metrics.analyses[i].analysis_steps;
      const double analyze_bytes = std::max(0.0, a.resident_bytes() - before);
      walker.charge(i, analyze_bytes);
      if (config_.online != nullptr) {
        perfmodel::CostSample sample;
        sample.ct = analyze_seconds;
        sample.cm = analyze_bytes;
        sample.data_size = config_.online_data_size;
        sample.nprocs = config_.online_nprocs;
        config_.online->observe(metrics.analyses[i].name, sample);
      }

      output_now[i] = output_due;
    }

    // The step's memory is sampled before the outputs flush, the Eq 6 reset
    // after them; output bytes are written out, not held (om folds into
    // bytes_written below).
    walker.commit(step);

    // Memory-budget overrun policy: the walker samples the step's committed
    // peak against the budget; new violations trigger the configured action.
    const long violations_now = walker.violations();
    if (violations_now > violations_seen) {
      metrics.memory_overruns += violations_now - violations_seen;
      violations_seen = violations_now;
      switch (config_.on_memory_overrun) {
        case FailurePolicy::kAbort:
          throw std::runtime_error("in-situ memory budget overrun at step " +
                                   std::to_string(step));
        case FailurePolicy::kDisableAnalysis: {
          // Shed the largest-footprint analysis still running; its tracked
          // memory stops growing and later steps skip it entirely.
          std::size_t victim = n;
          double worst = -1.0;
          for (std::size_t i = 0; i < n; ++i) {
            if (disabled[i] || !schedule_.analysis(i).active()) continue;
            const double b = analyses_.at(i).resident_bytes();
            if (b > worst) {
              worst = b;
              victim = i;
            }
          }
          if (victim < n) disable(victim, "memory budget overrun");
          break;
        }
        case FailurePolicy::kSkipAndLog:
          INSCHED_LOG_WARN("insitu runtime: memory budget overrun at step %ld "
                           "(peak %.0f bytes)",
                           step, walker.peak());
          break;
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (!output_now[i]) continue;
      ++next_o[i];
      analysis::IAnalysis& a = analyses_.at(i);
      const auto begin = Clock::now();
      double bytes = 0.0;
      bool ok = true;
      try {
        INSCHED_PROFILE("insitu/output");
        if (fault::enabled() && fault::should_fail(fault::Hook::kRuntimeOutput))
          throw std::runtime_error("injected output fault");
        bytes = a.output();
      } catch (const std::exception& e) {
        if (config_.on_analysis_failure == FailurePolicy::kAbort) throw;
        ok = false;
        note_failure(i, step, "output", e.what());
      }
      double flush_seconds = seconds_since(begin);
      if (config_.measure_time) metrics.analyses[i].output_seconds += flush_seconds;
      if (ok) {
        if (store) {
          const double write_seconds = store->write(bytes);
          if (config_.async_output) {
            metrics.async_output_seconds += write_seconds;
            async_debt += write_seconds;  // hidden behind later sim steps
          } else {
            metrics.analyses[i].output_seconds += write_seconds;
            flush_seconds += write_seconds;
          }
        }
        metrics.analyses[i].bytes_written += bytes;
        ++metrics.analyses[i].output_steps;
        if (config_.online != nullptr) {
          perfmodel::CostSample sample;
          sample.ot = flush_seconds;
          sample.data_size = config_.online_data_size;
          sample.nprocs = config_.online_nprocs;
          config_.online->observe(metrics.analyses[i].name, sample);
        }
      }
      // The output buffer is released either way (a failed flush is dropped),
      // keeping the Eq 5-6 recurrence consistent.
      walker.reset(i);
    }
  }

  metrics.peak_memory_bytes = walker.peak();
  metrics.memory_violations = walker.violations();
  metrics.async_drain_seconds = async_debt;  // unhidden remainder at the end
  return metrics;
}

}  // namespace insched::runtime
