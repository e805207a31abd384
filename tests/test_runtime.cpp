// Tests for the runtime layer: the recurrence walker's event protocol,
// metrics, the real in-situ runtime driving a mini-MD simulation, the
// virtual executor (cross-checked against the Eq 2-9 validator), and the
// post-processing pipeline.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "insched/analysis/gyration.hpp"
#include "insched/analysis/msd.hpp"
#include "insched/analysis/error_norms.hpp"
#include "insched/analysis/rdf.hpp"
#include "insched/analysis/registry.hpp"
#include "insched/analysis/vorticity.hpp"
#include "insched/runtime/metrics.hpp"
#include "insched/runtime/postprocess.hpp"
#include "insched/runtime/runtime.hpp"
#include "insched/runtime/virtual_exec.hpp"
#include "insched/scheduler/placement.hpp"
#include "insched/scheduler/recurrence.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/sim/grid/sedov.hpp"
#include "insched/sim/particles/builders.hpp"
#include "insched/sim/particles/lj_md.hpp"
#include "insched/support/random.hpp"

namespace insched::runtime {
namespace {

TEST(RecurrenceWalkerEvents, FollowsRecurrences) {
  // The runtime's event protocol on the Eq 2-8 walker. Mirror of the
  // validator's hand-computed example: fm=10, im=1, cm=5, om=3, steps
  // {1..4}, analysis+output at steps 2 and 4.
  scheduler::recurrence::Walker walker(1, 25.0);
  walker.activate(0, 10.0);
  EXPECT_DOUBLE_EQ(walker.memory(0), 10.0);

  for (long step = 1; step <= 4; ++step) {
    walker.charge(0, 1.0);
    const bool analysis = step == 2 || step == 4;
    if (analysis) {
      walker.charge(0, 5.0);
      walker.charge(0, 3.0);
    }
    walker.commit(step);
    if (analysis) walker.reset(0);
  }
  EXPECT_DOUBLE_EQ(walker.peak(), 20.0);  // 11 + 1 + 5 + 3 at step 2
  EXPECT_EQ(walker.peak_step(), 2);
  EXPECT_TRUE(walker.within_budget());

  scheduler::recurrence::Walker tight(1, 15.0);
  tight.activate(0, 10.0);
  tight.charge(0, 1.0);
  tight.charge(0, 5.0);
  tight.commit(1);
  EXPECT_FALSE(tight.within_budget());
  EXPECT_EQ(tight.violations(), 1);
}

TEST(Metrics, AggregationAndRendering) {
  RunMetrics metrics;
  metrics.steps = 10;
  metrics.simulation_seconds = 100.0;
  AnalysisMetrics a;
  a.name = "rdf";
  a.setup_seconds = 1.0;
  a.per_step_seconds = 2.0;
  a.compute_seconds = 3.0;
  a.output_seconds = 4.0;
  metrics.analyses.push_back(a);
  EXPECT_DOUBLE_EQ(metrics.total_analysis_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(metrics.visible_analysis_seconds(), 7.0);
  EXPECT_DOUBLE_EQ(metrics.utilization(20.0), 0.5);
  EXPECT_DOUBLE_EQ(metrics.overhead_fraction(), 0.1);
  EXPECT_NE(metrics.to_string().find("rdf"), std::string::npos);
}

TEST(MetricsRegistry, MergesConcurrentShards) {
  // Eight shard metrics folded in from four threads: counters add, the
  // per-analysis rows join by name, and peak memory takes the max.
  MetricsRegistry registry;
  auto shard = [](int index) {
    RunMetrics m;
    m.steps = 10;
    m.simulation_seconds = 1.5;
    m.peak_memory_bytes = 100.0 * (index + 1);
    AnalysisMetrics a;
    a.name = index % 2 == 0 ? "rdf" : "msd";
    a.analysis_steps = 2;
    a.compute_seconds = 0.25;
    m.analyses.push_back(a);
    return m;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&registry, &shard, t] {
      registry.merge(shard(2 * t));
      registry.merge(shard(2 * t + 1));
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.merges(), 8);
  const RunMetrics total = registry.snapshot();
  EXPECT_EQ(total.steps, 80);
  EXPECT_DOUBLE_EQ(total.simulation_seconds, 12.0);
  EXPECT_DOUBLE_EQ(total.peak_memory_bytes, 800.0);
  ASSERT_EQ(total.analyses.size(), 2u);
  for (const AnalysisMetrics& a : total.analyses) {
    EXPECT_EQ(a.analysis_steps, 8);
    EXPECT_DOUBLE_EQ(a.compute_seconds, 1.0);
  }

  registry.reset();
  EXPECT_EQ(registry.merges(), 0);
  EXPECT_EQ(registry.snapshot().steps, 0);
}

TEST(Runtime, ExecutesScheduleOnRealSimulation) {
  sim::WaterIonsSpec spec;
  spec.molecules = 150;
  spec.hydronium_fraction = 0.05;
  spec.ion_fraction = 0.05;
  sim::LjSimulation md(sim::water_ions(spec), sim::MdParams{});
  md.minimize(50);
  md.thermalize(5);

  analysis::AnalysisRegistry registry;
  analysis::RdfConfig rdf_config;
  rdf_config.pairs = {{sim::Species::kHydronium, sim::Species::kWaterO}};
  registry.add(std::make_unique<analysis::RdfAnalysis>("A1", md.system(), rdf_config));
  analysis::MsdConfig msd_config;
  msd_config.group = {sim::Species::kIon};
  registry.add(std::make_unique<analysis::MsdAnalysis>("A4", md.system(), msd_config));

  // 30 steps, A1 every 10 (3x), A4 every 15 (2x), outputs at every analysis.
  scheduler::Schedule schedule(
      30, {scheduler::AnalysisSchedule{"A1", {10, 20, 30}, {10, 20, 30}},
           scheduler::AnalysisSchedule{"A4", {15, 30}, {30}}});

  RuntimeConfig config;
  config.storage = machine::StorageModel{.write_bw = 1e9, .read_bw = 1e9, .latency_s = 0.0};
  InsituRuntime runtime(md, registry, schedule, config);
  const RunMetrics metrics = runtime.run();

  EXPECT_EQ(metrics.steps, 30);
  EXPECT_EQ(md.current_step(), 30);
  ASSERT_EQ(metrics.analyses.size(), 2u);
  EXPECT_EQ(metrics.analyses[0].analysis_steps, 3);
  EXPECT_EQ(metrics.analyses[0].output_steps, 3);
  EXPECT_EQ(metrics.analyses[1].analysis_steps, 2);
  EXPECT_EQ(metrics.analyses[1].output_steps, 1);
  EXPECT_GT(metrics.simulation_seconds, 0.0);
  EXPECT_GT(metrics.analyses[0].compute_seconds, 0.0);
  EXPECT_GT(metrics.analyses[1].per_step_seconds, 0.0);  // MSD tracks every step
  EXPECT_GT(metrics.analyses[0].bytes_written, 0.0);
  EXPECT_GT(metrics.peak_memory_bytes, 0.0);
  EXPECT_EQ(metrics.memory_violations, 0);
}

TEST(Runtime, InactiveAnalysesNeverRun) {
  sim::WaterIonsSpec spec;
  spec.molecules = 60;
  sim::LjSimulation md(sim::water_ions(spec), sim::MdParams{});
  md.minimize(30);

  analysis::AnalysisRegistry registry;
  analysis::MsdConfig msd_config;
  msd_config.group = {sim::Species::kWaterO};
  registry.add(std::make_unique<analysis::MsdAnalysis>("idle", md.system(), msd_config));

  scheduler::Schedule schedule(5, {scheduler::AnalysisSchedule{"idle", {}, {}}});
  InsituRuntime runtime(md, registry, schedule, RuntimeConfig{});
  const RunMetrics metrics = runtime.run();
  EXPECT_EQ(metrics.analyses[0].analysis_steps, 0);
  EXPECT_DOUBLE_EQ(metrics.analyses[0].setup_seconds, 0.0);
  EXPECT_DOUBLE_EQ(metrics.analyses[0].per_step_seconds, 0.0);
  EXPECT_DOUBLE_EQ(metrics.peak_memory_bytes, 0.0);
}

// Property: the virtual executor and the validator implement the same
// recurrences, so their totals must agree exactly on any feasible schedule.
class VirtualVsValidator : public ::testing::TestWithParam<int> {};

TEST_P(VirtualVsValidator, TotalsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 23u);
  scheduler::ScheduleProblem problem;
  problem.steps = rng.uniform_int(20, 120);
  problem.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  problem.threshold = 1e9;
  problem.output_policy = scheduler::OutputPolicy::kOptimized;
  const int n = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n; ++i) {
    scheduler::AnalysisParams a;
    a.name = "a" + std::to_string(i);
    a.ft = rng.uniform(0.0, 2.0);
    a.it = rng.uniform(0.0, 0.2);
    a.ct = rng.uniform(0.1, 3.0);
    a.ot = rng.uniform(0.0, 1.0);
    a.fm = rng.uniform(0.0, 10.0);
    a.im = rng.uniform(0.0, 1.0);
    a.cm = rng.uniform(0.0, 5.0);
    a.om = rng.uniform(0.0, 5.0);
    a.itv = rng.uniform_int(1, 10);
    problem.analyses.push_back(a);
  }

  // Random feasible counts placed on the timeline.
  scheduler::PlacementRequest request;
  for (int i = 0; i < n; ++i) {
    const long maxc = problem.max_analysis_steps(static_cast<std::size_t>(i));
    const long c = rng.uniform_int(0, maxc);
    request.analysis_counts.push_back(c);
    request.output_counts.push_back(c > 0 ? rng.uniform_int(0, c) : 0);
  }
  const scheduler::Schedule schedule = scheduler::place(problem, request);

  const scheduler::ValidationReport expected = scheduler::validate_schedule(problem, schedule);
  VirtualExecConfig config;
  config.sim_time_per_step = rng.uniform(0.1, 2.0);
  const VirtualRunReport actual = virtual_execute(problem, schedule, config);

  EXPECT_NEAR(actual.metrics.total_analysis_seconds(), expected.total_analysis_time, 1e-9);
  EXPECT_NEAR(actual.metrics.peak_memory_bytes, expected.peak_memory, 1e-9);
  for (std::size_t i = 0; i < problem.size(); ++i) {
    EXPECT_NEAR(actual.metrics.analyses[i].total_seconds(),
                expected.breakdown[i].total(), 1e-9);
    EXPECT_NEAR(actual.metrics.analyses[i].visible_seconds(),
                expected.breakdown[i].visible(), 1e-9);
  }
  // Per-step series sums to simulation + analyses (+ no sim output here).
  double series_total = 0.0;
  for (double s : actual.step_seconds) series_total += s;
  EXPECT_NEAR(series_total + actual.metrics.analyses.size() * 0.0,
              actual.metrics.simulation_seconds +
                  actual.metrics.total_analysis_seconds() -
                  [&] {
                    double setup = 0.0;
                    for (const auto& a : actual.metrics.analyses) setup += a.setup_seconds;
                    return setup;
                  }(),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VirtualVsValidator, ::testing::Range(0, 25));

TEST(VirtualExec, SimulationOutputChargedAtInterval) {
  scheduler::ScheduleProblem problem;
  problem.steps = 10;
  problem.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  problem.threshold = 100.0;
  problem.analyses.push_back(scheduler::AnalysisParams{.name = "a", .ct = 0.5, .ot = 0.0,
                                                       .itv = 1});
  const scheduler::Schedule schedule =
      scheduler::place(problem, scheduler::PlacementRequest{{2}, {2}});
  VirtualExecConfig config;
  config.sim_time_per_step = 1.0;
  config.sim_output_bytes_per_step = 100.0;
  config.sim_output_interval = 5;
  config.write_bw = 50.0;
  const VirtualRunReport report = virtual_execute(problem, schedule, config);
  EXPECT_DOUBLE_EQ(report.sim_output_seconds, 4.0);  // 2 outputs x 2 s
  EXPECT_DOUBLE_EQ(report.metrics.simulation_seconds, 10.0);
  EXPECT_NEAR(report.end_to_end_seconds, 10.0 + 1.0 + 4.0, 1e-12);
}

TEST(Postprocess, RealPipelineRoundTrips) {
  RealPipelineSpec spec;
  spec.molecules = 120;
  spec.steps = 60;
  spec.output_interval = 20;
  spec.analysis_interval = 20;
  const PostprocessComparison cmp = run_real(spec);
  EXPECT_EQ(cmp.frames, 3);
  EXPECT_GT(cmp.atoms, 120u);
  EXPECT_GT(cmp.write_seconds, 0.0);
  EXPECT_GT(cmp.read_seconds, 0.0);
  EXPECT_GT(cmp.postprocess_seconds, 0.0);
  EXPECT_GT(cmp.insitu_seconds, 0.0);
}

TEST(Postprocess, ModeledTable4Shape) {
  ModeledPipelineSpec spec;
  spec.atoms = 100352;
  spec.analysis_site = machine::workstation();
  spec.simulation_site = machine::mira_partition(1024);
  const PostprocessComparison cmp = model(spec);
  // The paper's Table-4 ordering: read >> serial analysis >> in-situ.
  EXPECT_GT(cmp.read_seconds, cmp.postprocess_seconds);
  EXPECT_GT(cmp.postprocess_seconds, cmp.insitu_seconds);
  EXPECT_GT(cmp.speedup(), 100.0);
}

TEST(Postprocess, ModeledReadGrowsWithAtoms) {
  ModeledPipelineSpec small;
  small.atoms = 12544;
  small.analysis_site = machine::workstation();
  small.simulation_site = machine::mira_partition(1024);
  ModeledPipelineSpec large = small;
  large.atoms = 100352;
  EXPECT_GT(model(large).read_seconds, model(small).read_seconds * 7.0);
}


TEST(Runtime, DrivesGridSimulationWithDiagnostics) {
  // FLASH-like path through the real runtime: Euler/Sedov with scheduled
  // vorticity + L1 norm diagnostics.
  sim::EulerSolver solver(sim::GridGeometry{16, 1.0}, sim::EulerParams{});
  sim::SedovSpec blast;
  sim::initialize_sedov(solver, blast);
  const sim::SedovReference reference(blast, solver.params().gamma);

  analysis::AnalysisRegistry registry;
  registry.add(std::make_unique<analysis::VorticityAnalysis>("F1", solver));
  registry.add(std::make_unique<analysis::ErrorNormAnalysis>(
      "F2", solver, reference, analysis::NormKind::kL1DensityPressure));

  scheduler::Schedule schedule(
      20, {scheduler::AnalysisSchedule{"F1", {10, 20}, {10, 20}},
           scheduler::AnalysisSchedule{"F2", {5, 10, 15, 20}, {20}}});
  RuntimeConfig config;
  config.storage = machine::StorageModel{.write_bw = 1e9, .read_bw = 1e9, .latency_s = 0.0};
  InsituRuntime runtime(solver, registry, schedule, config);
  const RunMetrics metrics = runtime.run();
  EXPECT_EQ(solver.current_step(), 20);
  EXPECT_EQ(metrics.analyses[0].analysis_steps, 2);
  EXPECT_EQ(metrics.analyses[1].analysis_steps, 4);
  EXPECT_GT(metrics.analyses[0].bytes_written, 0.0);  // vorticity field flushed
  EXPECT_GT(metrics.simulation_seconds, 0.0);
  EXPECT_EQ(metrics.memory_violations, 0);
}


TEST(Runtime, AsyncOutputHidesWriteTimeBehindSimulation) {
  // Heavy modeled writes (1 s each at 1 B/s bandwidth... use bytes/bw to get
  // a controlled debt) against slow sim steps: async mode must not charge
  // the write time to the analysis, and the debt must drain.
  sim::WaterIonsSpec spec;
  spec.molecules = 120;
  sim::LjSimulation md(sim::water_ions(spec), sim::MdParams{});
  md.minimize(40);

  analysis::AnalysisRegistry blocking_reg, async_reg;
  analysis::MsdConfig config;
  config.group = {sim::Species::kWaterO};
  blocking_reg.add(std::make_unique<analysis::MsdAnalysis>("m", md.system(), config));
  async_reg.add(std::make_unique<analysis::MsdAnalysis>("m", md.system(), config));

  scheduler::Schedule schedule(
      12, {scheduler::AnalysisSchedule{"m", {4, 8, 12}, {4, 8, 12}}});

  RuntimeConfig blocking;
  blocking.storage = machine::StorageModel{.write_bw = 100.0, .read_bw = 100.0,
                                           .latency_s = 0.0};  // very slow store
  RuntimeConfig async = blocking;
  async.async_output = true;

  sim::LjSimulation md2(md.system(), sim::MdParams{});  // same state, fresh engine
  const RunMetrics b = InsituRuntime(md, blocking_reg, schedule, blocking).run();
  const RunMetrics a = InsituRuntime(md2, async_reg, schedule, async).run();

  // Blocking charges the modeled write to the analysis; async does not.
  EXPECT_GT(b.analyses[0].output_seconds, a.analyses[0].output_seconds);
  EXPECT_GT(a.async_output_seconds, 0.0);
  EXPECT_DOUBLE_EQ(b.async_output_seconds, 0.0);
  // Conservation: issued async time = hidden + drained remainder.
  EXPECT_LE(a.async_drain_seconds, a.async_output_seconds + 1e-12);
}

namespace {

/// Synthetic analysis that records its lifecycle calls — used to verify the
/// runtime follows an arbitrary schedule exactly without kernel cost.
class CountingAnalysis final : public analysis::IAnalysis {
 public:
  explicit CountingAnalysis(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  void setup() override { ++setups; }
  void per_step() override { ++per_steps; }
  analysis::AnalysisResult analyze() override {
    ++analyzes;
    return {};
  }
  double output() override {
    ++outputs;
    return 64.0;
  }
  int setups = 0, per_steps = 0, analyzes = 0, outputs = 0;

 private:
  std::string name_;
};

/// No-op simulation for schedule-conformance tests.
class NullSimulation final : public sim::ISimulation {
 public:
  void step() override { ++step_; }
  [[nodiscard]] long current_step() const noexcept override { return step_; }
  [[nodiscard]] double output_frame_bytes() const noexcept override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "null"; }

 private:
  long step_ = 0;
};

}  // namespace

class RuntimeConformance : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeConformance, FollowsArbitrarySchedulesExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7481u + 5u);
  const long steps = rng.uniform_int(10, 80);
  const int n = static_cast<int>(rng.uniform_int(1, 4));

  std::vector<scheduler::AnalysisSchedule> schedules;
  analysis::AnalysisRegistry registry;
  std::vector<CountingAnalysis*> counters;
  for (int i = 0; i < n; ++i) {
    scheduler::AnalysisSchedule s;
    s.name = "count" + std::to_string(i);
    for (long step = 1; step <= steps; ++step)
      if (rng.bernoulli(0.3)) s.analysis_steps.push_back(step);
    for (long a : s.analysis_steps)
      if (rng.bernoulli(0.4)) s.output_steps.push_back(a);
    auto counter = std::make_unique<CountingAnalysis>(s.name);
    counters.push_back(counter.get());
    registry.add(std::move(counter));
    schedules.push_back(std::move(s));
  }
  const scheduler::Schedule schedule(steps, schedules);

  NullSimulation sim;
  InsituRuntime runtime(sim, registry, schedule, RuntimeConfig{});
  const RunMetrics metrics = runtime.run();

  EXPECT_EQ(sim.current_step(), steps);
  for (int i = 0; i < n; ++i) {
    const auto& s = schedule.analysis(static_cast<std::size_t>(i));
    const bool active = s.active();
    EXPECT_EQ(counters[static_cast<std::size_t>(i)]->setups, active ? 1 : 0);
    EXPECT_EQ(counters[static_cast<std::size_t>(i)]->per_steps, active ? steps : 0);
    EXPECT_EQ(counters[static_cast<std::size_t>(i)]->analyzes, s.analysis_count());
    EXPECT_EQ(counters[static_cast<std::size_t>(i)]->outputs, s.output_count());
    EXPECT_EQ(metrics.analyses[static_cast<std::size_t>(i)].analysis_steps,
              s.analysis_count());
    EXPECT_EQ(metrics.analyses[static_cast<std::size_t>(i)].output_steps, s.output_count());
    if (s.output_count() > 0) {
      EXPECT_DOUBLE_EQ(metrics.analyses[static_cast<std::size_t>(i)].bytes_written,
                       64.0 * s.output_count());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RuntimeConformance, ::testing::Range(0, 20));
}  // namespace
}  // namespace insched::runtime
