// Tests for the discrete-event replay layer (docs/REPLAY.md): trajectory
// extraction vs the exact validator, the zero-jitter differential property
// (replay == prediction bit for bit), jittered-replay soundness (a budget
// violation never goes unflagged), the time-expanded mStart column check
// (one-sided: big-M rows bound the recurrence from below only), the
// scenario sweep / corpus round trip, the in-process fuzzer, and the
// degenerate big-M time-limit regression (ROADMAP 2b: a time-limited
// time-expanded solve must return within 2x its budget and never
// misreport the model as infeasible).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "insched/analysis/msd.hpp"
#include "insched/analysis/rdf.hpp"
#include "insched/analysis/registry.hpp"
#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/replay/fuzz.hpp"
#include "insched/replay/replay.hpp"
#include "insched/replay/scenario.hpp"
#include "insched/runtime/runtime.hpp"
#include "insched/runtime/virtual_exec.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/placement.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/scheduler/trajectory.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/sim/particles/builders.hpp"
#include "insched/sim/particles/lj_md.hpp"
#include "insched/support/random.hpp"

namespace {

using namespace insched;
using scheduler::AnalysisParams;
using scheduler::AnalysisSchedule;
using scheduler::Schedule;
using scheduler::ScheduleProblem;

// ---------------------------------------------------------------------------
// Fixtures (mirroring tests/test_serve.cpp so the regimes line up).

AnalysisParams make_analysis(const char* name, double ct, double weight, long itv) {
  AnalysisParams a;
  a.name = name;
  a.ft = 2.0;
  a.it = 0.01;
  a.ct = ct;
  a.ot = 0.5;
  a.fm = 10.0;
  a.im = 1.0;
  a.cm = 5.0;
  a.om = 3.0;
  a.weight = weight;
  a.itv = itv;
  return a;
}

/// The degenerate big-M shape the `degenerate-bigm-memory` lint flags:
/// finite mth under kOptimized, so the time-expanded model carries
/// mStart/mEnd columns whose LP relaxation is weak (docs/FORMULATION.md).
ScheduleProblem two_analysis_problem() {
  ScheduleProblem p;
  p.steps = 100;
  p.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  p.threshold = 50.0;
  p.mth = 4096.0;
  p.output_policy = scheduler::OutputPolicy::kOptimized;
  p.analyses.push_back(make_analysis("alpha", 1.0, 1.0, 2));
  p.analyses.push_back(make_analysis("beta", 0.5, 2.0, 5));
  p.analyses.back().ft = 1.0;
  return p;
}

/// The steps-heavy staircase regime whose time-expanded optima at steps=500
/// are 63 (water), 78 (rhodo), 150 (flash) — tests/test_serve.cpp.
ScheduleProblem staircase_problem(ScheduleProblem p, long steps, double weight_scale) {
  p.steps = steps;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, p.steps / 20);
    a.weight *= weight_scale;
  }
  return p;
}

std::vector<ScheduleProblem> staircase_problems() {
  return {staircase_problem(casestudy::water_ions_problem(16384, 0.08), 500, 1.0),
          staircase_problem(casestudy::rhodopsin_problem(100.0), 500, 3.0),
          staircase_problem(casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08), 500, 3.0)};
}

/// Random-but-valid problem + placed schedule, the shape the virtual-vs-
/// validator property test in tests/test_runtime.cpp uses.
struct RandomCase {
  ScheduleProblem problem;
  Schedule schedule;
};

RandomCase random_case(std::uint64_t seed) {
  Rng rng(seed * 6151u + 23u);
  ScheduleProblem p;
  p.steps = rng.uniform_int(20, 120);
  p.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  p.threshold = 1e9;
  const int policy = static_cast<int>(rng.uniform_int(0, 2));
  p.output_policy = policy == 0   ? scheduler::OutputPolicy::kEveryAnalysis
                    : policy == 1 ? scheduler::OutputPolicy::kOptimized
                                  : scheduler::OutputPolicy::kNone;
  const int n = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n; ++i) {
    AnalysisParams a;
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
    p.analyses.push_back(a);
  }
  scheduler::PlacementRequest request;
  for (int i = 0; i < n; ++i) {
    const long maxc = p.max_analysis_steps(static_cast<std::size_t>(i));
    const long c = rng.uniform_int(0, maxc);
    request.analysis_counts.push_back(c);
    if (p.output_policy == scheduler::OutputPolicy::kEveryAnalysis)
      request.output_counts.push_back(c);
    else if (p.output_policy == scheduler::OutputPolicy::kOptimized)
      request.output_counts.push_back(c > 0 ? 1 : 0);
    else
      request.output_counts.push_back(0);
  }
  Schedule s = scheduler::place(p, request);
  return {std::move(p), std::move(s)};
}

// ---------------------------------------------------------------------------
// Trajectory extraction.

TEST(Trajectory, MatchesHandComputedRecurrences) {
  // One analysis: ft=2, it=0.1, ct=1, ot=0.5; fm=4, im=0.5, cm=2, om=1;
  // steps=6, C={2,4}, O={4}. tAnalyze = 2 + 6*0.1 + 2*1 + 0.5 = 5.1.
  // Memory walk: mEnd_0=4; mStart: 4.5, 7.0 (cm), 7.5, 11.0 (cm+om, reset),
  // 4.5, 5.0 — peak 11 at step 4.
  ScheduleProblem p;
  p.steps = 6;
  p.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  p.threshold = 5.1;
  p.output_policy = scheduler::OutputPolicy::kOptimized;
  AnalysisParams a = make_analysis("a", 1.0, 1.0, 2);
  a.it = 0.1;
  a.fm = 4.0;
  a.im = 0.5;
  a.cm = 2.0;
  a.om = 1.0;
  p.analyses.push_back(a);
  const Schedule s(6, {AnalysisSchedule{"a", {2, 4}, {4}}});

  const scheduler::Trajectory t = scheduler::predicted_trajectory(p, s);
  ASSERT_EQ(t.steps, 6);
  EXPECT_DOUBLE_EQ(t.setup_seconds, 2.0);
  const std::vector<double> want_step = {0.1, 1.1, 0.1, 1.6, 0.1, 0.1};
  const std::vector<double> want_mem = {4.5, 7.0, 7.5, 11.0, 4.5, 5.0};
  double cumulative = 2.0;
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(t.analysis_seconds[k], want_step[k]) << "step " << k + 1;
    cumulative += want_step[k];
    EXPECT_DOUBLE_EQ(t.cumulative_seconds[k], cumulative) << "step " << k + 1;
    EXPECT_DOUBLE_EQ(t.memory_start[k], want_mem[k]) << "step " << k + 1;
  }
  EXPECT_DOUBLE_EQ(t.total_seconds, 5.1);
  EXPECT_DOUBLE_EQ(t.peak_memory, 11.0);
  EXPECT_EQ(t.peak_memory_step, 4);
}

TEST(Trajectory, TotalsAgreeWithValidatorOnRandomCases) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomCase c = random_case(seed);
    const scheduler::Trajectory t = scheduler::predicted_trajectory(c.problem, c.schedule);
    const scheduler::ValidationReport r = scheduler::validate_schedule(c.problem, c.schedule);
    // Time: the validator sums closed-form per-analysis totals, the
    // trajectory walks steps — identical up to rounding. Memory: the
    // validator walks the very same loop, so the peak is exact.
    EXPECT_NEAR(t.total_seconds, r.total_analysis_time,
                1e-9 * std::max(1.0, std::fabs(r.total_analysis_time)))
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(t.peak_memory, r.peak_memory) << "seed " << seed;
    EXPECT_EQ(t.peak_memory_step, r.peak_memory_step) << "seed " << seed;
  }
}

TEST(Trajectory, AgreesWithVirtualExecutorPerStep) {
  // The virtual executor walks the same per-step loop; with zero simulation
  // time its step_seconds series is exactly the analysis_seconds series.
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    const RandomCase c = random_case(seed);
    const scheduler::Trajectory t = scheduler::predicted_trajectory(c.problem, c.schedule);
    const runtime::VirtualRunReport v =
        runtime::virtual_execute(c.problem, c.schedule, runtime::VirtualExecConfig{});
    ASSERT_EQ(v.step_seconds.size(), t.analysis_seconds.size());
    for (std::size_t k = 0; k < t.analysis_seconds.size(); ++k)
      EXPECT_NEAR(t.analysis_seconds[k], v.step_seconds[k], 1e-9)
          << "seed " << seed << " step " << k + 1;
    EXPECT_NEAR(t.peak_memory, v.metrics.peak_memory_bytes, 1e-9) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Differential validator: replay vs prediction.

TEST(Replay, ZeroJitterReproducesPredictionExactly) {
  std::vector<ScheduleProblem> problems = staircase_problems();
  problems.push_back(two_analysis_problem());
  for (const ScheduleProblem& p : problems) {
    const Schedule s = scheduler::greedy_schedule(p);
    const replay::ReplayResult r = replay::replay_schedule(p, s);
    EXPECT_FALSE(r.divergence.diverged) << p.analyses[0].name;
    EXPECT_EQ(r.divergence.first_step, 0);
    EXPECT_TRUE(r.sound());
    EXPECT_GT(r.events, 0);
    // Identical arithmetic, so the trajectories are equal bit for bit.
    EXPECT_DOUBLE_EQ(r.replayed.setup_seconds, r.predicted.setup_seconds);
    EXPECT_DOUBLE_EQ(r.replayed.total_seconds, r.predicted.total_seconds);
    EXPECT_DOUBLE_EQ(r.replayed.peak_memory, r.predicted.peak_memory);
    EXPECT_EQ(r.replayed.peak_memory_step, r.predicted.peak_memory_step);
    ASSERT_EQ(r.replayed.cumulative_seconds.size(), r.predicted.cumulative_seconds.size());
    for (std::size_t k = 0; k < r.predicted.cumulative_seconds.size(); ++k) {
      EXPECT_DOUBLE_EQ(r.replayed.cumulative_seconds[k], r.predicted.cumulative_seconds[k]);
      EXPECT_DOUBLE_EQ(r.replayed.memory_start[k], r.predicted.memory_start[k]);
    }
    EXPECT_EQ(r.replayed_time_feasible, r.predicted_time_feasible);
    EXPECT_EQ(r.replayed_memory_feasible, r.predicted_memory_feasible);
  }
}

TEST(Replay, ZeroJitterFeasibilityMatchesValidator) {
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    RandomCase c = random_case(seed);
    // Pin both budgets to the prediction so feasibility is non-trivial:
    // even seeds land exactly on the budget (feasible within tolerance),
    // odd seeds 1% under it (infeasible on any non-empty schedule).
    const scheduler::Trajectory t = scheduler::predicted_trajectory(c.problem, c.schedule);
    const double squeeze = seed % 2 == 0 ? 1.0 : 0.99;
    c.problem.threshold = t.total_seconds * squeeze;
    c.problem.mth = seed % 2 == 0 ? t.peak_memory + 1.0 : t.peak_memory * squeeze;
    const scheduler::ValidationReport r =
        scheduler::validate_schedule(c.problem, c.schedule);
    const replay::ReplayResult rr = replay::replay_schedule(c.problem, c.schedule);
    EXPECT_EQ(rr.replay_feasible(), r.feasible) << "seed " << seed;
    EXPECT_TRUE(rr.sound()) << "seed " << seed;
  }
}

TEST(Replay, JitteredViolationsAreAlwaysFlagged) {
  // Budget pinned exactly at the predicted totals: with 5% jitter roughly
  // half the seeds must land over budget, and soundness demands every one
  // of those carries a flagged divergence.
  ScheduleProblem p = staircase_problem(casestudy::water_ions_problem(16384, 0.08), 500, 1.0);
  const Schedule s = scheduler::greedy_schedule(p);
  const scheduler::Trajectory t = scheduler::predicted_trajectory(p, s);
  p.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  p.threshold = t.total_seconds;
  p.mth = t.peak_memory;

  replay::ReplayOptions opt;
  opt.time_jitter = 0.05;
  opt.memory_jitter = 0.05;
  int time_violations = 0;
  int memory_violations = 0;
  int diverged = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    opt.seed = seed;
    const replay::ReplayResult r = replay::replay_schedule(p, s, opt);
    EXPECT_TRUE(r.sound()) << "seed " << seed;
    EXPECT_TRUE(r.predicted_time_feasible);
    EXPECT_TRUE(r.predicted_memory_feasible);
    time_violations += r.replayed_time_feasible ? 0 : 1;
    memory_violations += r.replayed_memory_feasible ? 0 : 1;
    diverged += r.divergence.diverged ? 1 : 0;
    if (r.divergence.diverged) {
      EXPECT_GE(r.divergence.first_step, 1);
      EXPECT_GT(r.divergence.max_time_deviation + r.divergence.max_memory_deviation, 0.0);
    }
  }
  // Statistically certain with 100 seeds at a razor-thin budget; a zero here
  // means the jitter is not being applied at all.
  EXPECT_GT(time_violations, 0);
  EXPECT_GT(memory_violations, 0);
  EXPECT_GT(diverged, 90);
}

TEST(Replay, DeterministicForFixedSeed) {
  const ScheduleProblem p = two_analysis_problem();
  const Schedule s = scheduler::greedy_schedule(p);
  replay::ReplayOptions opt;
  opt.seed = 42;
  opt.time_jitter = 0.1;
  opt.memory_jitter = 0.1;
  const replay::ReplayResult a = replay::replay_schedule(p, s, opt);
  const replay::ReplayResult b = replay::replay_schedule(p, s, opt);
  EXPECT_DOUBLE_EQ(a.replayed.total_seconds, b.replayed.total_seconds);
  EXPECT_DOUBLE_EQ(a.replayed.peak_memory, b.replayed.peak_memory);
  opt.seed = 43;
  const replay::ReplayResult c = replay::replay_schedule(p, s, opt);
  EXPECT_NE(a.replayed.total_seconds, c.replayed.total_seconds);
}

TEST(Replay, SeededJitterMatchesGoldenValues) {
  // Pins the jitter draw order: replayed totals, peaks and event counts of
  // greedy schedules at 5% time and memory jitter, recorded as hex floats.
  // Problems 0-2 are the staircases; their ft/it are mostly zero, and a zero
  // cost draws nothing, so problem 3 (every cost non-zero) pins the order
  // of all eight cost kinds. Any reordering of cost events or RNG draws in
  // the recurrence walk changes these bits.
  struct Golden {
    std::size_t problem;
    std::uint64_t seed;
    double total_seconds;
    double peak_memory;
    long events;
  };
  const Golden golden[] = {
      {0, 1, 0x1.0f4a3b266dbcep+2, 0x1.e6a6d5e460dd8p+23, 1623},
      {0, 2, 0x1.0df13e9e01f8ep+2, 0x1.e70fe8ac01451p+23, 1623},
      {0, 3, 0x1.0eda65d62b4e3p+2, 0x1.ee250475a28e9p+23, 1623},
      {0, 4, 0x1.0d2b365e3ef9fp+2, 0x1.e69f5317eaf4p+23, 1623},
      {0, 5, 0x1.0e9442e82d946p+2, 0x1.eb16f77eec941p+23, 1623},
      {0, 6, 0x1.0d586b4666111p+2, 0x1.eb981f90354a5p+23, 1623},
      {0, 7, 0x1.0f5e9913a0fa2p+2, 0x1.e1136932e12c6p+23, 1623},
      {0, 8, 0x1.101ca55fcc6f4p+2, 0x1.f30acc4d68f41p+23, 1623},
      {1, 1, 0x1.5669f5c417885p+6, 0x1.e4f1ca407fa54p+27, 1553},
      {1, 2, 0x1.5c56fa79c9f2ep+6, 0x1.ec55ddd5ab144p+27, 1553},
      {1, 3, 0x1.62a28df40aefap+6, 0x1.ed61f81705e4p+27, 1553},
      {1, 4, 0x1.56804dc288ed7p+6, 0x1.ec1eebb8ea507p+27, 1553},
      {1, 5, 0x1.5e901e3b004bfp+6, 0x1.f01e29db69332p+27, 1553},
      {1, 6, 0x1.578bdb1bc6d96p+6, 0x1.e7f90ce5f86bdp+27, 1553},
      {1, 7, 0x1.5560e3088a96cp+6, 0x1.f38771f0328f7p+27, 1553},
      {1, 8, 0x1.5b18fe04978eap+6, 0x1.f3fc8246b612dp+27, 1553},
      {2, 1, 0x1.0c06e52fbfb14p+5, 0x1.edbbfd866389dp+31, 1559},
      {2, 2, 0x1.08b5d77439f08p+5, 0x1.e4131a3e27acap+31, 1559},
      {2, 3, 0x1.0e902b66df149p+5, 0x1.f05e1ee20a01ep+31, 1559},
      {2, 4, 0x1.0b171bab29985p+5, 0x1.ec8d8549539fp+31, 1559},
      {2, 5, 0x1.089e38055f1bbp+5, 0x1.e59b95b2b59b4p+31, 1559},
      {2, 6, 0x1.0476b7b036c6cp+5, 0x1.f989fb05ea8cp+31, 1559},
      {2, 7, 0x1.09e95447e7beep+5, 0x1.e7c6cc56b179cp+31, 1559},
      {2, 8, 0x1.08e939a503e9cp+5, 0x1.f2acef106feffp+31, 1559},
      {3, 1, 0x1.902a14413d59ap+5, 0x1.e1f267ed75fc8p+8, 258},
      {3, 2, 0x1.91275043f8353p+5, 0x1.e1093185f84f2p+8, 258},
      {3, 3, 0x1.8fbf41150529cp+5, 0x1.e24097f5a1528p+8, 258},
      {3, 4, 0x1.8e9ace2641641p+5, 0x1.eaf56eac33b6ep+8, 258},
      {3, 5, 0x1.8d8c2872b156ap+5, 0x1.eca28c9384f5cp+8, 258},
      {3, 6, 0x1.8eafdacb8b56ep+5, 0x1.ef282ab45d9aap+8, 258},
      {3, 7, 0x1.907ed39101d49p+5, 0x1.e1a75c9027bc4p+8, 258},
      {3, 8, 0x1.8fc3780a8362fp+5, 0x1.e98e8592149d6p+8, 258}
  };
  std::vector<ScheduleProblem> problems = staircase_problems();
  problems.push_back(two_analysis_problem());
  std::vector<Schedule> schedules;
  for (const ScheduleProblem& p : problems) schedules.push_back(scheduler::greedy_schedule(p));
  replay::ReplayOptions opt;
  opt.time_jitter = 0.05;
  opt.memory_jitter = 0.05;
  for (const Golden& g : golden) {
    opt.seed = g.seed;
    const replay::ReplayResult r =
        replay::replay_schedule(problems[g.problem], schedules[g.problem], opt);
    SCOPED_TRACE(testing::Message() << "problem " << g.problem << " seed " << g.seed);
    EXPECT_EQ(r.replayed.total_seconds, g.total_seconds);
    EXPECT_EQ(r.replayed.peak_memory, g.peak_memory);
    EXPECT_EQ(r.events, g.events);
  }
}

// ---------------------------------------------------------------------------
// Duplicate steps: no walk can see them.

TEST(ScheduleInvariantDeathTest, DuplicateStepsNeverReachAWalk) {
  // A duplicate used to stall every cursor walk: with C={2,2,6} the
  // validator billed three ct, the walks one, silently dropping step 6.
  // Such a schedule can no longer be constructed...
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)Schedule(8, {AnalysisSchedule{"a", {2, 2, 6}, {}}}),
               "not strictly increasing");
  EXPECT_DEATH((void)Schedule(8, {AnalysisSchedule{"a", {2, 6}, {6, 6}}}),
               "not strictly increasing");

  // ...so the validator, trajectory, replay and virtual executor all bill
  // the well-formed C={2,6} the same two ct.
  ScheduleProblem p;
  p.steps = 8;
  p.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  p.threshold = 100.0;
  p.output_policy = scheduler::OutputPolicy::kNone;
  AnalysisParams a;
  a.name = "a";
  a.ct = 1.0;
  p.analyses.push_back(a);
  const Schedule s(8, {AnalysisSchedule{"a", {2, 6}, {}}});
  EXPECT_EQ(scheduler::validate_schedule(p, s).breakdown[0].compute, 2.0);
  EXPECT_EQ(scheduler::predicted_trajectory(p, s).total_seconds, 2.0);
  EXPECT_EQ(replay::replay_schedule(p, s).replayed.total_seconds, 2.0);
  const runtime::VirtualRunReport v =
      runtime::virtual_execute(p, s, runtime::VirtualExecConfig{});
  EXPECT_EQ(v.metrics.analyses[0].compute_seconds, 2.0);
  EXPECT_EQ(v.metrics.analyses[0].analysis_steps, 2);
}

// ---------------------------------------------------------------------------
// Time-expanded memory columns (one-sided big-M check).

TEST(Replay, TimeExpandedMemoryColumnsDominateRecurrence) {
  // Small horizon so the memory-column MILP solves to optimality quickly.
  ScheduleProblem p = two_analysis_problem();
  p.steps = 20;
  p.threshold = 12.0;
  const scheduler::TimeExpandedModel built = scheduler::build_time_expanded_milp(p);
  bool has_mem = false;
  for (const auto& ms : built.vars.mem_start) has_mem |= !ms.empty();
  ASSERT_TRUE(has_mem) << "finite mth must materialize mStart columns";

  const mip::MipResult res = mip::solve_mip(built.model);
  ASSERT_TRUE(res.optimal());

  const Schedule s = scheduler::decode_time_expanded(p, built, res.x);
  const scheduler::Trajectory pred = scheduler::predicted_trajectory(p, s);
  const scheduler::Trajectory cols = scheduler::trajectory_from_time_expanded(p, built, res.x);

  // Time comes from the recurrence walk either way.
  EXPECT_DOUBLE_EQ(cols.total_seconds, pred.total_seconds);
  // The big-M rows bound mStart from *below* only, so each column value may
  // carry slack above the literal recurrence but never dip under it.
  ASSERT_EQ(cols.memory_start.size(), pred.memory_start.size());
  for (std::size_t k = 0; k < cols.memory_start.size(); ++k)
    EXPECT_GE(cols.memory_start[k], pred.memory_start[k] - 1e-6) << "step " << k + 1;
  EXPECT_GE(cols.peak_memory, pred.peak_memory - 1e-6);
  // And the model's own budget row keeps the columns under mth.
  EXPECT_LE(cols.peak_memory, p.mth + 1e-6);
}

// ---------------------------------------------------------------------------
// Case-study differential (ISSUE 9: water/rhodo/flash, objectives 63/78/150).

TEST(ReplayCaseStudies, SolvedSchedulesReplayWithoutDivergence) {
  const std::vector<double> want_objective = {63.0, 78.0, 150.0};
  const std::vector<ScheduleProblem> problems = staircase_problems();
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const ScheduleProblem& p = problems[i];
    const scheduler::ScheduleSolution sol = scheduler::solve_schedule(p);
    ASSERT_TRUE(sol.solved);
    ASSERT_FALSE(sol.degraded);
    EXPECT_NEAR(sol.objective, want_objective[i], 1e-6);

    const replay::ReplayResult r = replay::replay_schedule(p, sol.schedule);
    EXPECT_FALSE(r.divergence.diverged);
    EXPECT_TRUE(r.sound());
    EXPECT_TRUE(r.replay_feasible());
    // The replayed trajectory ends at the validator's total (up to the
    // step-walk vs closed-form summation-order rounding).
    EXPECT_NEAR(r.replayed.total_seconds, sol.validation.total_analysis_time,
                1e-9 * std::max(1.0, sol.validation.total_analysis_time));

    // And the virtual executor — the runtime-layer implementation of the
    // same loop — agrees with the replayed per-step series.
    const runtime::VirtualRunReport v =
        runtime::virtual_execute(p, sol.schedule, runtime::VirtualExecConfig{});
    ASSERT_EQ(v.step_seconds.size(), r.replayed.analysis_seconds.size());
    for (std::size_t k = 0; k < v.step_seconds.size(); ++k)
      EXPECT_NEAR(v.step_seconds[k], r.replayed.analysis_seconds[k], 1e-9)
          << "case " << i << " step " << k + 1;
  }
}

TEST(ReplayCaseStudies, InsituRuntimeExecutesWhatReplaySimulates) {
  // Structural agreement with the real runtime on a mini-MD run: the replay
  // and InsituRuntime walk the same schedule, so activation/analysis/output
  // counts must line up even though the runtime measures wall-clock costs.
  sim::WaterIonsSpec spec;
  spec.molecules = 120;
  spec.hydronium_fraction = 0.05;
  spec.ion_fraction = 0.05;
  sim::LjSimulation md(sim::water_ions(spec), sim::MdParams{});
  md.minimize(30);

  analysis::AnalysisRegistry registry;
  analysis::RdfConfig rdf_config;
  rdf_config.pairs = {{sim::Species::kHydronium, sim::Species::kWaterO}};
  registry.add(std::make_unique<analysis::RdfAnalysis>("A1", md.system(), rdf_config));
  analysis::MsdConfig msd_config;
  msd_config.group = {sim::Species::kIon};
  registry.add(std::make_unique<analysis::MsdAnalysis>("A4", md.system(), msd_config));

  const Schedule schedule(30, {AnalysisSchedule{"A1", {10, 20, 30}, {10, 20, 30}},
                               AnalysisSchedule{"A4", {15, 30}, {30}}});

  ScheduleProblem p;
  p.steps = 30;
  p.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
  p.threshold = 1e9;
  p.output_policy = scheduler::OutputPolicy::kOptimized;
  p.analyses.push_back(make_analysis("A1", 1.0, 1.0, 10));
  p.analyses.push_back(make_analysis("A4", 0.5, 1.0, 15));

  const replay::ReplayResult r = replay::replay_schedule(p, schedule);
  EXPECT_TRUE(r.sound());
  EXPECT_FALSE(r.divergence.diverged);

  runtime::InsituRuntime rt(md, registry, schedule, runtime::RuntimeConfig{});
  const runtime::RunMetrics metrics = rt.run();
  EXPECT_EQ(metrics.steps, r.predicted.steps);
  ASSERT_EQ(metrics.analyses.size(), p.size());
  const std::vector<long> freq = schedule.frequencies();
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(metrics.analyses[i].analysis_steps, freq[i]);
    EXPECT_EQ(metrics.analyses[i].output_steps,
              static_cast<long>(schedule.analysis(i).output_steps.size()));
  }
  EXPECT_EQ(metrics.memory_violations, 0);
}

// ---------------------------------------------------------------------------
// Scenario sweep and corpus.

TEST(Scenario, SweepCrossesBasesWithMachines) {
  const std::vector<replay::ScenarioBase> bases = {
      {"water", casestudy::water_ions_problem(16384, 0.08)},
      {"rhodo", casestudy::rhodopsin_problem(100.0)},
  };
  const std::vector<replay::Scenario> sweep = replay::scenario_sweep(bases);
  const std::size_t machines = replay::default_machines().size();
  ASSERT_EQ(sweep.size(), bases.size() * machines);
  for (const replay::Scenario& sc : sweep) {
    EXPECT_NE(sc.name.find('@'), std::string::npos) << sc.name;
    EXPECT_EQ(sc.problem.size(), sc.name.rfind("water", 0) == 0 ? bases[0].problem.size()
                                                                : bases[1].problem.size());
    // Finite-mth bases stay finite (rescaled to the machine's memory).
    EXPECT_TRUE(std::isfinite(sc.problem.mth));
    EXPECT_GT(sc.problem.mth, 0.0);
    // Every swept scenario must replay cleanly under its greedy schedule.
    const Schedule s = scheduler::greedy_schedule(sc.problem);
    const replay::ReplayResult r = replay::replay_schedule(sc.problem, s);
    EXPECT_TRUE(r.sound()) << sc.name;
    EXPECT_FALSE(r.divergence.diverged) << sc.name;
  }
}

TEST(Scenario, CorpusRoundTrips) {
  const std::vector<replay::ScenarioBase> bases = {
      {"water", casestudy::water_ions_problem(16384, 0.08)},
      {"flash", casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08)},
  };
  const std::vector<replay::Scenario> sweep = replay::scenario_sweep(bases);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "insched_corpus_test").string();
  std::filesystem::remove_all(dir);
  const std::string index = replay::write_corpus(sweep, dir);
  EXPECT_TRUE(std::filesystem::exists(index));

  const std::vector<replay::Scenario> back = replay::read_corpus(dir);
  ASSERT_EQ(back.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(back[i].name, sweep[i].name);
    EXPECT_EQ(back[i].machine.name, sweep[i].machine.name);
    EXPECT_EQ(back[i].problem.steps, sweep[i].problem.steps);
    ASSERT_EQ(back[i].problem.size(), sweep[i].problem.size());
    EXPECT_NEAR(back[i].problem.threshold, sweep[i].problem.threshold,
                1e-9 * std::fabs(sweep[i].problem.threshold));
    // The round-tripped problem replays to the same trajectory.
    const Schedule s = scheduler::greedy_schedule(sweep[i].problem);
    const scheduler::Trajectory a = scheduler::predicted_trajectory(sweep[i].problem, s);
    const scheduler::Trajectory b = scheduler::predicted_trajectory(back[i].problem, s);
    EXPECT_NEAR(a.total_seconds, b.total_seconds,
                1e-9 * std::max(1.0, std::fabs(a.total_seconds)));
    EXPECT_NEAR(a.peak_memory, b.peak_memory, 1e-9 * std::max(1.0, a.peak_memory));
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// In-process fuzzer (the 1000-seed ASan pass runs via tools/run_fuzz.sh;
// this keeps a fast deterministic slice in tier 1).

TEST(Fuzz, QuickPipelineIsCleanOverFiftySeeds) {
  replay::FuzzOptions opt;
  opt.lint_and_greedy_only = true;
  const replay::FuzzSummary sum = replay::run_fuzz(1, 50, opt);
  EXPECT_EQ(sum.cases, 50);
  EXPECT_TRUE(sum.clean()) << (sum.failing.empty() ? "" : sum.failing[0].failure);
  EXPECT_GT(sum.replays, 0);
}

TEST(Fuzz, FullPipelineSampleIsClean) {
  replay::FuzzOptions opt;
  opt.fault_fraction = 0.5;  // exercise the fault-injection arm often
  const replay::FuzzSummary sum = replay::run_fuzz(1, 8, opt);
  EXPECT_EQ(sum.cases, 8);
  EXPECT_TRUE(sum.clean()) << (sum.failing.empty() ? "" : sum.failing[0].failure);
}

// Parallel vs sequential search: with no fault armed, every fourth seed with
// a proven optimum is re-solved by three workers, which must prove the same
// objective with a valid schedule.
TEST(Fuzz, ParallelSearchAgreesWithSequential) {
  replay::FuzzOptions opt;
  opt.fault_fraction = 0.0;
  const replay::FuzzSummary sum = replay::run_fuzz(1, 16, opt);
  EXPECT_EQ(sum.cases, 16);
  EXPECT_TRUE(sum.clean()) << (sum.failing.empty() ? "" : sum.failing[0].failure);
  EXPECT_GE(sum.parallel_checks, 1);
}

TEST(Fuzz, ProblemsAreDeterministicAndValid) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ScheduleProblem a = replay::fuzz_problem(seed);
    const ScheduleProblem b = replay::fuzz_problem(seed);
    EXPECT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.analyses[i].name, b.analyses[i].name);
      EXPECT_DOUBLE_EQ(a.analyses[i].ct, b.analyses[i].ct);
    }
    EXPECT_NO_THROW(a.validate());
  }
}

// ---------------------------------------------------------------------------
// ROADMAP 2b regression: the degenerate big-M shape under a wall-clock
// budget. The in-loop simplex deadline must surface inside long pivot runs,
// so the solve returns within 2x its budget — and a time limit must never
// be misreported as model infeasibility.

TEST(DegenerateBigM, TimeLimitedSolveReturnsWithinTwiceBudget) {
  const ScheduleProblem p = two_analysis_problem();
  scheduler::SolveOptions opt;
  opt.formulation = scheduler::Formulation::kTimeExpanded;
  opt.mip.time_limit_s = 1.0;

  const auto start = std::chrono::steady_clock::now();
  const scheduler::ScheduleSolution sol = scheduler::solve_schedule(p, opt);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  EXPECT_LT(elapsed, 2.0 * opt.mip.time_limit_s)
      << "in-loop deadline failed to surface (ROADMAP 2b)";
  // Either the solve finished inside the budget (clean) or it was cut off
  // (kTimeLimit + greedy fallback); an infeasibility claim would be a lie —
  // the instance has feasible schedules.
  EXPECT_TRUE(sol.solved);
  EXPECT_NE(sol.diagnostics.failure, scheduler::FailureClass::kInfeasibleModel);
  EXPECT_TRUE(sol.diagnostics.failure == scheduler::FailureClass::kNone ||
              sol.diagnostics.failure == scheduler::FailureClass::kTimeLimit)
      << scheduler::to_string(sol.diagnostics.failure);
  EXPECT_TRUE(sol.validation.feasible);
}

}  // namespace
