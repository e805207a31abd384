// Tests for the scheduling core: Table-1 parameters, schedules, the exact
// Eq 2-9 validator, placement, both MILP formulations (cross-validated
// against each other), greedy baselines and the solver facade.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/scheduler/aggregate_milp.hpp"
#include "insched/scheduler/greedy.hpp"
#include "insched/scheduler/params.hpp"
#include "insched/scheduler/placement.hpp"
#include "insched/scheduler/recurrence.hpp"
#include "insched/scheduler/recommend.hpp"
#include "insched/scheduler/schedule.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/scheduler/trajectory.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/support/random.hpp"

namespace insched::scheduler {
namespace {

AnalysisParams simple_analysis(std::string name, double ct, double ot, long itv,
                               double weight = 1.0) {
  AnalysisParams a;
  a.name = std::move(name);
  a.ct = ct;
  a.ot = ot;
  a.itv = itv;
  a.weight = weight;
  return a;
}

TEST(Params, TimeBudgetForms) {
  ScheduleProblem p;
  p.steps = 1000;
  p.sim_time_per_step = 0.5;
  p.threshold = 0.1;
  p.threshold_kind = ThresholdKind::kFractionOfSimTime;
  EXPECT_DOUBLE_EQ(p.time_budget(), 50.0);
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 42.0;
  EXPECT_DOUBLE_EQ(p.time_budget(), 42.0);
  p.threshold_kind = ThresholdKind::kPerStepSeconds;
  p.threshold = 0.01;
  EXPECT_DOUBLE_EQ(p.time_budget(), 10.0);
}

TEST(Params, OutputTimeDerivedFromBandwidth) {
  AnalysisParams a;
  a.om = 100.0;
  a.ot = -1.0;
  EXPECT_DOUBLE_EQ(a.output_time(50.0), 2.0);  // om / bw (Section 3.2)
  a.ot = 7.0;
  EXPECT_DOUBLE_EQ(a.output_time(50.0), 7.0);  // explicit ot wins
}

TEST(Params, MaxAnalysisStepsIsStepsOverItv) {
  ScheduleProblem p;
  p.steps = 1000;
  p.analyses.push_back(simple_analysis("a", 1.0, 0.0, 100));
  p.analyses.push_back(simple_analysis("b", 1.0, 0.0, 33));
  EXPECT_EQ(p.max_analysis_steps(0), 10);
  EXPECT_EQ(p.max_analysis_steps(1), 30);
}

TEST(Params, ValidateRejectsBadInput) {
  ScheduleProblem p;
  p.steps = 10;
  p.analyses.push_back(simple_analysis("a", 1.0, 0.0, 0));  // itv < 1
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.analyses[0].itv = 20;  // itv > steps
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.analyses[0].itv = 2;
  p.analyses[0].weight = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.analyses[0].weight = 1.0;
  p.validate();  // now fine
}

TEST(ScheduleType, CountsAndObjective) {
  AnalysisSchedule a{"a", {2, 4, 6}, {6}};
  AnalysisSchedule b{"b", {}, {}};
  const Schedule s(10, {a, b});
  EXPECT_EQ(s.active_count(), 1);
  EXPECT_EQ(s.total_analysis_steps(), 3);
  EXPECT_EQ(s.frequencies(), (std::vector<long>{3, 0}));
  EXPECT_DOUBLE_EQ(s.objective({2.0, 5.0}), 1.0 + 2.0 * 3.0);
  EXPECT_TRUE(s.analysis(0).is_analysis_step(4));
  EXPECT_FALSE(s.analysis(0).is_analysis_step(3));
  EXPECT_TRUE(s.analysis(0).is_output_step(6));
}

TEST(ScheduleType, RenderMarksAnalysisAndOutput) {
  const Schedule s(6, {AnalysisSchedule{"a", {2, 4}, {4}}});
  const std::string line = s.render();
  // Steps: S SA S SAO S S
  EXPECT_EQ(line, "S SA S SAO S S ");
}

TEST(Validator, TimeRecurrenceMatchesHandComputation) {
  // One analysis: ft=2, it=0.1, ct=1, ot=0.5; steps=6, C={2,4}, O={4}.
  // tAnalyze = 2 + 6*0.1 + 2*1 + 1*0.5 = 5.1.
  ScheduleProblem p;
  p.steps = 6;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 5.1;
  p.output_policy = OutputPolicy::kOptimized;
  AnalysisParams a = simple_analysis("a", 1.0, 0.5, 2);
  a.ft = 2.0;
  a.it = 0.1;
  p.analyses.push_back(a);

  const Schedule s(6, {AnalysisSchedule{"a", {2, 4}, {4}}});
  const ValidationReport report = validate_schedule(p, s);
  EXPECT_TRUE(report.feasible) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_NEAR(report.total_analysis_time, 5.1, 1e-12);
  ASSERT_EQ(report.breakdown.size(), 1u);
  EXPECT_NEAR(report.breakdown[0].setup, 2.0, 1e-12);
  EXPECT_NEAR(report.breakdown[0].per_step, 0.6, 1e-12);
  EXPECT_NEAR(report.breakdown[0].compute, 2.0, 1e-12);
  EXPECT_NEAR(report.breakdown[0].output, 0.5, 1e-12);
  EXPECT_NEAR(report.breakdown[0].visible(), 2.5, 1e-12);

  // Tighten the budget below 5.1: must be infeasible.
  p.threshold = 5.0;
  const ValidationReport tight = validate_schedule(p, s);
  EXPECT_FALSE(tight.feasible);
}

TEST(Validator, MemoryRecurrenceResetsAtOutput) {
  // fm=10, im=1, cm=5, om=3; steps=4, C={2,4}, O={2,4} (policy optimized).
  // mEnd0=10; j1: mStart 11, mEnd 11; j2 (A+O): mStart 11+1+5+3=20, mEnd=10;
  // j3: 11; j4 (A+O): 11+1+5+3=20 -> peak 20.
  ScheduleProblem p;
  p.steps = 4;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 100.0;
  p.output_policy = OutputPolicy::kOptimized;
  p.mth = 20.0;
  AnalysisParams a = simple_analysis("a", 0.1, 0.1, 2);
  a.fm = 10.0;
  a.im = 1.0;
  a.cm = 5.0;
  a.om = 3.0;
  p.analyses.push_back(a);

  const Schedule s(4, {AnalysisSchedule{"a", {2, 4}, {2, 4}}});
  const ValidationReport ok = validate_schedule(p, s);
  EXPECT_TRUE(ok.feasible) << (ok.violations.empty() ? "" : ok.violations[0]);
  EXPECT_NEAR(ok.peak_memory, 20.0, 1e-12);
  EXPECT_EQ(ok.peak_memory_step, 2);

  // Without the first output the memory keeps growing: j4 mStart =
  // 10+2*1+5 ... walk: j1 11, j2 (A) 17, j3 18, j4 (A+O) 27 -> violates 20.
  const Schedule bad(4, {AnalysisSchedule{"a", {2, 4}, {4}}});
  const ValidationReport violated = validate_schedule(p, bad);
  EXPECT_FALSE(violated.feasible);
  EXPECT_NEAR(violated.peak_memory, 27.0, 1e-12);
}

TEST(Validator, IntervalViolationsDetected) {
  ScheduleProblem p;
  p.steps = 10;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 100.0;
  p.output_policy = OutputPolicy::kNone;
  p.analyses.push_back(simple_analysis("a", 0.1, 0.0, 3));

  const Schedule ok(10, {AnalysisSchedule{"a", {3, 6, 9}, {}}});
  EXPECT_TRUE(validate_schedule(p, ok).feasible);

  const Schedule close(10, {AnalysisSchedule{"a", {3, 5}, {}}});  // gap 2 < 3
  EXPECT_FALSE(validate_schedule(p, close).feasible);

  const Schedule many(10, {AnalysisSchedule{"a", {1, 4, 7, 10}, {}}});
  // 4 steps allowed? Steps/itv = 3 -> violates Eq 9 even though gaps are 3.
  EXPECT_FALSE(validate_schedule(p, many).feasible);
}

TEST(Validator, InactiveAnalysisCostsNothing) {
  ScheduleProblem p;
  p.steps = 5;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 0.0;  // zero budget
  AnalysisParams a = simple_analysis("a", 10.0, 1.0, 1);
  a.ft = 5.0;
  a.it = 1.0;
  a.fm = 100.0;
  p.analyses.push_back(a);
  p.mth = 1.0;

  const Schedule empty(5, {AnalysisSchedule{"a", {}, {}}});
  const ValidationReport report = validate_schedule(p, empty);
  EXPECT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.total_analysis_time, 0.0);
  EXPECT_DOUBLE_EQ(report.peak_memory, 0.0);
}

// ---------------------------------------------------------------------------
// The Eq 2-8 recurrence walker, hand-computed.

/// Two analyses over 6 steps with dyadic costs, so every sum is exact:
///   a: ft=2 it=0.125 ct=1 ot=0.5  fm=4 im=0.5 cm=2 om=1,  C={2,4}
///   b: ft=1 it=0.25  ct=3 ot=0.25 fm=8 im=1   cm=4 om=2,  C={3,6}
ScheduleProblem two_analysis_walk(OutputPolicy policy) {
  ScheduleProblem p;
  p.steps = 6;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 100.0;
  p.output_policy = policy;
  AnalysisParams a = simple_analysis("a", 1.0, 0.5, 2);
  a.ft = 2.0;
  a.it = 0.125;
  a.fm = 4.0;
  a.im = 0.5;
  a.cm = 2.0;
  a.om = 1.0;
  AnalysisParams b = simple_analysis("b", 3.0, 0.25, 3);
  b.ft = 1.0;
  b.it = 0.25;
  b.fm = 8.0;
  b.im = 1.0;
  b.cm = 4.0;
  b.om = 2.0;
  p.analyses = {a, b};
  return p;
}

TEST(RecurrenceWalker, TwoAnalysesOptimizedOutputs) {
  // O_a={4}, O_b={6}. Per-step seconds: it_a+it_b = 0.375, plus ct_a at
  // 2 and 4, ot_a at 4, ct_b at 3 and 6, ot_b at 6; setup 3.
  // Memory a: 4.5, 7, 7.5, 11 (reset to 4), 4.5, 5;
  //        b: 9, 10, 15, 16, 17, 24 (reset to 8).
  const ScheduleProblem p = two_analysis_walk(OutputPolicy::kOptimized);
  const Schedule s(6, {AnalysisSchedule{"a", {2, 4}, {4}}, AnalysisSchedule{"b", {3, 6}, {6}}});
  recurrence::Walker walker(s);
  const Trajectory t = record_trajectory(walker, 6, recurrence::NominalCosts{p});
  EXPECT_EQ(t.setup_seconds, 3.0);
  EXPECT_EQ(t.analysis_seconds, (std::vector<double>{0.375, 1.375, 3.375, 1.875, 0.375, 3.625}));
  EXPECT_EQ(t.cumulative_seconds, (std::vector<double>{3.375, 4.75, 8.125, 10.0, 10.375, 14.0}));
  EXPECT_EQ(t.memory_start, (std::vector<double>{13.5, 17.0, 22.5, 27.0, 21.5, 29.0}));
  EXPECT_EQ(t.peak_memory, 29.0);
  EXPECT_EQ(t.peak_memory_step, 6);
  EXPECT_EQ(walker.memory(0), 5.0);
  EXPECT_EQ(walker.memory(1), 8.0);  // the step-6 output reset
  EXPECT_EQ(walker.events(), 2 + 12 + 4 + 2);  // activations, it, ct, ot
  EXPECT_TRUE(walker.within_budget());

  // The closed-form validator agrees on the total, the walk on the peak.
  const ValidationReport report = validate_schedule(p, s);
  EXPECT_TRUE(report.feasible) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.total_analysis_time, 14.0);
  EXPECT_EQ(report.peak_memory, 29.0);
  EXPECT_EQ(report.peak_memory_step, 6);
}

TEST(RecurrenceWalker, TwoAnalysesOutputEveryAnalysis) {
  // O = C: every analysis step also pays ot/om and resets.
  // Memory a: 4.5, 8 (reset), 4.5, 8 (reset), 4.5, 5;
  //        b: 9, 10, 17 (reset), 9, 10, 17 (reset).
  const ScheduleProblem p = two_analysis_walk(OutputPolicy::kEveryAnalysis);
  const Schedule s(6, {AnalysisSchedule{"a", {2, 4}, {2, 4}},
                       AnalysisSchedule{"b", {3, 6}, {3, 6}}});
  recurrence::Walker walker(s, 21.5);
  const Trajectory t = record_trajectory(walker, 6, recurrence::NominalCosts{p});
  EXPECT_EQ(t.analysis_seconds, (std::vector<double>{0.375, 1.875, 3.625, 1.875, 0.375, 3.625}));
  EXPECT_EQ(t.cumulative_seconds, (std::vector<double>{3.375, 5.25, 8.875, 10.75, 11.125, 14.75}));
  EXPECT_EQ(t.memory_start, (std::vector<double>{13.5, 18.0, 21.5, 17.0, 14.5, 22.0}));
  EXPECT_EQ(t.peak_memory, 22.0);
  EXPECT_EQ(t.peak_memory_step, 6);
  EXPECT_EQ(walker.events(), 2 + 12 + 4 + 4);
  // mth = 21.5: step 3 sits exactly on it, step 6 is the one overrun.
  EXPECT_EQ(walker.violations(), 1);

  const ValidationReport report = validate_schedule(p, s);
  EXPECT_EQ(report.total_analysis_time, 14.75);
  EXPECT_EQ(report.peak_memory, 22.0);
}

TEST(RecurrenceWalker, CostHookSeesTheFixedEventOrder) {
  // A third, inactive analysis is never asked for a cost.
  ScheduleProblem p = two_analysis_walk(OutputPolicy::kOptimized);
  p.analyses.push_back(simple_analysis("idle", 1.0, 1.0, 1));
  const Schedule s(6, {AnalysisSchedule{"a", {2, 4}, {4}}, AnalysisSchedule{"b", {3, 6}, {6}},
                       AnalysisSchedule{"idle", {}, {}}});
  static const char* const kTags[] = {"fm", "im", "cm", "om", "ft", "it", "ct", "ot"};
  std::string events;
  const auto tagging = [&](recurrence::Cost kind, std::size_t i) {
    events += kTags[static_cast<int>(kind)] + std::to_string(i) + ' ';
    return recurrence::nominal_cost(p, kind, i);
  };
  recurrence::Walker walker(s);
  walker.start(tagging);
  EXPECT_EQ(events, "fm0 im0 cm0 om0 ft0 fm1 im1 cm1 om1 ft1 ");
  const std::vector<std::string> want = {
      "it0 it1 ", "it0 ct0 it1 ", "it0 it1 ct1 ", "it0 ct0 ot0 it1 ", "it0 it1 ",
      "it0 it1 ct1 ot1 "};
  for (const std::string& step : want) {
    events.clear();
    (void)walker.advance(tagging);
    EXPECT_EQ(events, step) << "step " << walker.step();
  }
}

TEST(RecurrenceWalker, EventLevelChargesTimeAndMemory) {
  // Analyses 0 and 1 active, 2 never activated: it contributes nothing.
  recurrence::Walker walker(3, 30.0);
  walker.activate(0, 4.0, 2.0);
  walker.activate(1, 8.0, 1.0);
  EXPECT_EQ(walker.setup_seconds(), 3.0);
  EXPECT_EQ(walker.cumulative_seconds(), 3.0);
  EXPECT_EQ(walker.events(), 2);

  walker.charge(0, 0.5, 0.125);
  walker.charge(0, 2.0, 1.0);
  walker.charge(0, 1.0, 0.5);
  walker.charge(1, 1.0, 0.25);
  EXPECT_EQ(walker.commit(1), 7.5 + 9.0);
  EXPECT_EQ(walker.step(), 1);
  EXPECT_EQ(walker.step_seconds(), 1.875);
  EXPECT_EQ(walker.cumulative_seconds(), 4.875);
  walker.reset(0);  // Eq 6: back to fm
  EXPECT_EQ(walker.memory(0), 4.0);
  EXPECT_EQ(walker.memory(1), 9.0);
  EXPECT_EQ(walker.memory(2), 0.0);

  walker.charge(1, 22.0);  // 4 + 31 = 35 > mth 30
  EXPECT_EQ(walker.commit(2), 35.0);
  EXPECT_EQ(walker.step_seconds(), 0.0);
  EXPECT_EQ(walker.peak(), 35.0);
  EXPECT_EQ(walker.peak_step(), 2);
  EXPECT_EQ(walker.violations(), 1);
  EXPECT_FALSE(walker.within_budget());
  EXPECT_EQ(walker.events(), 7);
}

TEST(ScheduleType, DefectNamesEachBrokenInvariant) {
  EXPECT_EQ(schedule_defect(8, {AnalysisSchedule{"a", {2, 6}, {6}}}), "");
  EXPECT_NE(schedule_defect(-1, {}), "");
  EXPECT_NE(schedule_defect(8, {AnalysisSchedule{"a", {2, 2, 6}, {}}})
                .find("analysis steps are not strictly increasing"),
            std::string::npos);
  EXPECT_NE(schedule_defect(8, {AnalysisSchedule{"a", {6, 2}, {}}})
                .find("analysis steps are not strictly increasing"),
            std::string::npos);
  EXPECT_NE(schedule_defect(8, {AnalysisSchedule{"a", {2, 6}, {6, 6}}})
                .find("output steps are not strictly increasing"),
            std::string::npos);
  EXPECT_NE(schedule_defect(8, {AnalysisSchedule{"a", {0, 6}, {}}}).find("leave [1, 8]"),
            std::string::npos);
  EXPECT_NE(schedule_defect(8, {AnalysisSchedule{"a", {2, 9}, {}}}).find("leave [1, 8]"),
            std::string::npos);
  EXPECT_NE(schedule_defect(8, {AnalysisSchedule{"a", {2, 6}, {4}}})
                .find("output step is not an analysis step"),
            std::string::npos);
}

TEST(Placement, EvenSpacingRespectsInterval) {
  ScheduleProblem p;
  p.steps = 1000;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 1e9;
  p.analyses.push_back(simple_analysis("a", 1.0, 0.0, 100));
  const Schedule s = place(p, PlacementRequest{{10}, {10}});
  ASSERT_EQ(s.analysis(0).analysis_count(), 10);
  // Every 100 steps: 100, 200, ..., 1000 (paper's "once every 100 steps").
  for (long k = 0; k < 10; ++k)
    EXPECT_EQ(s.analysis(0).analysis_steps[static_cast<std::size_t>(k)], (k + 1) * 100);
  EXPECT_TRUE(validate_schedule(p, s).feasible);
}

TEST(Placement, OutputsSubsetIncludesLastStep) {
  ScheduleProblem p;
  p.steps = 100;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 1e9;
  p.output_policy = OutputPolicy::kOptimized;
  p.analyses.push_back(simple_analysis("a", 1.0, 0.1, 10));
  const Schedule s = place(p, PlacementRequest{{10}, {3}});
  EXPECT_EQ(s.analysis(0).output_count(), 3);
  EXPECT_EQ(s.analysis(0).output_steps.back(), s.analysis(0).analysis_steps.back());
  for (long o : s.analysis(0).output_steps) EXPECT_TRUE(s.analysis(0).is_analysis_step(o));
}

TEST(Placement, StaggersMultipleAnalyses) {
  ScheduleProblem p;
  p.steps = 103;  // slack of 3 after 10 x 10 placement
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 1e9;
  for (int i = 0; i < 3; ++i)
    p.analyses.push_back(simple_analysis("a" + std::to_string(i), 1.0, 0.0, 10));
  const Schedule s = place(p, PlacementRequest{{10, 10, 10}, {10, 10, 10}});
  // Offsets 0, 1, 2: first steps differ.
  EXPECT_NE(s.analysis(0).analysis_steps[0], s.analysis(1).analysis_steps[0]);
  EXPECT_NE(s.analysis(1).analysis_steps[0], s.analysis(2).analysis_steps[0]);
  EXPECT_TRUE(validate_schedule(p, s).feasible);
}

TEST(AggregateMilp, PicksCheapAnalysesFirst) {
  // Budget 10: cheap (ct 1) can run 5x (itv 2, steps 10 -> max 5); expensive
  // (ct 100) never fits. Expect c = (5, 0).
  ScheduleProblem p;
  p.steps = 10;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 10.0;
  p.analyses.push_back(simple_analysis("cheap", 1.0, 0.0, 2));
  p.analyses.push_back(simple_analysis("expensive", 100.0, 0.0, 2));
  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  EXPECT_TRUE(sol.proven_optimal);
  EXPECT_EQ(sol.frequencies, (std::vector<long>{5, 0}));
  EXPECT_TRUE(sol.validation.feasible);
}

TEST(AggregateMilp, WeightsChangePriorities) {
  // Two analyses with equal cost; budget for 5 steps total. Higher weight
  // gets the max (itv caps each at 3 for steps=9, itv=3).
  ScheduleProblem p;
  p.steps = 9;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 5.0;
  p.analyses.push_back(simple_analysis("low", 1.0, 0.0, 3, 1.0));
  p.analyses.push_back(simple_analysis("high", 1.0, 0.0, 3, 10.0));
  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  EXPECT_EQ(sol.frequencies[1], 3);  // maxed
  EXPECT_EQ(sol.frequencies[0], 2);  // leftover budget
}

TEST(AggregateMilp, MemoryForcesOutputs) {
  // im accumulates 1 MB/step over 100 steps; mth only allows ~26 steps of
  // accumulation, so the solver must schedule >= 4 outputs (policy
  // optimized) even though each costs time.
  ScheduleProblem p;
  p.steps = 100;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 50.0;
  p.output_policy = OutputPolicy::kOptimized;
  p.mth = 30.0;
  AnalysisParams a = simple_analysis("acc", 1.0, 2.0, 10);
  a.im = 1.0;
  a.fm = 1.0;
  a.cm = 0.0;
  a.om = 0.0;
  a.ot = 2.0;
  p.analyses.push_back(a);
  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  EXPECT_GT(sol.frequencies[0], 0);
  EXPECT_GE(sol.output_counts[0], 4);  // ceil(100/k) + 1 <= 30 -> k >= 4
  EXPECT_TRUE(sol.validation.feasible);
  EXPECT_LE(sol.validation.peak_memory, 30.0 + 1e-9);
}

TEST(AggregateMilp, InfeasibleMemoryMeansNoAnalyses) {
  ScheduleProblem p;
  p.steps = 10;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 100.0;
  p.mth = 5.0;
  AnalysisParams a = simple_analysis("big", 1.0, 0.0, 1);
  a.fm = 50.0;  // can never fit
  p.analyses.push_back(a);
  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  EXPECT_EQ(sol.frequencies[0], 0);  // scheduled out, not infeasible
}

TEST(TimeExpanded, MatchesHandOptimumTinyInstance) {
  // steps=4, itv=2 -> max 2 analyses; budget 2.5 with ct 1 -> c = 2.
  ScheduleProblem p;
  p.steps = 4;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 2.5;
  p.analyses.push_back(simple_analysis("a", 1.0, 0.0, 2));
  SolveOptions opt;
  opt.formulation = Formulation::kTimeExpanded;
  const ScheduleSolution sol = solve_schedule(p, opt);
  ASSERT_TRUE(sol.solved);
  EXPECT_EQ(sol.frequencies, (std::vector<long>{2}));
  EXPECT_TRUE(sol.validation.feasible);
}

TEST(TimeExpanded, MemoryBigMRecurrenceWorks) {
  // Same setup as AggregateMilp.MemoryForcesOutputs but tiny: steps=10,
  // im=1, fm=0, mth=4 -> at most 4 steps between resets (mStart <= 4).
  ScheduleProblem p;
  p.steps = 10;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 20.0;
  p.output_policy = OutputPolicy::kOptimized;
  p.mth = 4.0;
  AnalysisParams a = simple_analysis("acc", 0.5, 1.0, 2);
  a.im = 1.0;
  a.ot = 1.0;
  p.analyses.push_back(a);
  SolveOptions opt;
  opt.formulation = Formulation::kTimeExpanded;
  const ScheduleSolution sol = solve_schedule(p, opt);
  ASSERT_TRUE(sol.solved);
  EXPECT_GT(sol.frequencies[0], 0);
  EXPECT_GE(sol.output_counts[0], 2);
  EXPECT_TRUE(sol.validation.feasible);
  EXPECT_LE(sol.validation.peak_memory, 4.0 + 1e-9);
}

// Property: on random small instances the aggregate optimum equals the
// time-expanded optimum when memory is unconstrained, and never exceeds it
// when memory binds (the aggregate bound is conservative). Both schedules
// must pass exact validation.
class CrossValidate : public ::testing::TestWithParam<int> {};

TEST_P(CrossValidate, AggregateVsTimeExpanded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99u);
  ScheduleProblem p;
  p.steps = rng.uniform_int(4, 10);
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.output_policy = OutputPolicy::kEveryAnalysis;
  const int n = static_cast<int>(rng.uniform_int(1, 2));
  double cost_scale = 0.0;
  for (int i = 0; i < n; ++i) {
    AnalysisParams a;
    a.name = "a" + std::to_string(i);
    a.ct = rng.uniform(0.5, 3.0);
    a.ot = rng.uniform(0.0, 1.0);
    a.ft = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
    a.it = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.1) : 0.0;
    a.itv = rng.uniform_int(1, 3);
    a.weight = rng.uniform(0.5, 2.0);
    cost_scale += a.ct + a.ot;
    p.analyses.push_back(a);
  }
  p.threshold = rng.uniform(0.5, 4.0) * cost_scale;

  const bool with_memory = rng.bernoulli(0.4);
  if (with_memory) {
    for (AnalysisParams& a : p.analyses) {
      a.fm = rng.uniform(0.0, 2.0);
      a.im = rng.uniform(0.0, 1.0);
      a.cm = rng.uniform(0.0, 1.0);
      a.om = rng.uniform(0.0, 1.0);
    }
    p.mth = rng.uniform(4.0, 20.0);
  }

  SolveOptions agg;
  agg.formulation = Formulation::kAggregate;
  SolveOptions te;
  te.formulation = Formulation::kTimeExpanded;

  const ScheduleSolution sa = solve_schedule(p, agg);
  const ScheduleSolution st = solve_schedule(p, te);
  ASSERT_TRUE(sa.solved);
  ASSERT_TRUE(st.solved);
  ASSERT_TRUE(sa.proven_optimal);
  ASSERT_TRUE(st.proven_optimal);
  EXPECT_TRUE(sa.validation.feasible);
  EXPECT_TRUE(st.validation.feasible);

  if (with_memory) {
    EXPECT_LE(sa.objective, st.objective + 1e-6);
  } else {
    EXPECT_NEAR(sa.objective, st.objective, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossValidate, ::testing::Range(0, 30));


// Property: under the optimized output policy with unconstrained memory the
// aggregate model can be more conservative (it requires one output per
// active analysis; the time-expanded program allows zero), so agg <= te;
// both must validate.
class CrossValidateOptimized : public ::testing::TestWithParam<int> {};

TEST_P(CrossValidateOptimized, AggregateNeverExceedsTimeExpanded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 333667u + 11u);
  ScheduleProblem p;
  p.steps = rng.uniform_int(4, 9);
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.output_policy = OutputPolicy::kOptimized;
  const int n = static_cast<int>(rng.uniform_int(1, 2));
  double scale = 0.0;
  for (int i = 0; i < n; ++i) {
    AnalysisParams a;
    a.name = "o" + std::to_string(i);
    a.ct = rng.uniform(0.5, 2.0);
    a.ot = rng.uniform(0.1, 1.5);
    a.itv = rng.uniform_int(1, 3);
    scale += a.ct + a.ot;
    p.analyses.push_back(a);
  }
  p.threshold = rng.uniform(0.8, 3.0) * scale;

  SolveOptions agg;
  agg.formulation = Formulation::kAggregate;
  SolveOptions te;
  te.formulation = Formulation::kTimeExpanded;
  const ScheduleSolution sa = solve_schedule(p, agg);
  const ScheduleSolution st = solve_schedule(p, te);
  ASSERT_TRUE(sa.solved);
  ASSERT_TRUE(st.solved);
  EXPECT_TRUE(sa.validation.feasible);
  EXPECT_TRUE(st.validation.feasible);
  EXPECT_LE(sa.objective, st.objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossValidateOptimized, ::testing::Range(0, 20));

TEST(Greedy, FixedFrequencyHonorsIntervalFloor) {
  ScheduleProblem p;
  p.steps = 100;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 1e9;
  p.analyses.push_back(simple_analysis("a", 1.0, 0.0, 25));
  p.analyses.push_back(simple_analysis("b", 1.0, 0.0, 5));
  const Schedule s = fixed_frequency(p, 10);
  EXPECT_EQ(s.analysis(0).analysis_count(), 4);   // clamped to itv 25
  EXPECT_EQ(s.analysis(1).analysis_count(), 10);  // every 10
}

TEST(Greedy, NeverBeatsOptimalButIsFeasible) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    ScheduleProblem p;
    p.steps = 100;
    p.threshold_kind = ThresholdKind::kTotalSeconds;
    p.threshold = rng.uniform(5.0, 50.0);
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n; ++i) {
      AnalysisParams a = simple_analysis("a" + std::to_string(i), rng.uniform(0.5, 5.0),
                                         rng.uniform(0.0, 2.0),
                                         rng.uniform_int(5, 25), rng.uniform(0.5, 3.0));
      p.analyses.push_back(a);
    }
    const Schedule g = greedy_schedule(p);
    const ValidationReport report = validate_schedule(p, g);
    EXPECT_TRUE(report.feasible);
    const ScheduleSolution opt = solve_schedule(p);
    ASSERT_TRUE(opt.solved);
    std::vector<double> w;
    for (const auto& a : p.analyses) w.push_back(a.weight);
    EXPECT_LE(g.objective(w), opt.objective + 1e-9);
  }
}

TEST(SolverFacade, RhodopsinTable6Totals) {
  // R1/R2/R3 per-step (analysis+output) times from the paper: 0.003, 17.193,
  // 17.194 s; itv=100, Steps=1000. Total recommended analyses per budget:
  // 200 s -> 21, 100 s -> 15, 60 s -> 13, 20 s -> 11, 10 s -> 10.
  ScheduleProblem p;
  p.steps = 1000;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.analyses.push_back(simple_analysis("R1", 0.003, 0.0, 100));
  p.analyses.push_back(simple_analysis("R2", 17.193, 0.0, 100));
  p.analyses.push_back(simple_analysis("R3", 17.194, 0.0, 100));

  const std::vector<std::pair<double, long>> expected{
      {200.0, 21}, {100.0, 15}, {60.0, 13}, {20.0, 11}, {10.0, 10}};
  for (const auto& [budget, total] : expected) {
    p.threshold = budget;
    const ScheduleSolution sol = solve_schedule(p);
    ASSERT_TRUE(sol.solved);
    EXPECT_EQ(std::accumulate(sol.frequencies.begin(), sol.frequencies.end(), 0L), total)
        << "budget " << budget;
    EXPECT_TRUE(sol.validation.feasible);
  }
}

// Lexicographic tiers fold their MipCounters together with operator+=, so
// the summed record keeps every field, the LU ones included.
TEST(SolverCounters, LexicographicTiersKeepEveryFactorCounter) {
  SolveOptions options;
  options.weight_mode = WeightMode::kLexicographic;
  options.mip.threads = 1;
  const ScheduleSolution sol =
      solve_schedule(casestudy::flash_problem({2.0, 1.0, 2.0}), options);
  ASSERT_TRUE(sol.solved);
  const mip::MipCounters& c = sol.mip_counters;
  EXPECT_GT(c.lp_refactorizations, 0);
  EXPECT_EQ(c.lp_staircase_orderings + c.lp_staircase_fallbacks, c.lp_refactorizations);
  EXPECT_GT(c.lp_lu_input_nnz, 0);
  EXPECT_GT(c.lp_lu_factor_nnz, 0);
}

// A later tier that stops on its node limit without an incumbent fails the
// whole lexicographic solve; the report must still carry the work of the
// tiers that ran before it.
TEST(SolverCounters, FailedLexicographicTierReportsEveryTiersWork) {
  const ScheduleProblem problem = casestudy::flash_problem({2.0, 1.0, 2.0});
  SolveOptions options;
  options.weight_mode = WeightMode::kLexicographic;
  options.fallback_to_greedy = false;
  options.mip.threads = 1;
  options.mip.max_nodes = 1;
  options.mip.use_rounding_heuristic = false;  // no incumbent without branching
  options.mip.use_presolve = false;
  options.mip.use_probing = false;

  // The first tier exactly as solve_lexicographic builds it: the weight-2
  // analyses at unit weight, the weight-1 analysis pinned to zero.
  ScheduleProblem first_tier = problem;
  for (AnalysisParams& a : first_tier.analyses) a.weight = 1.0;
  std::vector<std::optional<long>> pinned(problem.size());
  pinned[1] = 0;
  const mip::MipResult first =
      mip::solve_mip(build_aggregate_milp(first_tier, pinned).model, options.mip);
  ASSERT_TRUE(first.optimal()) << "the first tier must succeed for this test";

  const ScheduleSolution sol = solve_schedule(problem, options);
  ASSERT_FALSE(sol.solved);
  EXPECT_EQ(sol.termination, mip::MipTermination::kNodeLimit);
  // The failing tier processed its own root before the limit stopped it.
  EXPECT_GE(sol.nodes, first.nodes + 1);
  EXPECT_GT(sol.lp_iterations, first.lp_iterations);
  EXPECT_GT(sol.mip_counters.lp_refactorizations, first.counters.lp_refactorizations);
}

TEST(Recommend, ThresholdSweepIsMonotone) {
  ScheduleProblem p;
  p.steps = 1000;
  p.sim_time_per_step = 0.6;
  p.analyses.push_back(simple_analysis("a", 0.07, 0.0, 100));
  p.analyses.push_back(simple_analysis("b", 25.0, 0.0, 100));
  const auto rows = threshold_sweep(p, {0.20, 0.10, 0.05, 0.01});
  ASSERT_EQ(rows.size(), 4u);
  long prev_total = std::numeric_limits<long>::max();
  for (const SweepRow& row : rows) {
    const long total = std::accumulate(row.frequencies.begin(), row.frequencies.end(), 0L);
    EXPECT_LE(total, prev_total);
    prev_total = total;
    EXPECT_LE(row.analyses_time, row.budget_seconds + 1e-9);
  }
}

TEST(Recommend, OutputTradeoffGrowsAnalyses) {
  // Table 7 logic: halving simulation outputs frees time for more analyses.
  ScheduleProblem p;
  p.steps = 1000;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.analyses.push_back(simple_analysis("R1", 0.003, 0.0, 100));
  p.analyses.push_back(simple_analysis("R2", 17.193, 0.0, 100));
  p.analyses.push_back(simple_analysis("R3", 17.194, 0.0, 100));
  const double bytes_per_output = 91.0e9;
  const double bw = bytes_per_output * 10.0 / 200.6;  // 10 outputs cost 200.6 s
  const auto rows = output_tradeoff(p, bytes_per_output, bw, 10, 50.0, {10, 5, 2});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_LT(rows[0].total_analyses, rows[1].total_analyses);
  EXPECT_LT(rows[1].total_analyses, rows[2].total_analyses);
}

TEST(Recommend, SummaryMentionsEveryAnalysis) {
  ScheduleProblem p;
  p.steps = 100;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 10.0;
  p.analyses.push_back(simple_analysis("rdf", 1.0, 0.0, 10));
  p.analyses.push_back(simple_analysis("msd", 100.0, 0.0, 10));
  const Recommendation rec = recommend(p);
  ASSERT_TRUE(rec.solution.solved);
  EXPECT_NE(rec.summary.find("rdf"), std::string::npos);
  EXPECT_NE(rec.summary.find("msd"), std::string::npos);
  EXPECT_NE(rec.summary.find("not scheduled"), std::string::npos);
}



// Property: the output-count expansion dominates the conservative memory
// bound — it never schedules less (both are sound upper bounds on memory,
// the expansion is tighter).
class ExpansionDominates : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionDominates, ConservativeBoundNeverBeatsExpansion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 52361u + 13u);
  ScheduleProblem p;
  p.steps = rng.uniform_int(60, 300);
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.output_policy = OutputPolicy::kOptimized;
  p.mth = rng.uniform(400.0, 3000.0);
  double scale = 0.0;
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n; ++i) {
    AnalysisParams a;
    a.name = "e" + std::to_string(i);
    a.ct = rng.uniform(0.5, 2.0);
    a.ot = rng.uniform(0.2, 1.0);
    a.im = rng.uniform(0.5, 8.0);
    a.cm = rng.uniform(0.0, 40.0);
    a.om = rng.uniform(0.0, 80.0);
    a.itv = rng.uniform_int(5, 25);
    scale += a.ct + a.ot;
    p.analyses.push_back(a);
  }
  p.threshold = rng.uniform(3.0, 10.0) * scale;

  const AggregateModel with = build_aggregate_milp(p);
  AggregateBuildOptions off;
  off.allow_expansion = false;
  const AggregateModel without = build_aggregate_milp(p, {}, off);
  const mip::MipResult a = mip::solve_mip(with.model);
  const mip::MipResult b = mip::solve_mip(without.model);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_GE(a.objective, b.objective - 1e-6);
  // Both decode into schedules the exact validator accepts.
  const AggregateCounts ca = decode_aggregate(with, a.x);
  const Schedule sa = place(p, PlacementRequest{ca.analysis_counts, ca.output_counts});
  EXPECT_TRUE(validate_schedule(p, sa).feasible);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExpansionDominates, ::testing::Range(0, 20));

TEST(Recommend, ParetoFrontierIsMonotoneAndDeduplicated) {
  ScheduleProblem p;
  p.steps = 1000;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.analyses.push_back(simple_analysis("cheap", 0.5, 0.0, 100));
  p.analyses.push_back(simple_analysis("heavy", 20.0, 0.0, 100));
  const auto frontier = pareto_frontier(p, 0.4, 300.0, 20);
  ASSERT_GE(frontier.size(), 3u);
  for (std::size_t k = 1; k < frontier.size(); ++k) {
    EXPECT_GT(frontier[k].budget_seconds, frontier[k - 1].budget_seconds);
    EXPECT_GT(frontier[k].objective, frontier[k - 1].objective);  // strictly improving
  }
  // The top of the ladder saturates at every analysis maxed: obj = 2 + 20.
  EXPECT_DOUBLE_EQ(frontier.back().objective, 22.0);
}

// Property: memory-heavy problems under the optimized output policy — the
// aggregate model's gap bounds plus placement's output rule must always
// yield schedules that pass the exact Eq 5-8 recurrence, and the coupled
// (flush-every-analysis) mode must be reachable.
class MemoryStress : public ::testing::TestWithParam<int> {};

TEST_P(MemoryStress, OptimizedOutputsStayWithinMemory) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48611u + 7u);
  ScheduleProblem p;
  p.steps = rng.uniform_int(50, 400);
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.output_policy = OutputPolicy::kOptimized;
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  double scale = 0.0;
  for (int i = 0; i < n; ++i) {
    AnalysisParams a;
    a.name = "m" + std::to_string(i);
    a.ct = rng.uniform(0.2, 3.0);
    a.ot = rng.uniform(0.05, 1.0);
    a.ft = rng.uniform(0.0, 2.0);
    a.it = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.005) : 0.0;
    a.fm = rng.uniform(0.0, 50.0);
    a.im = rng.uniform(0.5, 20.0);   // accumulates: outputs are forced
    a.cm = rng.uniform(0.0, 100.0);
    a.om = rng.uniform(0.0, 200.0);
    a.itv = rng.uniform_int(1, 20);
    a.weight = rng.uniform(0.5, 3.0);
    scale += a.ct + a.ot;
    p.analyses.push_back(a);
  }
  p.threshold = rng.uniform(2.0, 15.0) * scale;
  // Memory cap somewhere between "one analysis barely fits" and "roomy".
  p.mth = rng.uniform(300.0, 5000.0);

  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  EXPECT_TRUE(sol.validation.feasible)
      << (sol.validation.violations.empty() ? "" : sol.validation.violations[0]);
  EXPECT_LE(sol.validation.peak_memory, p.mth + 1e-6);
  EXPECT_LE(sol.validation.total_analysis_time, p.time_budget() * (1.0 + 1e-9) + 1e-9);
  // An active analysis whose no-output accumulation would blow the memory
  // budget must flush at least once (o = 0 is legal when memory fits).
  for (std::size_t i = 0; i < p.size(); ++i) {
    const AnalysisParams& a = p.analyses[i];
    const double no_output_peak = a.fm + a.im * static_cast<double>(p.steps) + a.cm;
    if (sol.frequencies[i] > 0 && no_output_peak > p.mth) {
      EXPECT_GE(sol.output_counts[i], 1) << a.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MemoryStress, ::testing::Range(0, 40));

TEST(CoupledMode, RecoversFlushEveryAnalysisSolutions) {
  // im-heavy analysis where only o = c keeps memory low enough while the
  // time budget caps c: the decoupled bound alone would reject it.
  ScheduleProblem p;
  p.steps = 500;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 48.0;
  p.output_policy = OutputPolicy::kOptimized;
  p.mth = 2e9;
  AnalysisParams a;
  a.name = "temporal";
  a.ft = 3.0;
  a.it = 0.002;
  a.im = 40e6;
  a.ct = 2.5;
  a.cm = 100e6;
  a.om = 400e6;
  a.ot = 0.4;
  a.itv = 10;
  a.weight = 2.0;
  p.analyses.push_back(a);
  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  EXPECT_GE(sol.frequencies[0], 12);  // coupled mode: 14-15 steps fit
  EXPECT_EQ(sol.output_counts[0], sol.frequencies[0]);
  EXPECT_TRUE(sol.validation.feasible);
}


// Property: the validator detects injected violations. Start from a
// feasible optimal schedule and corrupt it in ways that must be flagged.
class ValidatorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorFuzz, DetectsInjectedViolations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9176u + 31u);
  ScheduleProblem p;
  p.steps = rng.uniform_int(40, 200);
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.output_policy = OutputPolicy::kOptimized;
  AnalysisParams a;
  a.name = "target";
  a.ct = rng.uniform(0.5, 2.0);
  a.ot = rng.uniform(0.1, 0.5);
  a.itv = rng.uniform_int(4, 12);
  a.fm = 1.0;
  a.im = rng.uniform(0.5, 2.0);
  a.cm = 1.0;
  a.om = 1.0;
  p.analyses.push_back(a);
  p.threshold = rng.uniform(4.0, 10.0) * (a.ct + a.ot);
  p.mth = 1e9;  // roomy: corruption targets time/structure first

  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  ASSERT_TRUE(sol.validation.feasible);
  const AnalysisSchedule& good = sol.schedule.analysis(0);
  if (good.analysis_steps.size() < 2) return;  // too small to corrupt meaningfully

  // 1. Interval violation: move the second step right next to the first.
  {
    AnalysisSchedule bad = good;
    bad.analysis_steps[1] = bad.analysis_steps[0] + 1;
    std::sort(bad.analysis_steps.begin(), bad.analysis_steps.end());
    bad.output_steps.clear();
    bad.output_steps.push_back(bad.analysis_steps.back());
    if (bad.analysis_steps[1] - bad.analysis_steps[0] < p.analyses[0].itv) {
      const ValidationReport rep = validate_schedule(p, Schedule(p.steps, {bad}));
      EXPECT_FALSE(rep.feasible);
    }
  }
  // (Outputs at non-analysis steps cannot even be constructed: the Schedule
  // constructor enforces O_i subset of C_i as a precondition.)
  // 3. Time violation: shrink the budget below the schedule's exact cost.
  {
    ScheduleProblem tight = p;
    tight.threshold = sol.validation.total_analysis_time * 0.5;
    const ValidationReport rep = validate_schedule(tight, sol.schedule);
    EXPECT_FALSE(rep.feasible);
  }
  // 4. Memory violation: shrink mth below the schedule's exact peak.
  {
    ScheduleProblem tight = p;
    tight.mth = sol.validation.peak_memory * 0.5;
    const ValidationReport rep = validate_schedule(tight, sol.schedule);
    EXPECT_FALSE(rep.feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ValidatorFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace insched::scheduler
