// Tests for JSON schedule/solution serialization, the Gantt renderer, and
// the Section-4 cost database (probe-grid interpolation of Table-1 costs).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/scheduler/cost_database.hpp"
#include "insched/scheduler/serialize.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/support/random.hpp"

namespace insched::scheduler {
namespace {

Schedule sample_schedule() {
  return Schedule(100, {AnalysisSchedule{"rdf \"fast\"", {10, 20, 30, 40}, {20, 40}},
                        AnalysisSchedule{"msd", {50, 100}, {100}},
                        AnalysisSchedule{"idle", {}, {}}});
}

TEST(ScheduleJson, RoundTripsExactly) {
  const Schedule original = sample_schedule();
  const std::string json = schedule_to_json(original);
  const Schedule parsed = schedule_from_json(json);
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed.steps(), original.steps());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed.analysis(i).name, original.analysis(i).name);
    EXPECT_EQ(parsed.analysis(i).analysis_steps, original.analysis(i).analysis_steps);
    EXPECT_EQ(parsed.analysis(i).output_steps, original.analysis(i).output_steps);
  }
  // Escaped quote in the name survived.
  EXPECT_EQ(parsed.analysis(0).name, "rdf \"fast\"");
}

TEST(ScheduleJson, RandomSchedulesRoundTrip) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const long steps = rng.uniform_int(5, 200);
    std::vector<AnalysisSchedule> analyses;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
      AnalysisSchedule a;
      a.name = "a" + std::to_string(i);
      for (long s = 1; s <= steps; ++s)
        if (rng.bernoulli(0.2)) a.analysis_steps.push_back(s);
      for (long s : a.analysis_steps)
        if (rng.bernoulli(0.5)) a.output_steps.push_back(s);
      analyses.push_back(std::move(a));
    }
    const Schedule original(steps, analyses);
    const Schedule parsed = schedule_from_json(schedule_to_json(original));
    EXPECT_EQ(parsed.steps(), original.steps());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(parsed.analysis(i).analysis_steps, original.analysis(i).analysis_steps);
      EXPECT_EQ(parsed.analysis(i).output_steps, original.analysis(i).output_steps);
    }
  }
}

TEST(ScheduleJson, RejectsMalformedInput) {
  EXPECT_THROW((void)schedule_from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)schedule_from_json("{\"steps\":5"), std::runtime_error);
  EXPECT_THROW((void)schedule_from_json("{\"bogus\":1}"), std::runtime_error);
  // Well-formed JSON whose step lists break the Schedule invariant throws
  // too, instead of reaching the constructor's precondition.
  const auto one = [](const char* steps, const char* outputs) {
    return std::string("{\"steps\":8,\"analyses\":[{\"name\":\"a\",\"analysis_steps\":") +
           steps + ",\"output_steps\":" + outputs + "}]}";
  };
  EXPECT_NO_THROW((void)schedule_from_json(one("[2,5]", "[5]")));
  EXPECT_THROW((void)schedule_from_json(one("[5,2]", "[]")), std::runtime_error);    // unsorted
  EXPECT_THROW((void)schedule_from_json(one("[2,2,6]", "[]")), std::runtime_error);  // duplicate
  EXPECT_THROW((void)schedule_from_json(one("[2,6]", "[6,6]")), std::runtime_error);
  EXPECT_THROW((void)schedule_from_json(one("[0,5]", "[]")), std::runtime_error);    // below 1
  EXPECT_THROW((void)schedule_from_json(one("[2,9]", "[]")), std::runtime_error);    // past steps
  EXPECT_THROW((void)schedule_from_json(one("[2,5]", "[3]")), std::runtime_error);   // O not in C
  EXPECT_THROW((void)schedule_from_json("{\"steps\":-1,\"analyses\":[]}"), std::runtime_error);
  // A step count past the range of a long is a decode error, not std::stol's
  // std::out_of_range.
  EXPECT_THROW((void)schedule_from_json("{\"steps\":12345678901234567890,\"analyses\":[]}"),
               std::runtime_error);
  EXPECT_THROW((void)schedule_from_json(one("[2.5]", "[]")), std::runtime_error);
  EXPECT_THROW((void)schedule_from_json(one("[2,5]", "[5]") + "x"), std::runtime_error);
}

TEST(ScheduleJson, EscapedNamesDecode) {
  const std::string json = "{\"steps\":8,\"analyses\":[{\"name\":\"r\\u0064f caf\\u00e9 \\b\\f\","
                           "\"analysis_steps\":[2],\"output_steps\":[]}]}";
  EXPECT_EQ(schedule_from_json(json).analysis(0).name, "rdf caf\xc3\xa9 \b\f");
}

TEST(ScheduleJson, CaseStudyPrefixesParseOrThrowRuntimeError) {
  for (const ScheduleProblem& p :
       {casestudy::water_ions_problem(16384, 0.08), casestudy::rhodopsin_problem(100.0),
        casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08)}) {
    const ScheduleSolution solution = solve_schedule(p);
    ASSERT_TRUE(solution.solved);
    const std::string line = schedule_to_json(solution.schedule);
    for (std::size_t n = 0; n < line.size(); ++n) {
      try {
        (void)schedule_from_json(line.substr(0, n));
      } catch (const std::runtime_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "prefix of " << n << " bytes threw " << e.what() << "\n" << line;
        break;
      }
    }
    EXPECT_EQ(schedule_to_json(schedule_from_json(line)), line);
  }
}

TEST(SolutionJson, CarriesSolverResults) {
  ScheduleProblem p;
  p.steps = 100;
  p.threshold_kind = ThresholdKind::kTotalSeconds;
  p.threshold = 10.0;
  AnalysisParams a;
  a.name = "x";
  a.ct = 1.0;
  a.itv = 10;
  p.analyses.push_back(a);
  const ScheduleSolution sol = solve_schedule(p);
  ASSERT_TRUE(sol.solved);
  const std::string json = solution_to_json(sol);
  EXPECT_NE(json.find("\"solved\":true"), std::string::npos);
  EXPECT_NE(json.find("\"frequencies\":[10]"), std::string::npos);
  EXPECT_NE(json.find("\"schedule\":{"), std::string::npos);
  // The embedded schedule is itself parseable.
  const std::size_t pos = json.find("\"schedule\":");
  const Schedule embedded = schedule_from_json(json.substr(pos + 11, json.size() - pos - 12));
  EXPECT_EQ(embedded.analysis(0).analysis_count(), 10);
}

TEST(Gantt, MarksAnalysisAndOutputColumns) {
  const Schedule s(100, {AnalysisSchedule{"alpha", {25, 50, 75, 100}, {50, 100}}});
  const std::string gantt = render_gantt(s, 20);
  // 5 steps/column: steps 25/50/75/100 -> columns 4/9/14/19.
  EXPECT_NE(gantt.find("alpha"), std::string::npos);
  const std::size_t row_start = gantt.find('|');
  ASSERT_NE(row_start, std::string::npos);
  const std::string row = gantt.substr(row_start + 1, 20);
  EXPECT_EQ(row[4], '#');
  EXPECT_EQ(row[9], 'O');
  EXPECT_EQ(row[14], '#');
  EXPECT_EQ(row[19], 'O');
  EXPECT_EQ(row[0], '.');
}

TEST(CostDatabaseType, InterpolatesPowerLawCostsExactly) {
  // ct = 1e-6 * n / p is a power law: log-value bilinear interpolation is
  // exact at any query point.
  CostDatabase db;
  for (double n : {1000.0, 4000.0, 16000.0})
    for (double p : {1.0, 4.0, 16.0}) {
      CostSample s;
      s.problem_size = n;
      s.procs = p;
      s.costs.name = "k";
      s.costs.ct = 1e-6 * n / p;
      s.costs.fm = 8.0 * n;
      s.costs.ot = 0.0;
      s.costs.itv = 25;
      s.costs.weight = 2.0;
      db.add_sample("k", s);
    }
  EXPECT_TRUE(db.has_kernel("k"));
  EXPECT_EQ(db.sample_count("k"), 9u);
  const AnalysisParams mid = db.predict("k", 2000.0, 2.0);
  EXPECT_NEAR(mid.ct, 1e-6 * 2000.0 / 2.0, 1e-12);
  EXPECT_NEAR(mid.fm, 8.0 * 2000.0, 1e-9);
  EXPECT_EQ(mid.itv, 25);
  EXPECT_DOUBLE_EQ(mid.weight, 2.0);
  // Extrapolation beyond the grid follows the power law too.
  const AnalysisParams big = db.predict("k", 64000.0, 32.0);
  EXPECT_NEAR(big.ct, 1e-6 * 64000.0 / 32.0, 1e-9);
}

TEST(CostDatabaseType, RejectsUnknownAndNonGridKernels) {
  CostDatabase db;
  EXPECT_THROW((void)db.predict("nope", 1.0, 1.0), std::runtime_error);
  CostSample s;
  s.problem_size = 100.0;
  s.procs = 1.0;
  db.add_sample("partial", s);
  CostSample t = s;
  t.problem_size = 200.0;
  t.procs = 2.0;
  db.add_sample("partial", t);  // diagonal points: 2 of the 4 grid cells
  EXPECT_THROW((void)db.predict("partial", 150.0, 1.5), std::runtime_error);
}

TEST(CostDatabaseType, ZeroComponentsStayZero) {
  CostDatabase db;
  for (double n : {100.0, 200.0})
    for (double p : {1.0, 2.0}) {
      CostSample s;
      s.problem_size = n;
      s.procs = p;
      s.costs.ct = 1.0;
      s.costs.it = 0.0;  // never pays per-step time
      s.costs.ot = 0.0;
      db.add_sample("z", s);
    }
  const AnalysisParams mid = db.predict("z", 150.0, 1.5);
  EXPECT_DOUBLE_EQ(mid.it, 0.0);
  EXPECT_DOUBLE_EQ(mid.fm, 0.0);
}

}  // namespace
}  // namespace insched::scheduler
