// Serving-layer tests (docs/SERVING.md): instance canonicalization (the
// cache-key quotient), the LRU solution / warm-state caches, the wire
// protocol codec, the ServeEngine request lifecycle (lint rejection, cache
// hits, deadlines, admission control), the batch and socket transports, and
// the concurrent-serving acceptance test — N client threads hammering one
// engine with a fresh/cached/deadline-expiring mix must lose no responses
// and serve exactly the one-shot optima (63/78/150 on the steps=500
// staircase case studies).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/serve/cache.hpp"
#include "insched/serve/canonical.hpp"
#include "insched/serve/engine.hpp"
#include "insched/serve/protocol.hpp"
#include "insched/serve/server.hpp"
#include "insched/support/string_util.hpp"

namespace {

using namespace insched;
using scheduler::AnalysisParams;
using scheduler::ScheduleProblem;

// ---------------------------------------------------------------------------
// Fixtures.

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

/// Small deterministic two-analysis instance (absolute budget, finite mth).
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

/// Mirrors tests/test_crash.cpp / bench: the steps-heavy staircase regime
/// whose time-expanded optima at steps=500 are 63 (water), 78 (rhodo),
/// 150 (flash).
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

/// Isomorph: analyses reversed and renamed. Must not change the fingerprint.
ScheduleProblem reversed_and_renamed(ScheduleProblem p) {
  std::reverse(p.analyses.begin(), p.analyses.end());
  for (std::size_t i = 0; i < p.analyses.size(); ++i)
    p.analyses[i].name = format("client_label_%zu", i);
  return p;
}

serve::ServeRequest solve_request(ScheduleProblem p, std::string id,
                                  double deadline_ms = -1.0) {
  serve::ServeRequest request;
  request.op = serve::RequestOp::kSolve;
  request.id = std::move(id);
  request.deadline_ms = deadline_ms;
  request.problem = std::move(p);
  return request;
}

// ---------------------------------------------------------------------------
// Canonicalization (the provable order-insensitivity satellite).

TEST(Canonical, PermutationAndRenameInvariant) {
  const ScheduleProblem p = two_analysis_problem();
  const serve::CanonicalInstance a = serve::canonicalize(p);
  const serve::CanonicalInstance b = serve::canonicalize(reversed_and_renamed(p));
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  // The family follows column order: reversed analyses (itv 5, 2 instead of
  // 2, 5) build another column order, so another family.
  EXPECT_NE(a.family, b.family);
  // Both orders are permutations of {0, 1} and map the same analysis to the
  // same canonical slot: slot k of `a` and of `b` name equal cost tuples.
  ASSERT_EQ(a.order.size(), 2u);
  ASSERT_EQ(b.order.size(), 2u);
  EXPECT_EQ(a.order[0] + a.order[1], 1u);
  EXPECT_EQ(b.order[0] + b.order[1], 1u);
  // reversed_and_renamed flips indices, so the permutations are flips of
  // each other.
  EXPECT_EQ(a.order[0], 1u - b.order[0]);
}

TEST(Canonical, SameOrderOtherCostsKeepsTheFamily) {
  const ScheduleProblem p = two_analysis_problem();
  ScheduleProblem costed = p;
  costed.analyses[0].ct *= 1.7;
  costed.analyses[1].weight *= 0.5;
  const serve::CanonicalInstance a = serve::canonicalize(p);
  const serve::CanonicalInstance b = serve::canonicalize(costed);
  EXPECT_NE(a.key, b.key);
  EXPECT_EQ(a.family, b.family);
}

TEST(Canonical, TimeRescaleInvariant) {
  const ScheduleProblem p = two_analysis_problem();
  ScheduleProblem scaled = p;
  scaled.threshold *= 8.0;  // kTotalSeconds: the budget itself
  for (auto& a : scaled.analyses) {
    a.ft *= 8.0;
    a.it *= 8.0;
    a.ct *= 8.0;
    a.ot *= 8.0;
  }
  EXPECT_EQ(serve::canonicalize(p).key, serve::canonicalize(scaled).key);
}

TEST(Canonical, ThresholdKindCollapses) {
  // The same budget expressed three ways is one canonical instance.
  const ScheduleProblem total = two_analysis_problem();  // kTotalSeconds, 50 s
  ScheduleProblem per_step = total;
  per_step.threshold_kind = scheduler::ThresholdKind::kPerStepSeconds;
  per_step.threshold = 0.5;  // * 100 steps = 50 s
  ScheduleProblem fraction = total;
  fraction.threshold_kind = scheduler::ThresholdKind::kFractionOfSimTime;
  fraction.threshold = 0.25;
  fraction.sim_time_per_step = 2.0;  // 0.25 * 100 * 2 = 50 s
  EXPECT_EQ(serve::canonicalize(total).key, serve::canonicalize(per_step).key);
  EXPECT_EQ(serve::canonicalize(total).key, serve::canonicalize(fraction).key);
}

TEST(Canonical, MemoryRescaleInvariant) {
  const ScheduleProblem p = two_analysis_problem();
  ScheduleProblem scaled = p;
  scaled.mth *= 3.0;
  for (auto& a : scaled.analyses) {
    a.fm *= 3.0;
    a.im *= 3.0;
    a.cm *= 3.0;
    a.om *= 3.0;
  }
  EXPECT_EQ(serve::canonicalize(p).key, serve::canonicalize(scaled).key);
}

TEST(Canonical, DistinctProblemsDistinctKeys) {
  const ScheduleProblem p = two_analysis_problem();
  const serve::CanonicalInstance base = serve::canonicalize(p);

  ScheduleProblem heavier = p;
  heavier.analyses[0].weight *= 1.5;  // weights are NOT quotiented out
  const serve::CanonicalInstance h = serve::canonicalize(heavier);
  EXPECT_NE(base.key, h.key);
  EXPECT_NE(base.fingerprint, h.fingerprint);
  EXPECT_EQ(base.family, h.family);  // same shape -> same warm-start family

  ScheduleProblem slower = p;
  slower.analyses[0].ct *= 2.0;  // a genuine cost change (not a rescale)
  EXPECT_NE(base.key, serve::canonicalize(slower).key);

  ScheduleProblem longer = p;
  longer.steps *= 2;  // combinatorial structure -> different family too
  const serve::CanonicalInstance l = serve::canonicalize(longer);
  EXPECT_NE(base.key, l.key);
  EXPECT_NE(base.family, l.family);
}

TEST(Canonical, DuplicateAndDominatedTwinsStayOrderInsensitive) {
  // The duplicate/dominated shapes insched_lint flags (duplicate-name,
  // dominated-analysis) must canonicalize consistently too: exact cost twins
  // are the worst case for a sort-based canonical order.
  ScheduleProblem p = two_analysis_problem();
  p.analyses.push_back(p.analyses[0]);  // exact twin of "alpha", same weight
  p.analyses.back().name = "alpha";     // duplicate name as well
  p.analyses.push_back(p.analyses[1]);  // twin of "beta" with smaller weight:
  p.analyses.back().weight = 1.0;       // dominated per lint's definition
  p.analyses.back().name = "beta_shadow";

  const scheduler::LintReport lint = scheduler::lint_problem(p);
  EXPECT_FALSE(lint.has_errors()) << lint.to_string();

  const serve::CanonicalInstance a = serve::canonicalize(p);
  ScheduleProblem shuffled = p;
  std::swap(shuffled.analyses[0], shuffled.analyses[2]);  // swap the twins
  std::swap(shuffled.analyses[1], shuffled.analyses[3]);
  std::reverse(shuffled.analyses.begin(), shuffled.analyses.end());
  const serve::CanonicalInstance b = serve::canonicalize(shuffled);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  // `order` stays a permutation even with ties.
  std::vector<std::size_t> seen(p.analyses.size(), 0);
  for (const std::size_t original : a.order) {
    ASSERT_LT(original, seen.size());
    ++seen[original];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::size_t c) { return c == 1; }));
}

TEST(Canonical, SolutionOrderRoundTrip) {
  const ScheduleProblem p = reversed_and_renamed(two_analysis_problem());
  const serve::CanonicalInstance canon = serve::canonicalize(p);

  scheduler::ScheduleSolution sol;
  sol.solved = true;
  sol.proven_optimal = true;
  sol.objective = 42.0;
  sol.frequencies = {7, 3};
  sol.output_counts = {2, 1};
  sol.schedule = scheduler::Schedule(
      p.steps, {scheduler::AnalysisSchedule{p.analyses[0].name, {2, 4}, {4}},
                scheduler::AnalysisSchedule{p.analyses[1].name, {5}, {5}}});

  const scheduler::ScheduleSolution canonical = serve::to_canonical_order(sol, canon.order);
  const scheduler::ScheduleSolution back =
      serve::from_canonical_order(canonical, canon.order, p);
  ASSERT_EQ(back.frequencies.size(), 2u);
  EXPECT_EQ(back.frequencies, sol.frequencies);
  EXPECT_EQ(back.output_counts, sol.output_counts);
  ASSERT_EQ(back.schedule.analyses().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.schedule.analyses()[i].name, p.analyses[i].name);
    EXPECT_EQ(back.schedule.analyses()[i].analysis_steps,
              sol.schedule.analyses()[i].analysis_steps);
  }
  // Cached (canonical) solutions carry no request-side names.
  for (const auto& row : canonical.schedule.analyses()) EXPECT_TRUE(row.name.empty());
}

TEST(Canonical, Fnv1a64KnownVectors) {
  // Reference values of the canonical FNV-1a 64-bit test vectors.
  EXPECT_EQ(serve::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(serve::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(serve::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

// ---------------------------------------------------------------------------
// Caches.

scheduler::ScheduleSolution marker_solution(double objective) {
  scheduler::ScheduleSolution sol;
  sol.solved = true;
  sol.proven_optimal = true;
  sol.objective = objective;
  return sol;
}

TEST(SolutionCache, LruEvictionAndCounters) {
  serve::SolutionCache cache(2);
  cache.insert(1, "k1", marker_solution(1.0));
  cache.insert(2, "k2", marker_solution(2.0));
  ASSERT_TRUE(cache.lookup(1, "k1").has_value());  // touches k1 -> k2 is LRU
  cache.insert(3, "k3", marker_solution(3.0));     // evicts k2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(2, "k2").has_value());
  const auto hit = cache.lookup(3, "k3");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->objective, 3.0);

  const serve::SolutionCache::Counters c = cache.counters();
  EXPECT_EQ(c.inserts, 3);
  EXPECT_EQ(c.evictions, 1);
  EXPECT_EQ(c.hits, 2);
  EXPECT_EQ(c.misses, 1);

  cache.insert(3, "k3", marker_solution(4.0));  // update, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().updates, 1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SolutionCache, FingerprintCollisionNeverServesWrongSchedule) {
  serve::SolutionCache cache(4);
  cache.insert(99, "the real key", marker_solution(1.0));
  EXPECT_FALSE(cache.lookup(99, "an impostor key").has_value());
  EXPECT_GE(cache.counters().collision_rejects, 1);
}

TEST(FamilyWarmPool, LastWriterWinsPerFamilyLru) {
  serve::FamilyWarmPool pool(2);
  EXPECT_EQ(pool.get(10), nullptr);
  EXPECT_EQ(pool.size(), 0u);  // a miss stores nothing
  const auto a = std::make_shared<mip::MipSnapshot>();
  const auto a2 = std::make_shared<mip::MipSnapshot>();
  const auto b = std::make_shared<mip::MipSnapshot>();
  pool.put(10, a);
  EXPECT_EQ(pool.get(10), a);
  pool.put(10, a2);  // same family: replaced
  EXPECT_EQ(pool.get(10), a2);
  pool.put(20, b);
  EXPECT_EQ(pool.size(), 2u);
  (void)pool.get(10);  // touch 10 so 20 is LRU
  pool.put(30, a);     // evicts 20
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.get(20), nullptr);
  EXPECT_EQ(pool.get(10), a2);
  EXPECT_EQ(pool.get(30), a);
}

// ---------------------------------------------------------------------------
// Protocol codec.

TEST(Protocol, SolveRequestRoundTripPreservesFingerprint) {
  ScheduleProblem p = two_analysis_problem();
  p.analyses[0].ct = 1.0 / 3.0;  // exercise %.17g exact double round-trip
  p.analyses[1].weight = 0.1;
  p.bw = 1.5e9;
  serve::ServeRequest request = solve_request(p, "round-trip", 1234.5);
  request.formulation = scheduler::Formulation::kTimeExpanded;

  const serve::ServeRequest parsed =
      serve::request_from_json(serve::request_to_json(request));
  EXPECT_EQ(parsed.op, serve::RequestOp::kSolve);
  EXPECT_EQ(parsed.id, "round-trip");
  EXPECT_DOUBLE_EQ(parsed.deadline_ms, 1234.5);
  ASSERT_TRUE(parsed.formulation.has_value());
  EXPECT_EQ(*parsed.formulation, scheduler::Formulation::kTimeExpanded);
  // The client's and the daemon's view of the instance must agree exactly,
  // or fingerprints diverge and the cache never hits across the wire.
  EXPECT_EQ(serve::canonicalize(parsed.problem).key, serve::canonicalize(p).key);
  EXPECT_EQ(parsed.problem.analyses[0].name, p.analyses[0].name);
}

TEST(Protocol, ResponseRoundTrip) {
  serve::ServeResponse response;
  response.id = "abc";
  response.status = serve::ResponseStatus::kDegraded;
  response.cache_hit = true;
  response.degraded = true;
  response.objective = 63.0;
  response.latency_ms = 0.125;
  response.message = "deadline expired";
  response.solution_json = "{\"solved\":true}";

  const serve::ServeResponse parsed =
      serve::response_from_json(serve::response_to_json(response));
  EXPECT_EQ(parsed.id, "abc");
  EXPECT_EQ(parsed.status, serve::ResponseStatus::kDegraded);
  EXPECT_TRUE(parsed.cache_hit);
  EXPECT_TRUE(parsed.degraded);
  EXPECT_FALSE(parsed.coalesced);
  EXPECT_DOUBLE_EQ(parsed.objective, 63.0);
  EXPECT_EQ(parsed.message, "deadline expired");
  EXPECT_EQ(parsed.solution_json, "{\"solved\":true}");
}

TEST(Protocol, RescheduleRequestRoundTrip) {
  // Warm follow-up: handle + measured deltas, no problem payload.
  serve::ServeRequest request;
  request.op = serve::RequestOp::kReschedule;
  request.id = "resched";
  request.handle = "r7";
  serve::MeasuredCost m;
  m.name = "alpha";
  m.ct = 1.0 / 3.0;
  m.cm = 7.5;  // ot stays NaN = "not measured"
  request.measured.push_back(m);

  const serve::ServeRequest parsed =
      serve::request_from_json(serve::request_to_json(request));
  EXPECT_EQ(parsed.op, serve::RequestOp::kReschedule);
  EXPECT_EQ(parsed.handle, "r7");
  EXPECT_FALSE(parsed.has_problem);
  ASSERT_EQ(parsed.measured.size(), 1u);
  EXPECT_EQ(parsed.measured[0].name, "alpha");
  EXPECT_DOUBLE_EQ(parsed.measured[0].ct, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(parsed.measured[0].cm, 7.5);
  EXPECT_TRUE(std::isnan(parsed.measured[0].ot));

  // Cold start: problem payload instead of a handle.
  serve::ServeRequest cold;
  cold.op = serve::RequestOp::kReschedule;
  cold.problem = two_analysis_problem();
  cold.has_problem = true;
  const serve::ServeRequest parsed_cold =
      serve::request_from_json(serve::request_to_json(cold));
  EXPECT_TRUE(parsed_cold.has_problem);
  EXPECT_EQ(serve::canonicalize(parsed_cold.problem).key,
            serve::canonicalize(cold.problem).key);

  // A reschedule with neither handle nor problem is malformed on its face.
  EXPECT_THROW((void)serve::request_from_json("{\"op\":\"reschedule\"}"),
               std::runtime_error);

  // Response side: handle + warm flag survive the round trip.
  serve::ServeResponse response;
  response.id = "resched";
  response.status = serve::ResponseStatus::kOk;
  response.handle = "r7";
  response.warm = true;
  const serve::ServeResponse parsed_response =
      serve::response_from_json(serve::response_to_json(response));
  EXPECT_EQ(parsed_response.handle, "r7");
  EXPECT_TRUE(parsed_response.warm);
}

TEST(Protocol, MalformedInputThrows) {
  EXPECT_THROW((void)serve::request_from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)serve::request_from_json("{\"op\":\"fly\"}"), std::runtime_error);
  EXPECT_THROW((void)serve::request_from_json("{\"op\":\"ping\",\"bogus\":1}"),
               std::runtime_error);
  EXPECT_THROW((void)serve::response_from_json("{"), std::runtime_error);
}

/// True when `line` holds no byte below 0x20: a valid single JSON line.
bool no_control_bytes(const std::string& line) {
  return std::none_of(line.begin(), line.end(),
                      [](char c) { return static_cast<unsigned char>(c) < 0x20; });
}

TEST(Protocol, NonAsciiAndControlBytesRoundTrip) {
  const std::string odd = "caf\xc3\xa9 \x01 \r";
  ScheduleProblem p = two_analysis_problem();
  p.analyses[0].name = "alpha " + odd;
  p.analyses[1].name = "\x01\xc3\xa9\r";
  const std::string line = serve::request_to_json(solve_request(p, odd));
  EXPECT_TRUE(no_control_bytes(line)) << line;
  const serve::ServeRequest parsed = serve::request_from_json(line);
  EXPECT_EQ(parsed.id, odd);
  ASSERT_EQ(parsed.problem.analyses.size(), 2u);
  EXPECT_EQ(parsed.problem.analyses[0].name, p.analyses[0].name);
  EXPECT_EQ(parsed.problem.analyses[1].name, p.analyses[1].name);

  serve::ServeResponse response;
  response.id = odd;
  response.status = serve::ResponseStatus::kError;
  response.message = "json: unknown op 'fl\x01y'";
  response.metrics_text = "line one\nline two\t" + odd;
  const std::string answer = serve::response_to_json(response);
  EXPECT_TRUE(no_control_bytes(answer)) << answer;
  const serve::ServeResponse back = serve::response_from_json(answer);
  EXPECT_EQ(back.id, odd);
  EXPECT_EQ(back.message, response.message);
  EXPECT_EQ(back.metrics_text, response.metrics_text);

  // What Python's json.dumps sends by default: every non-ASCII character as
  // a \uXXXX escape.
  const serve::ServeRequest ping =
      serve::request_from_json(R"({"op":"ping","id":"caf\u00e9 \ud83d\ude00"})");
  EXPECT_EQ(ping.id, "caf\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(Protocol, NonIntegralOrNonFiniteNumbersThrow) {
  const std::string line = serve::request_to_json(solve_request(two_analysis_problem(), "n"));
  const auto with = [&](const std::string& from, const std::string& to) {
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.substr(0, at) + to + line.substr(at + from.size());
  };
  EXPECT_NO_THROW((void)serve::request_from_json(with("\"steps\":100", "\"steps\":1e2")));
  for (const std::string& bad :
       {with("\"steps\":100", "\"steps\":1e300"), with("\"steps\":100", "\"steps\":nan"),
        with("\"steps\":100", "\"steps\":100000000000000000000"),
        with("\"itv\":2", "\"itv\":2.5"), with("\"threshold\":50", "\"threshold\":inf"),
        with("\"id\":\"n\"", "\"id\":\"n\",\"deadline_ms\":-inf")})
    EXPECT_THROW((void)serve::request_from_json(bad), std::runtime_error) << bad;
}

TEST(Protocol, DeeplyNestedResponseThrows) {
  const std::string line = "{\"id\":\"x\",\"solution\":" + std::string(200000, '[');
  EXPECT_THROW((void)serve::response_from_json(line), std::runtime_error);
}

TEST(Protocol, ExitCodesMatchSubmitContract) {
  EXPECT_EQ(serve::exit_code(serve::ResponseStatus::kOk), 0);
  EXPECT_EQ(serve::exit_code(serve::ResponseStatus::kInfeasible), 1);
  EXPECT_EQ(serve::exit_code(serve::ResponseStatus::kError), 1);
  EXPECT_EQ(serve::exit_code(serve::ResponseStatus::kDegraded), 3);
  EXPECT_EQ(serve::exit_code(serve::ResponseStatus::kLintRejected), 4);
  EXPECT_EQ(serve::exit_code(serve::ResponseStatus::kRejected), 5);
}

// ---------------------------------------------------------------------------
// Engine lifecycle.

serve::EngineOptions engine_options() {
  serve::EngineOptions options;
  options.solve.mip.threads = 1;
  return options;
}

/// Every prefix of `line` decodes or throws std::runtime_error; no other
/// exception type escapes. The whole line decodes.
template <typename Decode>
void expect_prefixes_parse_or_throw(const std::string& line, Decode decode) {
  for (std::size_t n = 0; n < line.size(); ++n) {
    try {
      (void)decode(line.substr(0, n));
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "prefix of " << n << " bytes threw " << typeid(e).name() << ": "
                    << e.what() << "\n" << line;
      return;
    }
  }
  EXPECT_NO_THROW((void)decode(line)) << line;
}

TEST(MalformedInput, CaseStudyRequestAndResponsePrefixes) {
  serve::ServeEngine engine(engine_options());
  const std::vector<ScheduleProblem> problems = {
      casestudy::water_ions_problem(16384, 0.08), casestudy::rhodopsin_problem(100.0),
      casestudy::flash_problem({2.0, 1.0, 2.0}, 0.08)};
  for (const ScheduleProblem& p : problems) {
    const serve::ServeRequest solve = solve_request(p, "case-study");
    serve::ServeRequest reschedule;
    reschedule.op = serve::RequestOp::kReschedule;
    reschedule.id = "resched";
    reschedule.handle = "r1";
    for (const AnalysisParams& a : p.analyses) {
      serve::MeasuredCost m;
      m.name = a.name;
      m.ct = a.ct * 1.1;
      reschedule.measured.push_back(m);
    }
    ScheduleProblem broken = p;
    broken.analyses[0].ct = -1.0;  // lint-rejected: the response carries lint JSON
    const serve::ServeResponse answer = engine.handle(solve);
    ASSERT_EQ(answer.status, serve::ResponseStatus::kOk) << answer.message;
    const serve::ServeResponse rejected = engine.handle(solve_request(broken, "broken"));
    ASSERT_EQ(rejected.status, serve::ResponseStatus::kLintRejected);

    for (const serve::ServeRequest& r : {solve, reschedule})
      expect_prefixes_parse_or_throw(serve::request_to_json(r), serve::request_from_json);
    for (const serve::ServeResponse& r : {answer, rejected})
      expect_prefixes_parse_or_throw(serve::response_to_json(r), serve::response_from_json);
  }
}

TEST(Engine, FreshSolveStoresTheFamilySnapshot) {
  serve::ServeEngine engine(engine_options());
  const ScheduleProblem p = two_analysis_problem();
  const std::uint64_t family = serve::canonicalize(p).family;
  EXPECT_EQ(engine.families().get(family), nullptr);
  const serve::ServeResponse fresh = engine.handle(solve_request(p, "fresh"));
  ASSERT_EQ(fresh.status, serve::ResponseStatus::kOk) << fresh.message;
  const auto snapshot = engine.families().get(family);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->root_basis.empty());
}

TEST(Engine, CacheHitMatchesFreshObjectiveAndIsFarFaster) {
  serve::EngineOptions options = engine_options();
  options.solve.formulation = scheduler::Formulation::kTimeExpanded;
  serve::ServeEngine engine(options);
  const ScheduleProblem p = staircase_problems()[0];  // fresh solve: real MILP work

  const serve::ServeResponse fresh = engine.handle(solve_request(p, "fresh"));
  ASSERT_EQ(fresh.status, serve::ResponseStatus::kOk) << fresh.message;
  EXPECT_TRUE(fresh.proven_optimal);
  EXPECT_FALSE(fresh.cache_hit);

  // The acceptance bar: repeated/isomorphic requests must be >= 10x cheaper
  // than the fresh solve. The steady-state hit latency is the measurement
  // (best of several — the very first hit pays one-time cold costs), and
  // the margin in practice is ~100x-1000x.
  constexpr int kHits = 5;
  double best_hit_ms = std::numeric_limits<double>::infinity();
  for (int k = 0; k < kHits; ++k) {
    const serve::ServeResponse hit =
        engine.handle(solve_request(reversed_and_renamed(p), format("iso_%d", k)));
    ASSERT_EQ(hit.status, serve::ResponseStatus::kOk) << hit.message;
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_DOUBLE_EQ(hit.objective, fresh.objective);
    best_hit_ms = std::min(best_hit_ms, hit.latency_ms);
  }
  EXPECT_LT(best_hit_ms * 10.0, fresh.latency_ms)
      << "cache hit " << best_hit_ms << " ms vs fresh " << fresh.latency_ms << " ms";

  const runtime::ServingShard shard = engine.metrics().shard("solve");
  EXPECT_EQ(shard.requests, 1 + kHits);
  EXPECT_EQ(shard.cache_hits, kHits);
  EXPECT_EQ(shard.ok, 1 + kHits);
}

TEST(Engine, ExpiredDeadlineDegradesToValidatedGreedy) {
  serve::ServeEngine engine(engine_options());
  const ScheduleProblem p = staircase_problems()[0];

  const serve::ServeResponse response =
      engine.handle(solve_request(p, "late", /*deadline_ms=*/1e-3));
  EXPECT_EQ(response.status, serve::ResponseStatus::kDegraded) << response.message;
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.proven_optimal);
  EXPECT_FALSE(response.solution_json.empty());
  EXPECT_GT(response.objective, 0.0);  // greedy still schedules something
  EXPECT_EQ(serve::exit_code(response.status), 3);

  // Degraded results are never memoized: the same instance with a real
  // deadline solves fresh to the true optimum.
  const serve::ServeResponse good = engine.handle(solve_request(p, "on-time"));
  ASSERT_EQ(good.status, serve::ResponseStatus::kOk) << good.message;
  EXPECT_FALSE(good.cache_hit);
  EXPECT_TRUE(good.proven_optimal);
  EXPECT_GE(good.objective, response.objective);
}

TEST(Engine, LintErrorsRejectBeforeSolving) {
  serve::ServeEngine engine(engine_options());
  ScheduleProblem p = two_analysis_problem();
  p.threshold = -5.0;  // lint error: negative budget

  const serve::ServeResponse response = engine.handle(solve_request(p, "bad"));
  EXPECT_EQ(response.status, serve::ResponseStatus::kLintRejected);
  EXPECT_FALSE(response.lint_json.empty());
  EXPECT_TRUE(response.solution_json.empty());
  EXPECT_EQ(serve::exit_code(response.status), 4);
  EXPECT_EQ(engine.metrics().shard("solve").lint_rejected, 1);
}

serve::ServeRequest reschedule_request(std::string id, std::string handle,
                                       std::vector<serve::MeasuredCost> measured = {}) {
  serve::ServeRequest request;
  request.op = serve::RequestOp::kReschedule;
  request.id = std::move(id);
  request.handle = std::move(handle);
  request.measured = std::move(measured);
  return request;
}

serve::MeasuredCost measured_ct(const char* name, double ct) {
  serve::MeasuredCost m;
  m.name = name;
  m.ct = ct;
  return m;
}

/// Reschedule fixture: the two-analysis instance without the memory cap. The
/// reschedule path always solves time-expanded, and the finite-mth memory
/// recurrence at 100 steps is degenerate enough to stall the simplex — a
/// solver limitation tracked in ROADMAP.md, not what these tests probe.
ScheduleProblem reschedule_problem() {
  ScheduleProblem p = two_analysis_problem();
  p.mth = scheduler::kNoLimit;
  return p;
}

TEST(Engine, RescheduleColdStartThenWarmResolve) {
  serve::ServeEngine engine(engine_options());
  const ScheduleProblem p = reschedule_problem();

  // Cold start: a problem, no handle. The response mints the context handle.
  serve::ServeRequest cold = reschedule_request("resched_cold", "");
  cold.problem = p;
  cold.has_problem = true;
  const serve::ServeResponse first = engine.handle(cold);
  ASSERT_EQ(first.status, serve::ResponseStatus::kOk) << first.message;
  EXPECT_FALSE(first.warm);
  EXPECT_TRUE(first.proven_optimal);
  ASSERT_FALSE(first.handle.empty());

  // Measured drift: alpha's compute time grew 20%. The follow-up must ride
  // the warm-delta path and still land on the exact optimum of the patched
  // problem — cross-checked against an ordinary solve of the same instance.
  ScheduleProblem patched = p;
  patched.analyses[0].ct *= 1.2;
  const serve::ServeResponse warm = engine.handle(reschedule_request(
      "resched_warm", first.handle, {measured_ct("alpha", patched.analyses[0].ct)}));
  ASSERT_EQ(warm.status, serve::ResponseStatus::kOk) << warm.message;
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.handle, first.handle);
  EXPECT_TRUE(warm.proven_optimal);

  serve::EngineOptions reference_options = engine_options();
  reference_options.solve.formulation = scheduler::Formulation::kTimeExpanded;
  serve::ServeEngine reference(reference_options);
  const serve::ServeResponse fresh = reference.handle(solve_request(patched, "fresh_ref"));
  ASSERT_EQ(fresh.status, serve::ResponseStatus::kOk) << fresh.message;
  EXPECT_NEAR(warm.objective, fresh.objective, 1e-9);

  // Re-solves chain: a second measured update reschedules off the advanced
  // snapshot, still warm.
  const serve::ServeResponse again = engine.handle(reschedule_request(
      "resched_again", first.handle, {measured_ct("beta", p.analyses[1].ct * 0.9)}));
  ASSERT_EQ(again.status, serve::ResponseStatus::kOk) << again.message;
  EXPECT_TRUE(again.warm);
}

TEST(Engine, RescheduleUnknownHandleWithoutProblemErrors) {
  serve::ServeEngine engine(engine_options());
  const serve::ServeResponse response =
      engine.handle(reschedule_request("lost", "r999"));
  EXPECT_EQ(response.status, serve::ResponseStatus::kError);
  EXPECT_FALSE(response.message.empty());
  EXPECT_TRUE(response.handle.empty());
}

TEST(Engine, RescheduleBrokenMeasurementDoesNotPoisonTheContext) {
  serve::ServeEngine engine(engine_options());
  serve::ServeRequest cold = reschedule_request("resched_cold", "");
  cold.problem = reschedule_problem();
  cold.has_problem = true;
  const serve::ServeResponse first = engine.handle(cold);
  ASSERT_EQ(first.status, serve::ResponseStatus::kOk) << first.message;

  // A negative measured cost fails lint; the stored problem must survive.
  const serve::ServeResponse bad = engine.handle(
      reschedule_request("resched_bad", first.handle, {measured_ct("alpha", -5.0)}));
  EXPECT_EQ(bad.status, serve::ResponseStatus::kLintRejected);
  EXPECT_FALSE(bad.lint_json.empty());

  const serve::ServeResponse retry =
      engine.handle(reschedule_request("resched_retry", first.handle));
  ASSERT_EQ(retry.status, serve::ResponseStatus::kOk) << retry.message;
  EXPECT_NEAR(retry.objective, first.objective, 1e-9);
}

TEST(Engine, RescheduleExpiredDeadlineDegrades) {
  serve::ServeEngine engine(engine_options());
  serve::ServeRequest cold = reschedule_request("resched_late", "");
  cold.problem = reschedule_problem();
  cold.has_problem = true;
  cold.deadline_ms = 1e-3;  // expired before any MILP work can start
  const serve::ServeResponse response = engine.handle(cold);
  EXPECT_EQ(response.status, serve::ResponseStatus::kDegraded) << response.message;
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.warm);
  EXPECT_FALSE(response.handle.empty());
  EXPECT_GT(response.objective, 0.0);  // greedy still schedules something
}

TEST(Engine, PingMetricsShutdownOps) {
  serve::ServeEngine engine(engine_options());
  serve::ServeRequest ping;
  ping.op = serve::RequestOp::kPing;
  ping.id = "p1";
  const serve::ServeResponse pong = engine.handle(ping);
  EXPECT_EQ(pong.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(pong.id, "p1");
  EXPECT_EQ(pong.message, "pong");

  serve::ServeRequest metrics;
  metrics.op = serve::RequestOp::kMetrics;
  const serve::ServeResponse snapshot = engine.handle(metrics);
  EXPECT_EQ(snapshot.status, serve::ResponseStatus::kOk);
  EXPECT_NE(snapshot.metrics_text.find("ping"), std::string::npos);

  serve::ServeRequest shutdown;
  shutdown.op = serve::RequestOp::kShutdown;
  EXPECT_EQ(engine.handle(shutdown).status, serve::ResponseStatus::kOk);
}

TEST(Engine, AdmissionControlRejectsAtCapacity) {
  serve::EngineOptions options = engine_options();
  options.max_inflight = 1;
  options.coalesce_enabled = false;
  serve::ServeEngine engine(options);

  // Two symmetric clients hammer the engine with fresh instances. With one
  // in-flight slot, the first time the submissions overlap, whichever
  // request arrives second is rejected — on either thread, so both count.
  std::atomic<long> rejections{0};
  std::vector<serve::ServeResponse> sample(2);
  const auto client = [&engine, &rejections, &sample](int tid) {
    for (int k = 0; k < 200 && rejections.load() == 0; ++k) {
      ScheduleProblem p = casestudy::water_ions_problem(16384, 0.10);
      for (auto& a : p.analyses) a.weight *= 1.0 + 1e-5 * (1 + tid * 200 + k);
      const serve::ServeResponse response =
          engine.handle(solve_request(p, format("c%d_%d", tid, k)));
      if (response.status == serve::ResponseStatus::kRejected) {
        sample[static_cast<std::size_t>(tid)] = response;
        rejections.fetch_add(1);
      }
    }
  };
  std::thread other([&client] { client(1); });
  client(0);
  other.join();

  ASSERT_GE(rejections.load(), 1);
  const serve::ServeResponse& rejected =
      sample[0].status == serve::ResponseStatus::kRejected ? sample[0] : sample[1];
  EXPECT_EQ(serve::exit_code(rejected.status), 5);
  EXPECT_NE(rejected.message.find("capacity"), std::string::npos);
  EXPECT_TRUE(rejected.solution_json.empty());
  EXPECT_GE(engine.metrics().shard("solve").rejected, 1);
}

TEST(Engine, CoalescingSharesOneSolveAcrossIdenticalRequests) {
  serve::EngineOptions options = engine_options();
  options.cache_enabled = false;  // force every request through coalescing
  serve::ServeEngine engine(options);
  const ScheduleProblem p = staircase_problems()[0];

  constexpr int kClients = 6;
  std::vector<serve::ServeResponse> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t)
    clients.emplace_back([&engine, &responses, &p, t] {
      responses[static_cast<std::size_t>(t)] =
          engine.handle(solve_request(p, format("c%d", t)));
    });
  for (auto& c : clients) c.join();

  long coalesced = 0;
  for (const auto& r : responses) {
    ASSERT_EQ(r.status, serve::ResponseStatus::kOk) << r.message;
    EXPECT_DOUBLE_EQ(r.objective, responses[0].objective);
    if (r.coalesced) ++coalesced;
  }
  // At least one request started before the first leader finished shares its
  // result; none are lost either way.
  EXPECT_EQ(engine.metrics().shard("solve").requests, kClients);
  EXPECT_EQ(engine.metrics().shard("solve").coalesced, coalesced);
}

// ---------------------------------------------------------------------------
// Concurrent serving: the 63/78/150 acceptance test.

struct MixOutcome {
  long ok = 0;
  long degraded = 0;
  long wrong_objective = 0;
  long unexpected_status = 0;
};

/// N threads x R requests over `problems`: repeats, isomorphs, and fresh
/// instances with an already-expired deadline. Every response is collected
/// by slot — a lost response keeps status kError and fails the tally.
MixOutcome hammer(serve::ServeEngine& engine, const std::vector<ScheduleProblem>& problems,
                  const std::vector<double>& optima, int threads, int per_thread) {
  const int total = threads * per_thread;
  std::vector<serve::ServeResponse> responses(static_cast<std::size_t>(total));
  std::vector<int> which(static_cast<std::size_t>(total), 0);
  // char, not bool: vector<bool> packs bits, so concurrent writes to
  // *different* slots would race on the shared word.
  std::vector<char> expired(static_cast<std::size_t>(total), 0);

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    clients.emplace_back([&, t] {
      for (int k = 0; k < per_thread; ++k) {
        const int slot = t * per_thread + k;
        const std::size_t p = static_cast<std::size_t>(slot) % problems.size();
        const int kind = (t + k) % 4;
        which[static_cast<std::size_t>(slot)] = static_cast<int>(p);
        serve::ServeRequest request;
        if (kind == 3) {
          // Fresh instance whose deadline has already expired: must degrade.
          ScheduleProblem fresh = problems[p];
          for (auto& a : fresh.analyses)
            a.weight *= 1.0 + 1e-5 * (slot + 1);  // unique fingerprint
          request = solve_request(std::move(fresh), format("r%d", slot), 1e-3);
          expired[static_cast<std::size_t>(slot)] = 1;
        } else if (kind == 1) {
          request = solve_request(reversed_and_renamed(problems[p]), format("r%d", slot));
        } else {
          request = solve_request(problems[p], format("r%d", slot));
        }
        responses[static_cast<std::size_t>(slot)] = engine.handle(request);
      }
    });
  for (auto& c : clients) c.join();

  MixOutcome out;
  for (int slot = 0; slot < total; ++slot) {
    const serve::ServeResponse& r = responses[static_cast<std::size_t>(slot)];
    if (expired[static_cast<std::size_t>(slot)]) {
      if (r.status == serve::ResponseStatus::kDegraded && r.degraded)
        ++out.degraded;
      else
        ++out.unexpected_status;
      continue;
    }
    if (r.status != serve::ResponseStatus::kOk) {
      ++out.unexpected_status;
      continue;
    }
    ++out.ok;
    const double expected = optima[static_cast<std::size_t>(
        which[static_cast<std::size_t>(slot)])];
    if (std::abs(r.objective - expected) > 1e-6) ++out.wrong_objective;
  }
  return out;
}

// Quick mix over the cheap aggregate instances — this is the variant the
// ASan/TSan serve smoke runs (see tests/CMakeLists.txt).
TEST(ServeConcurrent, QuickMixLosesNoResponses) {
  const std::vector<ScheduleProblem> problems = {casestudy::water_ions_problem(16384, 0.10),
                                                 casestudy::rhodopsin_problem(100.0)};
  std::vector<double> optima;
  for (const auto& p : problems) {
    scheduler::SolveOptions so;
    so.mip.threads = 1;
    const auto one_shot = scheduler::solve_schedule(p, so);
    ASSERT_TRUE(one_shot.proven_optimal);
    optima.push_back(one_shot.objective);
  }

  serve::ServeEngine engine(engine_options());
  const int threads = 4, per_thread = 6;
  const MixOutcome out = hammer(engine, problems, optima, threads, per_thread);
  EXPECT_EQ(out.unexpected_status, 0);
  EXPECT_EQ(out.wrong_objective, 0);
  EXPECT_EQ(out.ok + out.degraded, threads * per_thread);  // nothing lost

  const runtime::ServingShard shard = engine.metrics().shard("solve");
  EXPECT_EQ(shard.requests, threads * per_thread);
  EXPECT_GT(shard.cache_hits + shard.coalesced, 0);
  EXPECT_EQ(shard.degraded, out.degraded);
}

// Full acceptance: the steps=500 staircase optima served concurrently must
// equal the one-shot solves (63 water / 78 rhodo / 150 flash).
TEST(ServeConcurrentStaircase, MixServesExactOneShotOptima) {
  const std::vector<ScheduleProblem> problems = staircase_problems();
  scheduler::SolveOptions one_shot_options;
  one_shot_options.formulation = scheduler::Formulation::kTimeExpanded;
  one_shot_options.mip.threads = 1;
  std::vector<double> optima;
  for (const auto& p : problems) {
    const auto one_shot = scheduler::solve_schedule(p, one_shot_options);
    ASSERT_TRUE(one_shot.proven_optimal);
    optima.push_back(one_shot.objective);
  }
  ASSERT_EQ(optima.size(), 3u);
  EXPECT_NEAR(optima[0], 63.0, 1e-9);
  EXPECT_NEAR(optima[1], 78.0, 1e-9);
  EXPECT_NEAR(optima[2], 150.0, 1e-9);

  serve::EngineOptions options = engine_options();
  options.solve.formulation = scheduler::Formulation::kTimeExpanded;
  serve::ServeEngine engine(options);
  const int threads = 6, per_thread = 6;
  const MixOutcome out = hammer(engine, problems, optima, threads, per_thread);
  EXPECT_EQ(out.unexpected_status, 0);
  EXPECT_EQ(out.wrong_objective, 0);
  EXPECT_EQ(out.ok + out.degraded, threads * per_thread);

  const runtime::ServingShard shard = engine.metrics().shard("solve");
  EXPECT_EQ(shard.requests, threads * per_thread);
  EXPECT_GT(shard.cache_hits, 0);
  EXPECT_EQ(shard.degraded, out.degraded);
  EXPECT_EQ(shard.errors, 0);
}

// ---------------------------------------------------------------------------
// Transports.

TEST(ServeServer, StdinBatchAnswersInInputOrder) {
  serve::ServeEngine engine(engine_options());
  serve::ServeServer server(engine, {});

  const ScheduleProblem p = casestudy::water_ions_problem(16384, 0.10);
  serve::ServeRequest ping;
  ping.op = serve::RequestOp::kPing;
  ping.id = "one";
  serve::ServeRequest metrics;
  metrics.op = serve::RequestOp::kMetrics;
  metrics.id = "four";

  std::istringstream in(serve::request_to_json(ping) + "\n" +
                        serve::request_to_json(solve_request(p, "two")) + "\n" +
                        serve::request_to_json(solve_request(p, "three")) + "\n" +
                        serve::request_to_json(metrics) + "\n");
  std::ostringstream out;
  EXPECT_EQ(server.run_stdin(in, out), 0);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<serve::ServeResponse> responses;
  while (std::getline(lines, line))
    if (!line.empty()) responses.push_back(serve::response_from_json(line));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].id, "one");
  EXPECT_EQ(responses[1].id, "two");
  EXPECT_EQ(responses[2].id, "three");
  EXPECT_EQ(responses[3].id, "four");
  EXPECT_EQ(responses[1].status, serve::ResponseStatus::kOk) << responses[1].message;
  EXPECT_EQ(responses[2].status, serve::ResponseStatus::kOk) << responses[2].message;
  // One of the two identical solves answered the other from cache or by
  // coalescing onto it.
  EXPECT_TRUE(responses[2].cache_hit || responses[2].coalesced || responses[1].cache_hit ||
              responses[1].coalesced);
  EXPECT_DOUBLE_EQ(responses[1].objective, responses[2].objective);
}

/// One-connection request/response against a live socket daemon.
std::string socket_round_trip(const std::string& path, const std::string& line) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  const std::string payload = line + "\n";
  EXPECT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  std::string response;
  char buffer[65536];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t eol = response.find('\n');
  return eol == std::string::npos ? response : response.substr(0, eol);
}

TEST(ServeServer, SocketEndToEnd) {
  const std::string path = format("/tmp/insched_test_serve_%ld.sock",
                                  static_cast<long>(::getpid()));
  serve::ServeEngine engine(engine_options());
  serve::ServerOptions options;
  options.socket_path = path;
  options.workers = 2;
  serve::ServeServer server(engine, options);

  int rc = -1;
  std::thread daemon([&server, &rc] { rc = server.run_socket(); });
  struct stat st{};
  for (int i = 0; i < 200 && ::stat(path.c_str(), &st) != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(::stat(path.c_str(), &st), 0) << "daemon never bound " << path;

  serve::ServeRequest ping;
  ping.op = serve::RequestOp::kPing;
  ping.id = "net-ping";
  const serve::ServeResponse pong =
      serve::response_from_json(socket_round_trip(path, serve::request_to_json(ping)));
  EXPECT_EQ(pong.id, "net-ping");
  EXPECT_EQ(pong.message, "pong");

  const ScheduleProblem p = casestudy::water_ions_problem(16384, 0.10);
  const serve::ServeResponse first = serve::response_from_json(
      socket_round_trip(path, serve::request_to_json(solve_request(p, "net-1"))));
  EXPECT_EQ(first.status, serve::ResponseStatus::kOk) << first.message;
  const serve::ServeResponse second = serve::response_from_json(socket_round_trip(
      path, serve::request_to_json(solve_request(reversed_and_renamed(p), "net-2"))));
  EXPECT_EQ(second.status, serve::ResponseStatus::kOk) << second.message;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.objective, first.objective);

  serve::ServeRequest shutdown;
  shutdown.op = serve::RequestOp::kShutdown;
  shutdown.id = "net-stop";
  const serve::ServeResponse ack =
      serve::response_from_json(socket_round_trip(path, serve::request_to_json(shutdown)));
  EXPECT_EQ(ack.id, "net-stop");
  daemon.join();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(::stat(path.c_str(), &st), 0);  // socket unlinked on clean exit
}

}  // namespace
