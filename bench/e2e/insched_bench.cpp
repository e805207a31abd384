// insched_bench — end-to-end benchmark of insched (bench/e2e/README.md).
//
// Runs one workload, checks every answer, and prints each metric by name
// with its unit. The last line of stdout is one JSON object with the keys
// correct / attempted / failed / metrics, where metrics holds the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   insched_bench --workload W --seed N --seconds S --trace 0|1
//                 --out DIR [--record FILE]
//
// Workloads (README.md says why each one exists):
//   plan-aggregate  closed loop over a seeded pool of 64 aggregate instances
//   plan-staircase  closed loop over steps=2000 water/rhodo staircase isomorphs
//   serve-mix       closed loop of JSON requests through the serving engine
//   reschedule      in-process warm re-solve loop on steps=2000 staircases
//
// Every workload runs in this one thread. The generator takes the seed; the
// library sees only the generated INI text, problems or JSON requests. Every
// MIP runs with threads=1.
//
// --trace 1 runs the same workload with every other batch of operations
// traced. Spans are recorded by this file around calls into public library
// functions (none inside the library), kept in memory, and written at exit
// as Chrome trace-event JSON to DIR/<workload>.trace.json. Per-layer values
// are medians per operation of span self time, or counts read from the
// returned structs.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "insched/casestudy/flash_sedov.hpp"
#include "insched/casestudy/lammps_rhodo.hpp"
#include "insched/casestudy/lammps_water.hpp"
#include "insched/lp/crash.hpp"
#include "insched/lp/simplex.hpp"
#include "insched/mip/branch_and_bound.hpp"
#include "insched/mip/cuts.hpp"
#include "insched/mip/heuristics.hpp"
#include "insched/mip/probing.hpp"
#include "insched/mip/resolve.hpp"
#include "insched/perfmodel/online.hpp"
#include "insched/replay/replay.hpp"
#include "insched/scheduler/aggregate_milp.hpp"
#include "insched/scheduler/lint.hpp"
#include "insched/scheduler/placement.hpp"
#include "insched/scheduler/problem_io.hpp"
#include "insched/scheduler/recommend.hpp"
#include "insched/scheduler/serialize.hpp"
#include "insched/scheduler/solver.hpp"
#include "insched/scheduler/timeexp_milp.hpp"
#include "insched/scheduler/validator.hpp"
#include "insched/serve/canonical.hpp"
#include "insched/serve/engine.hpp"
#include "insched/serve/protocol.hpp"
#include "insched/support/random.hpp"
#include "insched/support/string_util.hpp"

namespace {

using namespace insched;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}

// ---------------------------------------------------------------------------
// Statistics.

/// Quantile q in [0, 1], linearly interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

bool same_objective(double got, double want) {
  return std::abs(got - want) <= 1e-6 * (1.0 + std::abs(want));
}

// ---------------------------------------------------------------------------
// Tracing. The benchmark runs in one thread, so the recorder needs no
// locking.

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  int parent;  ///< index of the enclosing span, -1 at top level
  long op;     ///< operation id, -1 outside any operation
};

class Tracer {
 public:
  void arm(bool on) { armed_ = on; }
  [[nodiscard]] bool armed() const { return armed_; }

  int open(const char* name, long op) {
    if (op >= 0) op_ = op;
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), op_});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int index) {
    SpanRecord& s = spans_[static_cast<std::size_t>(index)];
    s.dur_ns = now_ns() - s.start_ns;
    open_.pop_back();
    if (open_.empty()) op_ = -1;
  }

  /// Self time (ns) per operation and span name: each span's duration minus
  /// the part its direct children cover.
  [[nodiscard]] std::map<long, std::map<std::string, double>> self_ns_by_op() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = static_cast<double>(spans_[i].dur_ns);
    for (const SpanRecord& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.dur_ns);
    std::map<long, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].op >= 0) out[spans_[i].op][spans_[i].name] += self[i];
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events), loadable in Perfetto.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const std::string name = s.name;
      const std::string cat = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":1,\"args\":{\"op\":%ld,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name, cat.c_str(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.dur_ns) * 1e-3, s.op, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool armed_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  long op_ = -1;
};

Tracer g_tracer;

/// Scoped span; a no-op (one branch) while the tracer is disarmed. Passing
/// an op id marks the span as the root of that operation.
class Span {
 public:
  explicit Span(const char* name, long op = -1)
      : index_(g_tracer.armed() ? g_tracer.open(name, op) : -1) {}
  ~Span() {
    if (index_ >= 0) g_tracer.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Metrics.

struct MetricDef {
  const char* name;
  const char* unit;
};

// Both lists must match BENCHMARK.json at the repository root.
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"}, {"throughput_ops_s", "1/s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"scheduler.parse_us", "us"},
    {"scheduler.lint_us", "us"},
    {"scheduler.build_ms", "ms"},
    {"scheduler.place_us", "us"},
    {"scheduler.validate_us", "us"},
    {"mip.solve_ms", "ms"},
    {"mip.nodes", "count"},
    {"mip.lp_iterations", "count"},
    {"mip.strong_branch_lps", "count"},
    {"mip.cuts_applied", "count"},
    {"mip.probing_ms", "ms"},
    {"mip.probing_implications", "count"},
    {"mip.conflict_graph_ms", "ms"},
    {"mip.conflict_edges", "count"},
    {"mip.cover_cuts_ms", "ms"},
    {"mip.mir_cuts_ms", "ms"},
    {"mip.clique_cuts_ms", "ms"},
    {"mip.greedy_fill_ms", "ms"},
    {"mip.resolve_basis_mapped_frac", "frac"},
    {"mip.resolve_cuts_reused_frac", "frac"},
    {"mip.resolve_cold_fallbacks", "count"},
    {"lp.root_relax_ms", "ms"},
    {"lp.crash_ms", "ms"},
    {"lp.eta_pivots", "count"},
    {"lp.refactorizations", "count"},
    {"lp.fill_ratio", "ratio"},
    {"lp.staircase_hit_rate", "frac"},
    {"replay.replay_us", "us"},
    {"replay.events", "count"},
    {"perfmodel.apply_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.engine_p50_ms", "ms"},
    {"serve.engine_p99_ms", "ms"},
    {"serve.canonicalize_us", "us"},
    {"serve.cache_hit_rate", "frac"},
    {"harness.trace_overhead_frac", "frac"},
    {"harness.unattributed_frac", "frac"},
};

struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;     ///< first few failure descriptions
  std::map<std::string, double> values;  ///< metric name -> value
  std::map<std::string, std::string> notes;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void set(const std::string& name, double value, std::string note = {}) {
    values[name] = value;
    if (!note.empty()) notes[name] = std::move(note);
  }
};

using SelfTimes = std::map<long, std::map<std::string, double>>;
using SpanMetrics = std::vector<std::pair<const char*, const char*>>;

double self_ns_of(const SelfTimes& self_ns, long op, const std::string& span) {
  const auto it = self_ns.find(op);
  if (it == self_ns.end()) return 0.0;
  const auto jt = it->second.find(span);
  return jt == it->second.end() ? 0.0 : jt->second;
}

/// Median over `ops` of each span's per-operation self time, in the metric's
/// unit (us or ms, by name suffix). Operations without the span count 0.
void set_layer_times(Report& report, const std::vector<long>& ops, const SelfTimes& self_ns,
                     const SpanMetrics& span_to_metric) {
  for (const auto& [span, metric] : span_to_metric) {
    std::vector<double> per_op;
    for (long op : ops) per_op.push_back(self_ns_of(self_ns, op, span));
    const std::string name = metric;
    const bool micros = name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0;
    report.set(name, median(per_op) * (micros ? 1e-3 : 1e-6));
  }
}

/// harness.trace_overhead_frac: traced over untraced median latency, minus 1.
/// harness.unattributed_frac: the median over traced operations of the
/// share of the operation's span that no stage span covers. It is measured
/// within each operation: set against the untraced median instead, it would
/// carry the run-to-run noise of a few multi-second staircase operations.
void set_harness_fractions(Report& report, const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms, const std::vector<long>& traced_ops,
                           const SelfTimes& self_ns) {
  std::vector<double> unattributed;
  for (long op : traced_ops) {
    const auto it = self_ns.find(op);
    if (it == self_ns.end() || it->second.count("op") == 0) continue;
    double total = 0.0;  // the self times of an operation's spans sum to its duration
    for (const auto& [name, ns] : it->second) total += ns;
    if (total > 0) unattributed.push_back(it->second.at("op") / total);
  }
  const double base = median(untraced_ms);
  report.set("harness.trace_overhead_frac", base > 0 ? median(traced_ms) / base - 1.0 : 0.0);
  report.set("harness.unattributed_frac", median(unattributed));
}

/// Best-of-repetitions timing. Every workload repeats one fixed sequence of
/// operations (its slots) for the whole run, and each repetition of a slot
/// does the same work. The run-to-run noise of the measurement host comes
/// from other tenants that slow every instruction for tens of milliseconds at
/// a time, so a slot's latency is its best over the repetitions: the slower
/// ones measure the tenants, not the program (the convention of Python's
/// timeit).
class BestOf {
 public:
  explicit BestOf(std::size_t slots) : best_(slots, std::nan("")), runs_(slots, 0) {}

  void add(std::size_t slot, double latency_ms) {
    double& b = best_[slot];
    b = std::isnan(b) ? latency_ms : std::min(b, latency_ms);
    ++runs_[slot];
  }

  /// The best latency of every slot that completed at least once.
  [[nodiscard]] std::vector<double> best_ms() const {
    std::vector<double> out;
    for (double b : best_)
      if (!std::isnan(b)) out.push_back(b);
    return out;
  }

  /// The fewest completed repetitions of any slot.
  [[nodiscard]] long repetitions() const {
    return runs_.empty() ? 0 : *std::min_element(runs_.begin(), runs_.end());
  }

 private:
  std::vector<double> best_;
  std::vector<long> runs_;
};

/// latency_p50_ms and latency_tail_ms over the slots' best latencies. The
/// tail is the p99 when at least ten slots lie beyond it, else the p90 on
/// the same condition, else the slowest slot.
void set_latency_metrics(Report& report, const BestOf& ops) {
  const std::vector<double> best = ops.best_ms();
  if (best.empty()) return;
  const std::size_t n = best.size();
  const double q = n >= 1000 ? 0.99 : n >= 100 ? 0.90 : 1.0;
  const std::string note =
      format("over %zu slots, each the best of >= %ld repetitions", n, ops.repetitions());
  report.set("latency_p50_ms", median(best), note);
  report.set("latency_tail_ms", quantile(best, q),
             format("%s %s", q == 1.0 ? "max" : q == 0.99 ? "p99" : "p90", note.c_str()));
}

/// throughput_ops_s of a closed loop with one client: one pass over the
/// slots at their best latencies.
void set_closed_loop_throughput(Report& report, const BestOf& ops) {
  const std::vector<double> best = ops.best_ms();
  double total_ms = 0.0;
  for (double b : best) total_ms += b;
  if (total_ms > 0)
    report.set("throughput_ops_s", static_cast<double>(best.size()) / (total_ms * 1e-3),
               format("one pass of %zu slots at their best latencies", best.size()));
}

/// Runs `setup` nine times and reports the median wall time as setup_s; a
/// setup of tens of milliseconds is easily hit by a burst of noise from other
/// tenants of the host.
void timed_setup(Report& report, const std::function<void()>& setup) {
  constexpr int kRepeats = 9;
  std::vector<double> s;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    setup();
    s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(s), format("median of %d", kRepeats));
}

double peak_rss_mb(const rusage& ru) {
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Problem generation shared by the workloads.

/// The steps-heavy staircase regime of bench/solver_perf.cpp: interval
/// steps/20, unbounded memory, weights scaled per case study.
scheduler::ScheduleProblem staircase(scheduler::ScheduleProblem p, long steps,
                                     double weight_scale) {
  p.steps = steps;
  p.mth = scheduler::kNoLimit;
  for (auto& a : p.analyses) {
    a.itv = std::max<long>(1, p.steps / 20);
    a.weight *= weight_scale;
  }
  return p;
}

constexpr long kStaircaseSteps = 2000;
constexpr double kWaterStaircaseOptimum = 67.0;  // BENCH_solver.json, steps=2000
constexpr double kRhodoStaircaseOptimum = 78.0;
constexpr double kRhodoUnscaledOptimum = 28.0;   // rhodo staircase at weight scale 1

scheduler::ScheduleProblem water_staircase(long steps) {
  return staircase(casestudy::water_ions_problem(16384, 0.08), steps, 1.0);
}

scheduler::ScheduleProblem rhodo_staircase(long steps, double weight_scale) {
  return staircase(casestudy::rhodopsin_problem(100.0), steps, weight_scale);
}

/// Renamed analyses; the optimum is unchanged.
scheduler::ScheduleProblem renamed(scheduler::ScheduleProblem p, Rng& rng) {
  const auto tag = static_cast<unsigned>(rng.uniform_index(1u << 20));
  for (std::size_t i = 0; i < p.analyses.size(); ++i)
    p.analyses[i].name = format("an%zu_%05x", i, tag);
  return p;
}

/// Isomorph: analyses permuted and renamed; the optimum is unchanged, but
/// the MILP's column order is not, and on the steps=2000 staircases the
/// solve time moves by up to ~20% with it. The staircase workloads
/// therefore only rename (the seed must not change how much work a run
/// does); serve-mix permutes, since canonicalization is what it exercises.
scheduler::ScheduleProblem isomorph(scheduler::ScheduleProblem p, Rng& rng) {
  for (std::size_t i = p.analyses.size(); i > 1; --i)
    std::swap(p.analyses[i - 1], p.analyses[rng.uniform_index(i)]);
  return renamed(std::move(p), rng);
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform_index(i)]);
  return order;
}

/// Stratified draw: slot k of n gets a value uniformly inside the k-th of n
/// equal bins of [lo, hi], so every seed covers the whole range evenly.
double stratified(Rng& rng, std::size_t k, std::size_t n, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(k) + rng.uniform()) / static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Standalone layer probes: the public MIP/LP building blocks that solve_mip
// runs internally, called once per distinct model so their cost can be read
// without spans inside the library. They see the model before presolve.

struct ProbeCounts {
  double implications = 0.0;
  double edges = 0.0;
};

ProbeCounts probe_model(const lp::Model& model, long op) {
  ProbeCounts counts;
  Span root("op", op);
  mip::ProbingResult probing;
  {
    Span s("mip.probing");
    probing = mip::probe_binaries(model);
  }
  counts.implications = static_cast<double>(probing.implications.size());
  mip::ConflictGraph graph(model.num_columns());
  {
    Span s("mip.conflict_graph");
    graph.build(model, probing.implications);
  }
  counts.edges = static_cast<double>(graph.edges());

  // The root LP the way solve_mip starts it: greedy_fill point, crash basis,
  // dual simplex. A cold solve_lp stands in only when the crash cannot.
  std::vector<double> point(static_cast<std::size_t>(model.num_columns()), 0.0);
  for (int j = 0; j < model.num_columns(); ++j)
    point[static_cast<std::size_t>(j)] =
        std::clamp(0.0, model.column(j).lower, model.column(j).upper);
  {
    Span s("mip.greedy_fill");
    (void)mip::greedy_fill(model, &point);
  }
  lp::SimplexResult root_lp;
  if (model.is_feasible(point, lp::tol::kResidualTol)) {
    lp::CrashResult crash;
    {
      Span s("lp.crash");
      crash = lp::crash_basis(model, point);
    }
    Span s("lp.root_relax");
    root_lp = lp::solve_lp_dual(model, crash.basis);
  }
  if (!root_lp.optimal()) {
    Span s("lp.root_relax");
    root_lp = lp::solve_lp(model);
  }
  if (!root_lp.optimal()) return counts;
  {
    Span s("mip.cover_cuts");
    (void)mip::generate_cover_cuts(model, root_lp.x);
  }
  {
    Span s("mip.mir_cuts");
    (void)mip::generate_mir_cuts(model, root_lp.x);
  }
  {
    Span s("mip.clique_cuts");
    (void)mip::generate_clique_cuts(model, root_lp.x, graph);
  }
  return counts;
}

const SpanMetrics kProbeSpans = {
    {"mip.probing", "mip.probing_ms"},     {"mip.conflict_graph", "mip.conflict_graph_ms"},
    {"mip.greedy_fill", "mip.greedy_fill_ms"}, {"lp.crash", "lp.crash_ms"},
    {"lp.root_relax", "lp.root_relax_ms"}, {"mip.cover_cuts", "mip.cover_cuts_ms"},
    {"mip.mir_cuts", "mip.mir_cuts_ms"},   {"mip.clique_cuts", "mip.clique_cuts_ms"},
};

/// Runs the probes on each model with tracing armed and reports the median
/// over models.
void run_probes(Report& report, const std::vector<lp::Model>& models) {
  static long next_op = 1000000000L;  // clear of every workload's op ids
  g_tracer.arm(true);
  std::vector<long> ops;
  std::vector<double> implications, edges;
  for (const lp::Model& model : models) {
    const long op = next_op++;
    const ProbeCounts c = probe_model(model, op);
    ops.push_back(op);
    implications.push_back(c.implications);
    edges.push_back(c.edges);
  }
  g_tracer.arm(false);
  set_layer_times(report, ops, g_tracer.self_ns_by_op(), kProbeSpans);
  report.set("mip.probing_implications", median(implications));
  report.set("mip.conflict_edges", median(edges));
}

/// Counters read from the MIP results of one traced operation.
struct MipTally {
  double nodes = 0, lp_iterations = 0, strong_branch_lps = 0, cuts_applied = 0;
  double eta_pivots = 0, refactorizations = 0, lu_in = 0, lu_out = 0;
  double staircase_orderings = 0, staircase_fallbacks = 0;

  void add(const mip::MipResult& r) {
    nodes += static_cast<double>(r.nodes);
    lp_iterations += static_cast<double>(r.lp_iterations);
    strong_branch_lps += static_cast<double>(r.counters.strong_branch_lps);
    cuts_applied += static_cast<double>(r.counters.cuts_applied);
    eta_pivots += static_cast<double>(r.counters.lp_eta_pivots);
    refactorizations += static_cast<double>(r.counters.lp_refactorizations);
    lu_in += static_cast<double>(r.counters.lp_lu_input_nnz);
    lu_out += static_cast<double>(r.counters.lp_lu_factor_nnz);
    staircase_orderings += static_cast<double>(r.counters.lp_staircase_orderings);
    staircase_fallbacks += static_cast<double>(r.counters.lp_staircase_fallbacks);
  }
};

void set_mip_counts(Report& report, const std::vector<MipTally>& tallies) {
  const auto med = [&](double (*field)(const MipTally&)) {
    std::vector<double> v;
    for (const MipTally& t : tallies) v.push_back(field(t));
    return median(v);
  };
  report.set("mip.nodes", med([](const MipTally& t) { return t.nodes; }));
  report.set("mip.lp_iterations", med([](const MipTally& t) { return t.lp_iterations; }));
  report.set("mip.strong_branch_lps", med([](const MipTally& t) { return t.strong_branch_lps; }));
  report.set("mip.cuts_applied", med([](const MipTally& t) { return t.cuts_applied; }));
  report.set("lp.eta_pivots", med([](const MipTally& t) { return t.eta_pivots; }));
  report.set("lp.refactorizations", med([](const MipTally& t) { return t.refactorizations; }));
  report.set("lp.fill_ratio",
             med([](const MipTally& t) { return t.lu_in > 0 ? t.lu_out / t.lu_in : 0.0; }));
  report.set("lp.staircase_hit_rate", med([](const MipTally& t) {
               const double n = t.staircase_orderings + t.staircase_fallbacks;
               return n > 0 ? t.staircase_orderings / n : 0.0;
             }));
}

// ---------------------------------------------------------------------------
// plan-aggregate / plan-staircase: INI text -> parse -> lint -> recommend ->
// replay, the path insched_plan runs.

struct PlanInstance {
  std::string ini;
  bool lexicographic = false;
  scheduler::Formulation formulation = scheduler::Formulation::kAggregate;
  double expected = std::nan("");  ///< objective to reproduce, when known
  std::string label;
  std::size_t slot = 0;  ///< instances with the same work share a slot
};

struct PlanResult {
  bool ok = false;
  std::string why;
  double objective = 0.0;
};

scheduler::SolveOptions plan_options(const PlanInstance& inst) {
  scheduler::SolveOptions options;
  options.formulation = inst.formulation;
  options.weight_mode = inst.lexicographic ? scheduler::WeightMode::kLexicographic
                                           : scheduler::WeightMode::kWeightedSum;
  options.mip.threads = 1;
  return options;
}

replay::ReplayOptions replay_options(long op) {
  replay::ReplayOptions options;
  options.seed = 1 + static_cast<std::uint64_t>(std::max(op, 0L));
  options.time_jitter = 0.05;
  options.memory_jitter = 0.05;
  return options;
}

/// insched_plan --lint: lint the instance, then the generated aggregate MILP.
scheduler::LintReport lint_plan(const scheduler::ScheduleProblem& p) {
  scheduler::LintReport lint = scheduler::lint_problem(p);
  if (!lint.has_errors())
    lint.merge(scheduler::lint_model(scheduler::build_aggregate_milp(p).model));
  return lint;
}

PlanResult check_plan(const PlanInstance& inst, bool proven, bool degraded,
                      const scheduler::ValidationReport& validation,
                      const replay::ReplayResult& replayed, double objective) {
  PlanResult r;
  r.objective = objective;
  if (!proven || degraded) {
    r.why = inst.label + ": not a proven-optimal MILP schedule";
  } else if (!validation.feasible) {
    r.why = inst.label + ": schedule fails validate_schedule";
  } else if (!replayed.sound()) {
    r.why = inst.label + ": replay unsound";
  } else if (!std::isnan(inst.expected) && !same_objective(objective, inst.expected)) {
    r.why = format("%s: objective %.6g, expected %.6g", inst.label.c_str(), objective,
                   inst.expected);
  } else {
    r.ok = true;
  }
  return r;
}

/// The untraced operation: exactly the calls an insched_plan user waits on.
PlanResult plan_op(const PlanInstance& inst, long op) {
  const scheduler::ScheduleProblem p = scheduler::problem_from_string(inst.ini);
  if (lint_plan(p).has_errors()) return {false, inst.label + ": lint errors", 0.0};
  const scheduler::Recommendation rec = scheduler::recommend(p, plan_options(inst));
  const scheduler::ScheduleSolution& s = rec.solution;
  if (!s.solved) return {false, inst.label + ": no schedule", 0.0};
  const replay::ReplayResult replayed = replay::replay_schedule(p, s.schedule, replay_options(op));
  return check_plan(inst, s.proven_optimal, s.degraded, s.validation, replayed, s.objective);
}

struct Decomposed {
  scheduler::Schedule schedule;
  bool solved = false;
  bool proven = false;
};

/// solve_schedule's path for a clean solve, rebuilt from public calls so
/// each stage gets a span: build -> solve_mip -> decode/place, once per
/// lexicographic tier (scheduler/solver.cpp).
Decomposed solve_decomposed(const scheduler::ScheduleProblem& p,
                            const scheduler::SolveOptions& options, MipTally& tally) {
  Decomposed out;
  if (options.formulation == scheduler::Formulation::kTimeExpanded) {
    scheduler::TimeExpandedModel built;
    {
      Span s("scheduler.build");
      built = scheduler::build_time_expanded_milp(p);
    }
    mip::MipResult res;
    {
      Span s("mip.solve");
      res = mip::solve_mip(built.model, options.mip);
    }
    tally.add(res);
    if (!res.has_solution) return out;
    Span s("scheduler.place");
    out.schedule = scheduler::decode_time_expanded(p, built, res.x);
    out.solved = true;
    out.proven = res.optimal();
    return out;
  }

  const bool lex = options.weight_mode == scheduler::WeightMode::kLexicographic;
  std::vector<double> tiers;
  for (const auto& a : p.analyses) tiers.push_back(a.weight);
  std::sort(tiers.begin(), tiers.end(), std::greater<>());
  tiers.erase(std::unique(tiers.begin(), tiers.end()), tiers.end());
  if (!lex) tiers.assign(1, 0.0);

  std::vector<std::optional<long>> fixed(p.size());
  for (double tier : tiers) {
    scheduler::ScheduleProblem sub = p;
    std::vector<std::optional<long>> sub_fixed = fixed;
    for (std::size_t i = 0; lex && i < p.size(); ++i) {
      if (fixed[i].has_value()) continue;
      if (p.analyses[i].weight == tier) sub.analyses[i].weight = 1.0;
      else sub_fixed[i] = 0;
    }
    scheduler::AggregateModel built;
    {
      Span s("scheduler.build");
      built = scheduler::build_aggregate_milp(sub, sub_fixed);
    }
    mip::MipResult res;
    {
      Span s("mip.solve");
      res = mip::solve_mip(built.model, options.mip);
    }
    tally.add(res);
    if (!res.has_solution) return out;
    Span s("scheduler.place");
    const scheduler::AggregateCounts counts = scheduler::decode_aggregate(built, res.x);
    out.schedule = scheduler::place(
        sub, scheduler::PlacementRequest{counts.analysis_counts, counts.output_counts});
    out.proven = res.optimal();
    for (std::size_t i = 0; i < p.size(); ++i)
      if (!fixed[i].has_value() && (!lex || p.analyses[i].weight == tier))
        fixed[i] = counts.analysis_counts[i];
  }
  out.solved = true;
  return out;
}

/// The traced operation: plan_op's work with a span per stage.
PlanResult plan_op_traced(const PlanInstance& inst, long op, MipTally& tally,
                          double& replay_events) {
  Span root("op", op);
  scheduler::ScheduleProblem p;
  {
    Span s("scheduler.parse");
    p = scheduler::problem_from_string(inst.ini);
  }
  {
    Span s("scheduler.lint");
    if (lint_plan(p).has_errors()) return {false, inst.label + ": lint errors", 0.0};
  }
  const Decomposed d = solve_decomposed(p, plan_options(inst), tally);
  if (!d.solved) return {false, inst.label + ": no schedule", 0.0};
  scheduler::ValidationReport validation;
  {
    Span s("scheduler.validate");
    validation = scheduler::validate_schedule(p, d.schedule);
  }
  replay::ReplayResult replayed;
  {
    Span s("replay.replay");
    replayed = replay::replay_schedule(p, d.schedule, replay_options(op));
  }
  replay_events = static_cast<double>(replayed.events);
  std::vector<double> weights;
  for (const auto& a : p.analyses) weights.push_back(a.weight);
  return check_plan(inst, d.proven, false, validation, replayed, d.schedule.objective(weights));
}

/// Closed loop, one client. Operation i runs pool[next(i)]; the loop stops
/// once `seconds` have passed and i is a multiple of `batch` (whole batches
/// keep a bimodal pool evenly sampled). In trace mode every other batch is
/// traced.
void run_plan_loop(Report& report, const std::vector<PlanInstance>& pool,
                   const std::function<std::size_t(long)>& next, double seconds, long batch,
                   bool trace) {
  std::vector<double> untraced_ms, traced_ms, events;
  std::vector<long> traced_ops;
  std::vector<MipTally> tallies;
  std::size_t slots = 0;
  for (const PlanInstance& inst : pool) slots = std::max(slots, inst.slot + 1);
  BestOf best(slots);
  const std::int64_t start = now_ns();
  for (long i = 0; i % batch != 0 || seconds_since(start) < seconds; ++i) {
    const PlanInstance& inst = pool[next(i)];
    const bool traced = trace && (i / batch) % 2 == 1;
    ++report.attempted;
    const std::int64_t t0 = now_ns();
    PlanResult r;
    MipTally tally;
    double replay_events = 0.0;
    try {
      g_tracer.arm(traced);
      r = traced ? plan_op_traced(inst, i, tally, replay_events) : plan_op(inst, i);
    } catch (const std::exception& e) {
      r = {false, inst.label + ": " + e.what(), 0.0};
    }
    g_tracer.arm(false);
    const std::int64_t t1 = now_ns();
    if (!r.ok) {
      report.fail(r.why);
      continue;
    }
    if (!traced) {
      untraced_ms.push_back(ms_between(t0, t1));
      best.add(inst.slot, untraced_ms.back());
      continue;
    }
    traced_ms.push_back(ms_between(t0, t1));
    traced_ops.push_back(i);
    tallies.push_back(tally);
    events.push_back(replay_events);
  }
  if (!trace) {
    set_latency_metrics(report, best);
    set_closed_loop_throughput(report, best);
    return;
  }
  const SelfTimes self_ns = g_tracer.self_ns_by_op();
  set_layer_times(report, traced_ops, self_ns,
                  {{"scheduler.parse", "scheduler.parse_us"},
                   {"scheduler.lint", "scheduler.lint_us"},
                   {"scheduler.build", "scheduler.build_ms"},
                   {"mip.solve", "mip.solve_ms"},
                   {"scheduler.place", "scheduler.place_us"},
                   {"scheduler.validate", "scheduler.validate_us"},
                   {"replay.replay", "replay.replay_us"}});
  set_mip_counts(report, tallies);
  report.set("replay.events", median(events));
  set_harness_fractions(report, untraced_ms, traced_ms, traced_ops, self_ns);
}

// -- plan-aggregate ----------------------------------------------------------

/// 64 instances from the three case-study constructors, stratified over
/// the budget ranges: 22 water (budget fraction 1-20%), 21 rhodopsin
/// (absolute budget 10-200 s), 21 FLASH (fraction 2-10%), each with drawn
/// weights; every third FLASH instance is solved with lexicographic (strict
/// priority) weights from integer tiers. Budgets and weights come from a
/// fixed draw: hardness is spiky in the budget (a rhodopsin budget of 100 s
/// needs a search tree, 106 s does not), and a per-seed draw moved p99 by 4x
/// and throughput by 30% between seeds. The run's seed renames every
/// analysis and, in the caller, orders the operations.
std::vector<PlanInstance> aggregate_pool(std::uint64_t seed) {
  constexpr std::uint64_t kCompositionSeed = 64;
  Rng rng(kCompositionSeed);
  Rng names(seed);
  std::vector<PlanInstance> pool;
  const auto add = [&](scheduler::ScheduleProblem p, bool reweigh, bool lex, std::string label) {
    if (reweigh)
      for (auto& a : p.analyses) a.weight = rng.uniform(0.5, 2.0);
    PlanInstance inst;
    inst.ini = scheduler::problem_to_config(renamed(std::move(p), names));
    inst.lexicographic = lex;
    inst.label = std::move(label);
    inst.slot = pool.size();
    pool.push_back(std::move(inst));
  };
  constexpr std::size_t kWater = 22, kRhodo = 21, kFlash = 21;
  for (std::size_t k = 0; k < kWater; ++k) {
    const double fraction = stratified(rng, k, kWater, 0.01, 0.20);
    add(casestudy::water_ions_problem(16384, fraction), true, false,
        format("water f=%.4f", fraction));
  }
  for (std::size_t k = 0; k < kRhodo; ++k) {
    const double budget = stratified(rng, k, kRhodo, 10.0, 200.0);
    add(casestudy::rhodopsin_problem(budget), true, false, format("rhodo b=%.2f", budget));
  }
  for (std::size_t k = 0; k < kFlash; ++k) {
    const double fraction = stratified(rng, k, kFlash, 0.02, 0.10);
    const bool lex = k % 3 == 2;
    std::array<double, 3> w{};
    for (double& x : w)
      x = lex ? static_cast<double>(rng.uniform_int(1, 3)) : rng.uniform(0.5, 2.0);
    add(casestudy::flash_problem(w, fraction), false, lex,
        format("flash%s f=%.4f", lex ? "-lex" : "", fraction));
  }
  return pool;
}

void run_plan_aggregate(Report& report, std::uint64_t seed, double seconds, bool trace) {
  std::vector<PlanInstance> pool;
  timed_setup(report, [&] {
    // Generate, then one untraced pass that warms the process and records
    // each instance's objective; every later solve must reproduce it.
    std::vector<PlanInstance> fresh = aggregate_pool(seed);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const PlanResult r = plan_op(fresh[i], -1);
      if (!r.ok) throw std::runtime_error("setup: " + r.why);
      fresh[i].expected = pool.empty() ? r.objective : pool[i].expected;
    }
    pool = std::move(fresh);
  });
  Rng rng(seed ^ 0x5eedULL);
  const std::vector<std::size_t> order = permutation(pool.size(), rng);
  // Whole passes over the pool: every instance is sampled equally, and in
  // trace mode traced and untraced passes cover the same instances.
  run_plan_loop(
      report, pool, [&](long i) { return order[static_cast<std::size_t>(i) % order.size()]; },
      seconds, static_cast<long>(pool.size()), trace);
  if (trace) {
    std::vector<lp::Model> models;
    for (const PlanInstance& inst : pool)
      models.push_back(
          scheduler::build_aggregate_milp(scheduler::problem_from_string(inst.ini)).model);
    run_probes(report, models);
  }
}

// -- plan-staircase -----------------------------------------------------------

/// 20 time-expanded instances at steps=2000, alternating water and rhodo,
/// each a seeded renaming of the bench/solver_perf.cpp staircase rows, so
/// the proven optima stay 67 / 78. A renaming leaves the MILP, and so the
/// work, unchanged: the instances form two slots, water and rhodo.
std::vector<PlanInstance> staircase_pool(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PlanInstance> pool;
  for (int i = 0; i < 20; ++i) {
    const bool water = i % 2 == 0;
    PlanInstance inst;
    inst.slot = water ? 0 : 1;
    inst.ini = scheduler::problem_to_config(renamed(
        water ? water_staircase(kStaircaseSteps) : rhodo_staircase(kStaircaseSteps, 3.0), rng));
    inst.formulation = scheduler::Formulation::kTimeExpanded;
    inst.expected = water ? kWaterStaircaseOptimum : kRhodoStaircaseOptimum;
    inst.label = format("%s staircase #%d", water ? "water" : "rhodo", i);
    pool.push_back(std::move(inst));
  }
  return pool;
}

void run_plan_staircase(Report& report, std::uint64_t seed, double seconds, bool trace) {
  std::vector<PlanInstance> pool;
  timed_setup(report, [&] {
    // Generate, then warm the process on the same models at steps=500,
    // where the optima are the 63 / 78 of the solver benches.
    pool = staircase_pool(seed);
    Rng rng(seed + 1);
    for (const auto& [problem, optimum] :
         {std::pair{water_staircase(500), 63.0}, std::pair{rhodo_staircase(500, 3.0), 78.0}}) {
      PlanInstance warm;
      warm.ini = scheduler::problem_to_config(renamed(problem, rng));
      warm.formulation = scheduler::Formulation::kTimeExpanded;
      warm.expected = optimum;
      warm.label = "steps=500 warm-up";
      const PlanResult r = plan_op(warm, -1);
      if (!r.ok) throw std::runtime_error("setup: " + r.why);
    }
  });
  // Whole water+rhodo pairs, so both models are always sampled evenly.
  run_plan_loop(
      report, pool, [&](long i) { return static_cast<std::size_t>(i) % pool.size(); }, seconds,
      2, trace);
  if (!trace) return;
  std::vector<lp::Model> models;
  for (std::size_t i = 0; i < 2; ++i)  // one water, one rhodo
    models.push_back(
        scheduler::build_time_expanded_milp(scheduler::problem_from_string(pool[i].ini)).model);
  run_probes(report, models);

  // The same probes on the steps=500 models: which layer grows faster than
  // the 4x in steps (exponent 1 = linear, 2 = quadratic)?
  Report small;
  run_probes(small, {scheduler::build_time_expanded_milp(water_staircase(500)).model,
                     scheduler::build_time_expanded_milp(rhodo_staircase(500, 3.0)).model});
  std::printf("steps scaling of the standalone probes (median of the water and rhodo models):\n");
  std::printf("  %-26s %12s %12s %9s %9s\n", "metric", "steps=500", "steps=2000", "ratio",
              "exponent");
  std::vector<const char*> metrics = {"mip.probing_implications", "mip.conflict_edges"};
  for (const auto& [span, metric] : kProbeSpans) metrics.push_back(metric);
  for (const char* metric : metrics) {
    const double a = small.values[metric], b = report.values[metric];
    const double ratio = a > 0 ? b / a : 0.0;
    std::printf("  %-26s %12.4g %12.4g %9.3g %9.3g\n", metric, a, b, ratio,
                ratio > 0 ? std::log(ratio) / std::log(4.0) : 0.0);
  }
}

// ---------------------------------------------------------------------------
// reschedule: the online loop of docs/ONLINE.md on steps=2000 staircases.

/// Seconds the steps in (from, to] of `schedule` cost under `p`: compute
/// and output of each analysis step there, plus setup and facilitation of
/// analyses that become (or stay) active.
double prefix_seconds(const scheduler::ScheduleProblem& p, const scheduler::Schedule& schedule,
                      long from, long to) {
  double spent = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    bool active_before = false, active_now = false;
    for (long j : schedule.analysis(i).analysis_steps) {
      if (j > to) break;
      active_now = true;
      if (j <= from) active_before = true;
      else spent += p.analyses[i].ct + p.output_time(i);
    }
    if (active_before) spent += p.analyses[i].it * static_cast<double>(to - from);
    else if (active_now) spent += p.analyses[i].ft + p.analyses[i].it * static_cast<double>(to);
  }
  return spent;
}

struct Session {
  std::string name;
  scheduler::ScheduleProblem base;     ///< predicted costs the plan started from
  scheduler::ScheduleProblem planned;  ///< costs the current schedule was solved with
  scheduler::Schedule schedule;
  mip::ReSolveContext ctx;
  std::shared_ptr<perfmodel::OnlineCostModel> costs;
  long completed = 0;  ///< executed steps
  double spent = 0.0;  ///< seconds charged for the executed prefix
  int ops = 0;
};

void restart(Session& s, const Session& initial) {
  s = initial;
  s.costs = std::make_shared<perfmodel::OnlineCostModel>();
  s.costs->set_reference(s.base);
}

struct ResolveTally {
  double warm = 0, mapped = 0, reused = 0, dropped = 0, cold = 0;

  void add_delta(const mip::ReSolveCounters& before, const mip::ReSolveCounters& after) {
    warm += static_cast<double>(after.warm_resolves - before.warm_resolves);
    mapped += static_cast<double>(after.basis_mapped - before.basis_mapped);
    reused += static_cast<double>(after.cuts_reused - before.cuts_reused);
    dropped += static_cast<double>(after.cuts_dropped - before.cuts_dropped);
    cold += static_cast<double>(after.cold_solves - before.cold_solves +
                                after.basis_skipped - before.basis_skipped);
  }
};

void run_reschedule(Report& report, std::uint64_t seed, double seconds, bool trace) {
  // Sessions alternate between the plan-staircase water model and the rhodo
  // staircase at weight scale 1. At plan-staircase's rhodo scale of 3 the
  // warm re-solve of a suffix-horizon model stalls at the MIP time limit
  // (README.md, known gaps): that would measure the limit, not the path.
  constexpr long kStep = kStaircaseSteps / 64;
  constexpr int kOpsPerSession = 15;
  mip::MipOptions options;
  options.threads = 1;
  Rng rng(seed);

  std::vector<Session> initial;
  std::vector<double> setup_s;
  for (const auto& [name, problem, optimum] :
       {std::tuple{"water", water_staircase(kStaircaseSteps), kWaterStaircaseOptimum},
        std::tuple{"rhodo", rhodo_staircase(kStaircaseSteps, 1.0), kRhodoUnscaledOptimum}}) {
    const std::int64_t t0 = now_ns();
    Session s;
    s.name = name;
    s.base = renamed(problem, rng);
    s.planned = s.base;
    const scheduler::TimeExpandedModel full = scheduler::build_time_expanded_milp(s.base);
    const mip::MipResult cold = s.ctx.solve(full.model, options);
    if (!cold.optimal() || !same_objective(cold.objective, optimum))
      throw std::runtime_error(format("setup: %s cold solve gave %.6g, expected %.6g", name,
                                      cold.objective, optimum));
    s.schedule = scheduler::decode_time_expanded(s.base, full, cold.x);
    initial.push_back(std::move(s));
    setup_s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(setup_s), "median over sessions");

  // Each session replays the same kOpsPerSession operations, with the same
  // drifts, from its cold-solved start, so every repetition of an operation
  // does the same work. The repetition count is fixed by --seconds (one per
  // 5 s: 120 operations at 20 s), not by speed: later operations fix a
  // longer prefix and are cheaper, so a time-bounded loop would hand a
  // faster build an easier mix of operations.
  const long repetitions = std::max(1L, std::lround(seconds / 5.0));
  const long total_ops = repetitions * kOpsPerSession * static_cast<long>(initial.size());
  std::vector<std::vector<double>> drifts(initial.size());
  for (std::vector<double>& d : drifts)
    for (int k = 0; k < kOpsPerSession; ++k) d.push_back(1.0 + 0.05 * rng.uniform(-1.0, 1.0));
  std::vector<Session> sessions(initial.size());
  for (std::size_t k = 0; k < initial.size(); ++k) restart(sessions[k], initial[k]);
  BestOf best(initial.size() * kOpsPerSession);
  std::vector<double> first_objective(initial.size() * kOpsPerSession, std::nan(""));

  struct StoredOp {
    lp::Model model;
    double warm_objective = 0.0;
    std::string label;
  };
  std::vector<StoredOp> stored;  // the last two operations of each session
  std::vector<double> untraced_ms, traced_ms;
  std::vector<long> traced_ops;
  std::vector<MipTally> tallies;
  ResolveTally resolve_tally;
  for (long i = 0; i < total_ops; ++i) {
    const std::size_t which = static_cast<std::size_t>(i) % sessions.size();
    Session& s = sessions[which];
    if (s.ops == kOpsPerSession) restart(s, initial[which]);  // next repetition
    const std::size_t slot = which * kOpsPerSession + static_cast<std::size_t>(s.ops);
    const bool traced = trace && (i / 2) % 2 == 1;
    const double drift = drifts[which][static_cast<std::size_t>(s.ops)];
    ++report.attempted;
    g_tracer.arm(traced);
    const std::int64_t t0 = now_ns();
    std::string why;
    MipTally tally;
    {
      Span root("op", i);
      // 1. Measured costs of the steps just executed: one coherent drift
      //    factor on every analysis's ct / ot / cm, folded into the EMA.
      scheduler::ScheduleProblem drifted;
      {
        Span span("perfmodel.apply");
        for (const auto& a : s.base.analyses) {
          perfmodel::CostSample sample;
          sample.ct = a.ct * drift;
          sample.ot = a.ot * drift;
          sample.cm = a.cm * drift;
          s.costs->observe(a.name, sample);
        }
        drifted = s.costs->apply(s.base);
      }
      // 2. Advance the executed prefix, charged at the costs it was planned
      //    with, and rebuild the remaining-horizon MILP.
      const long from = s.completed;
      s.completed = std::min(s.completed + kStep, s.base.steps);
      s.spent += prefix_seconds(s.planned, s.schedule, from, s.completed);
      scheduler::HorizonState state;
      state.completed = s.completed;
      state.spent_seconds = s.spent;
      state.analysis_steps.resize(s.base.size());
      state.output_steps.resize(s.base.size());
      for (std::size_t a = 0; a < s.base.size(); ++a) {
        for (long j : s.schedule.analysis(a).analysis_steps)
          if (j <= s.completed) state.analysis_steps[a].push_back(j);
        for (long j : s.schedule.analysis(a).output_steps)
          if (j <= s.completed) state.output_steps[a].push_back(j);
      }
      bool lint_ok = true;
      {
        Span span("scheduler.lint");
        lint_ok = !scheduler::lint_problem(drifted).has_errors();
      }
      scheduler::TimeExpandedModel suffix;
      {
        Span span("scheduler.build");
        suffix = scheduler::build_suffix_horizon_milp(drifted, state);
      }
      mip::MipResult res;
      {
        Span span("mip.solve");
        const mip::ReSolveCounters before = s.ctx.counters();
        res = s.ctx.resolve(suffix.model, options);
        resolve_tally.add_delta(before, s.ctx.counters());
      }
      tally.add(res);
      if (!lint_ok) {
        why = format("%s op %d: measured costs fail lint", s.name.c_str(), s.ops);
      } else if (!res.optimal()) {
        why = format("%s op %d: re-solve not proven optimal (%s)", s.name.c_str(), s.ops,
                     mip::to_string(res.termination));
      } else {
        scheduler::Schedule next;
        {
          Span span("scheduler.place");
          next = scheduler::decode_time_expanded(drifted, suffix, res.x);
        }
        // The suffix model's budget is time_budget() - spent; validating the
        // whole schedule at today's costs re-adds the executed prefix at
        // today's costs.
        scheduler::ScheduleProblem check = drifted;
        check.threshold_kind = scheduler::ThresholdKind::kTotalSeconds;
        check.threshold =
            drifted.time_budget() - s.spent + prefix_seconds(drifted, next, 0, s.completed);
        scheduler::ValidationReport validation;
        {
          Span span("scheduler.validate");
          validation = scheduler::validate_schedule(check, next);
        }
        double& first = first_objective[slot];
        if (std::isnan(first)) first = res.objective;
        if (!validation.feasible) {
          why = format("%s op %d: re-solved schedule fails validation", s.name.c_str(), s.ops);
        } else if (!same_objective(res.objective, first)) {
          why = format("%s op %d: objective %.6g, %.6g in the first repetition", s.name.c_str(),
                       s.ops, res.objective, first);
        } else {
          s.schedule = std::move(next);
          s.planned = drifted;
          if (i >= total_ops - 4)
            stored.push_back(
                {suffix.model, res.objective, format("%s op %d", s.name.c_str(), s.ops)});
        }
      }
    }
    g_tracer.arm(false);
    const std::int64_t t1 = now_ns();
    ++s.ops;
    if (!why.empty()) {
      report.fail(why);
      continue;
    }
    if (!traced) {
      untraced_ms.push_back(ms_between(t0, t1));
      best.add(slot, untraced_ms.back());
      continue;
    }
    traced_ms.push_back(ms_between(t0, t1));
    traced_ops.push_back(i);
    tallies.push_back(tally);
  }

  // Answer check: the stored warm re-solves must match cold solves.
  for (const StoredOp& op : stored) {
    const mip::MipResult cold = mip::solve_mip(op.model, options);
    if (!cold.optimal() || !same_objective(op.warm_objective, cold.objective))
      report.fail(format("%s: warm objective %.6g, cold %.6g", op.label.c_str(),
                         op.warm_objective, cold.objective));
  }

  if (!trace) {
    set_latency_metrics(report, best);
    set_closed_loop_throughput(report, best);
    return;
  }
  const SelfTimes self_ns = g_tracer.self_ns_by_op();
  set_layer_times(report, traced_ops, self_ns,
                  {{"perfmodel.apply", "perfmodel.apply_us"},
                   {"scheduler.lint", "scheduler.lint_us"},
                   {"scheduler.build", "scheduler.build_ms"},
                   {"mip.solve", "mip.solve_ms"},
                   {"scheduler.place", "scheduler.place_us"},
                   {"scheduler.validate", "scheduler.validate_us"}});
  set_mip_counts(report, tallies);
  set_harness_fractions(report, untraced_ms, traced_ms, traced_ops, self_ns);
  const ResolveTally& t = resolve_tally;
  report.set("mip.resolve_basis_mapped_frac", t.warm > 0 ? t.mapped / t.warm : 0.0);
  report.set("mip.resolve_cuts_reused_frac",
             t.reused + t.dropped > 0 ? t.reused / (t.reused + t.dropped) : 0.0);
  report.set("mip.resolve_cold_fallbacks", t.cold);

  std::vector<lp::Model> models;
  for (const Session& s : initial)
    models.push_back(scheduler::build_time_expanded_milp(s.base).model);
  run_probes(report, models);
}

// ---------------------------------------------------------------------------
// serve-mix: JSON request lines through the serving engine, in process.

enum class ReqKind { kRepeat, kIsomorph, kFresh };

/// One request of the replayed pattern.
struct Req {
  ReqKind kind = ReqKind::kRepeat;
  std::size_t base = 0;  ///< index into serve_bases()
  serve::ServeRequest request;
  double expected = 0.0;  ///< objective of the right answer
};

constexpr long kPatternRequests = 1000;  ///< the pattern replayed for the whole run
constexpr long kCheckEvery = 8;          ///< sampling of the costlier answer checks

/// The three paper case studies under the default aggregate formulation:
/// the interactive instances a daemon fields at high rate.
std::vector<scheduler::ScheduleProblem> serve_bases() {
  return {casestudy::water_ions_problem(16384, 0.10), casestudy::rhodopsin_problem(100.0),
          casestudy::flash_problem({2.0, 1.0, 2.0})};
}

scheduler::SolveOptions serve_reference_options() {
  scheduler::SolveOptions options;
  options.mip.threads = 1;
  return options;
}

/// kPatternRequests requests: 60% exact repeats, 30% isomorphs (permuted
/// and renamed) and 10% fresh variants (weights scaled by a unique factor:
/// same optimal counts, new cache key) of the serve_bases(). A fresh variant
/// is given a new factor before every replay, so every replay of the
/// pattern does the same work: the same cache hits and the same solves.
class ServeTraffic {
 public:
  explicit ServeTraffic(std::uint64_t seed) : bases_(serve_bases()), rng_(seed) {
    for (const auto& b : bases_) {
      const scheduler::ScheduleSolution reference =
          scheduler::solve_schedule(b, serve_reference_options());
      base_objectives_.push_back(reference.objective);
      base_schedules_.push_back(reference.schedule);
    }
    // A fixed composition in seeded order, each kind spread evenly over the
    // bases: with a draw per request, the seed would set how many rhodopsin
    // solves a pass does, which take a large share of the pass's time.
    const std::vector<std::size_t> order =
        permutation(static_cast<std::size_t>(kPatternRequests), rng_);
    for (std::size_t j = 0; j < order.size(); ++j) {
      const double position = static_cast<double>(order[j]) / static_cast<double>(order.size());
      Req r;
      r.base = order[j] % bases_.size();
      r.request.op = serve::RequestOp::kSolve;
      r.request.id = format("q%zu", j);
      r.expected = base_objectives_[r.base];
      if (position >= 0.90) {
        r.kind = ReqKind::kFresh;
        freshen(r);
      } else if (position >= 0.60) {
        r.kind = ReqKind::kIsomorph;
        r.request.problem = isomorph(bases_[r.base], rng_);
      } else {
        r.request.problem = bases_[r.base];
      }
      reqs_.push_back(std::move(r));
    }
  }

  [[nodiscard]] const std::vector<scheduler::ScheduleProblem>& bases() const { return bases_; }
  [[nodiscard]] double base_objective(std::size_t b) const { return base_objectives_[b]; }

  /// Request `slot` of the pattern; a fresh variant gets a new factor when
  /// `replay` asks for one.
  const Req& at(long slot, bool replay) {
    Req& r = reqs_[static_cast<std::size_t>(slot)];
    if (replay && r.kind == ReqKind::kFresh) freshen(r);
    return r;
  }

 private:
  void freshen(Req& r) {
    r.request.problem = bases_[r.base];
    // Small enough to leave the optimal counts (and so the solve's work)
    // alone, large enough for the 12 significant digits of the canonical
    // key. The objective's |A| term does not scale with the weights.
    const double scale = 1.0 + 1e-8 * (static_cast<double>(++fresh_) + rng_.uniform());
    std::vector<double> weights;
    for (auto& a : r.request.problem.analyses) weights.push_back(a.weight *= scale);
    r.expected = base_schedules_[r.base].objective(weights);
  }

  std::vector<scheduler::ScheduleProblem> bases_;
  std::vector<double> base_objectives_;  ///< in-process solve_schedule references
  std::vector<scheduler::Schedule> base_schedules_;
  std::vector<Req> reqs_;
  Rng rng_;
  long fresh_ = 0;
};

/// The engine as insched_serve configures it.
serve::EngineOptions serve_engine_options() {
  serve::EngineOptions options;
  options.solve.mip.threads = 1;
  return options;
}

/// The daemon's handling of one request line, with the client's encoding
/// and decoding around it: encode -> parse -> ServeEngine::handle -> encode
/// -> decode.
serve::ServeResponse serve_op(serve::ServeEngine& engine, const serve::ServeRequest& request,
                              long op) {
  Span root("op", op);
  std::string line;
  {
    Span s("serve.encode");
    line = serve::request_to_json(request);
  }
  serve::ServeRequest parsed;
  {
    Span s("serve.decode");
    parsed = serve::request_from_json(line);
  }
  serve::ServeResponse answer;
  {
    Span s("serve.engine");
    answer = engine.handle(parsed);
  }
  {
    Span s("serve.encode");
    line = serve::response_to_json(answer);
  }
  Span s("serve.decode");
  return serve::response_from_json(line);
}

/// Empty when the answer to `r` is right, else why not. Every answer must
/// be ok and carry the expected objective: the base's in-process
/// solve_schedule reference for repeats and isomorphs, and the reference
/// schedule's objective under the variant's weights for fresh variants.
/// Every kCheckEvery-th fresh variant is also solved in-process, and the
/// schedule of every kCheckEvery-th answer must pass validate_schedule and
/// replay soundly.
std::string check_answer(const Req& r, const serve::ServeResponse& response, long op,
                         long& fresh_seen) {
  if (response.status != serve::ResponseStatus::kOk)
    return format("%s: status %s", r.request.id.c_str(), serve::to_string(response.status));
  double expected = r.expected;
  if (r.kind == ReqKind::kFresh && ++fresh_seen % kCheckEvery == 0)
    expected = scheduler::solve_schedule(r.request.problem, serve_reference_options()).objective;
  if (!same_objective(response.objective, expected))
    return format("%s: objective %.10g, expected %.10g", r.request.id.c_str(),
                  response.objective, expected);
  if (op % kCheckEvery != 0) return {};
  const std::string& json = response.solution_json;
  const std::size_t at = json.find("\"schedule\":");
  if (at == std::string::npos) return r.request.id + ": answer has no schedule";
  const std::size_t from = at + std::strlen("\"schedule\":");
  const scheduler::Schedule schedule =
      scheduler::schedule_from_json(json.substr(from, json.size() - 1 - from));
  if (!scheduler::validate_schedule(r.request.problem, schedule).feasible)
    return r.request.id + ": schedule fails validate_schedule";
  if (!replay::replay_schedule(r.request.problem, schedule, replay_options(0)).sound())
    return r.request.id + ": replay unsound";
  return {};
}

/// Closed loop, one client, whole replays of the pattern until `seconds`
/// pass. In trace mode every other replay is traced.
void run_serve_mix(Report& report, std::uint64_t seed, double seconds, bool trace) {
  std::optional<ServeTraffic> traffic;
  std::unique_ptr<serve::ServeEngine> engine;
  timed_setup(report, [&] {
    // Generate the traffic and the base references, start an engine, and
    // warm its cache with the base problems.
    traffic.emplace(seed);
    engine = std::make_unique<serve::ServeEngine>(serve_engine_options());
    for (std::size_t b = 0; b < traffic->bases().size(); ++b) {
      serve::ServeRequest warm;
      warm.id = format("warm%zu", b);
      warm.problem = traffic->bases()[b];
      const serve::ServeResponse r = serve_op(*engine, warm, -1);
      if (r.status != serve::ResponseStatus::kOk ||
          !same_objective(r.objective, traffic->base_objective(b)))
        throw std::runtime_error("setup: engine warm-up answered wrong");
    }
  });

  BestOf best(static_cast<std::size_t>(kPatternRequests));
  std::vector<double> untraced_ms, traced_ms, engine_ms;
  std::vector<long> traced_ops;
  long answered = 0, cache_hits = 0, fresh_seen = 0;
  const std::int64_t start = now_ns();
  for (long i = 0; i % kPatternRequests != 0 || seconds_since(start) < seconds; ++i) {
    const long slot = i % kPatternRequests;
    const Req& r = traffic->at(slot, i >= kPatternRequests);
    const bool traced = trace && (i / kPatternRequests) % 2 == 1;
    ++report.attempted;
    std::string why;
    g_tracer.arm(traced);
    const std::int64_t t0 = now_ns();
    serve::ServeResponse response;
    try {
      response = serve_op(*engine, r.request, i);
    } catch (const std::exception& e) {
      why = r.request.id + ": " + e.what();
    }
    g_tracer.arm(false);
    const std::int64_t t1 = now_ns();
    if (why.empty()) {
      ++answered;
      cache_hits += response.cache_hit ? 1 : 0;
      try {
        why = check_answer(r, response, i, fresh_seen);
      } catch (const std::exception& e) {
        why = r.request.id + ": " + e.what();
      }
    }
    if (!why.empty()) {
      report.fail(why);
      continue;
    }
    if (!traced) {
      untraced_ms.push_back(ms_between(t0, t1));
      best.add(static_cast<std::size_t>(slot), untraced_ms.back());
      continue;
    }
    traced_ms.push_back(ms_between(t0, t1));
    traced_ops.push_back(i);
    engine_ms.push_back(response.latency_ms);
  }

  if (!trace) {
    set_latency_metrics(report, best);
    set_closed_loop_throughput(report, best);
    return;
  }
  const SelfTimes self_ns = g_tracer.self_ns_by_op();
  set_layer_times(report, traced_ops, self_ns,
                  {{"serve.encode", "serve.encode_us"}, {"serve.decode", "serve.decode_us"}});
  report.set("serve.engine_p50_ms", quantile(engine_ms, 0.50));
  report.set("serve.engine_p99_ms", quantile(engine_ms, 0.99));
  std::vector<double> canon_us;
  for (long j = 0; j < std::min(kPatternRequests, 512L); ++j) {
    const std::int64_t t0 = now_ns();
    const serve::CanonicalInstance canon =
        serve::canonicalize(traffic->at(j, false).request.problem);
    canon_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (canon.key.empty()) report.fail("empty canonical key");
  }
  report.set("serve.canonicalize_us", median(canon_us));
  report.set("serve.cache_hit_rate",
             answered > 0 ? static_cast<double>(cache_hits) / static_cast<double>(answered) : 0.0);
  set_harness_fractions(report, untraced_ms, traced_ms, traced_ops, self_ns);
}

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string record;  ///< append the result line, tagged, to this file
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload plan-aggregate|plan-staircase|serve-mix|reschedule\n"
               "          [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--record FILE]\n",
               argv0);
  return 2;
}

std::string json_number(double v) { return format("%.17g", v); }

std::string result_json(const Report& report, bool trace) {
  std::string metrics;
  const auto emit = [&](const MetricDef& def) {
    const auto it = report.values.find(def.name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    metrics += format("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", metrics.empty() ? "" : ",",
                      def.name, json_number(value).c_str(), def.unit);
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  return format("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{%s}}",
                report.failed == 0 ? "true" : "false", std::max(report.attempted, 1L),
                report.failed, metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--out") opt.out_dir = value();
      else if (arg == "--record") opt.record = value();
      else return usage(argv[0]);
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0) return usage(argv[0]);

  Report report;
  try {
    if (opt.workload == "plan-aggregate") {
      run_plan_aggregate(report, opt.seed, opt.seconds, opt.trace);
    } else if (opt.workload == "plan-staircase") {
      run_plan_staircase(report, opt.seed, opt.seconds, opt.trace);
    } else if (opt.workload == "serve-mix") {
      run_serve_mix(report, opt.seed, opt.seconds, opt.trace);
    } else if (opt.workload == "reschedule") {
      run_reschedule(report, opt.seed, opt.seconds, opt.trace);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 3;  // the run did not complete: no result line
  }
  if (!opt.trace && report.values.count("peak_rss_mb") == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    report.set("peak_rss_mb", peak_rss_mb(ru), "benchmark process");
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/" + opt.workload + ".trace.json";
    if (g_tracer.write_chrome_json(path)) std::printf("trace: %s\n", path.c_str());
    else report.fail("cannot write " + path);
  }

  for (auto& [name, value] : report.values) {
    if (std::isfinite(value)) continue;
    report.fail(name + " is not finite");
    value = 0.0;
  }

  std::printf("%s seed=%llu seconds=%g trace=%d: %ld attempted, %ld failed (fail_frac %.6g)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, std::max(report.attempted, 1L), report.failed,
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max(report.attempted, 1L)));
  for (const std::string& why : report.failures) std::printf("  FAILED %s\n", why.c_str());
  const auto print = [&](const MetricDef& def) {
    const auto it = report.values.find(def.name);
    const auto note = report.notes.find(def.name);
    std::printf("  %-32s %14.6g %-6s %s\n", def.name,
                it == report.values.end() ? 0.0 : it->second, def.unit,
                note == report.notes.end() ? "" : ("(" + note->second + ")").c_str());
  };
  if (opt.trace) {
    for (const MetricDef& def : kPerLayer) print(def);
  } else {
    for (const MetricDef& def : kEndToEnd) print(def);
  }
  const std::string line = result_json(report, opt.trace);
  if (!opt.record.empty()) {
    if (FILE* f = std::fopen(opt.record.c_str(), "a")) {
      std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"result\":%s}\n",
                   opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                   opt.trace ? 1 : 0, line.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", line.c_str());
  return report.failed == 0 ? 0 : 1;
}
