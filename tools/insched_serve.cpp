// insched_serve — long-lived in-situ scheduling daemon (docs/SERVING.md).
//
// Serves ScheduleProblem solve requests over a Unix-domain socket (one JSON
// request per line, one JSON response per line), or in batch mode from
// stdin. Repeated and isomorphic instances are answered from a canonical
// solution cache; same-family instances share MILP warm-start state; each
// request's deadline rides the solver's graceful-degradation ladder, so an
// expired deadline yields a validated greedy schedule flagged degraded
// instead of an error.
//
//   insched_serve --socket PATH [options]
//   insched_serve --stdin [options]
//     --workers N        concurrent request handlers (default: all cores)
//     --solve-threads N  MIP worker threads per solve (default 1); with N > 1
//                        an answer may be a different optimal schedule of
//                        equal objective
//     --cache N          solution-cache capacity; 0 disables (default 256)
//     --deadline-ms N    default per-request deadline (default 120000)
//     --max-inflight N   admission bound on concurrent solves; 0 = unbounded
//                        (default 64)
//     --no-coalesce      solve identical concurrent requests independently
//     --time-expanded    default to the per-step 0-1 formulation
//
// Exit codes: 0 clean shutdown (op=shutdown request or end of stdin),
// 1 socket setup failure, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "insched/serve/engine.hpp"
#include "insched/serve/server.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --stdin) [--workers N] [--solve-threads N]\n"
               "          [--cache N] [--deadline-ms N] [--max-inflight N]\n"
               "          [--no-coalesce] [--time-expanded]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace insched;

  std::string socket_path;
  bool use_stdin = false;
  serve::EngineOptions engine_options;
  serve::ServerOptions server_options;
  engine_options.solve.mip.threads = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--workers" && i + 1 < argc) {
      server_options.workers = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--solve-threads" && i + 1 < argc) {
      engine_options.solve.mip.threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--cache" && i + 1 < argc) {
      const long capacity = std::strtol(argv[++i], nullptr, 10);
      engine_options.cache_enabled = capacity > 0;
      if (capacity > 0) engine_options.cache_capacity = static_cast<std::size_t>(capacity);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      engine_options.default_deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      engine_options.max_inflight = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--no-coalesce") {
      engine_options.coalesce_enabled = false;
    } else if (arg == "--time-expanded") {
      engine_options.solve.formulation = insched::scheduler::Formulation::kTimeExpanded;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (use_stdin == !socket_path.empty()) return usage(argv[0]);  // exactly one mode

  serve::ServeEngine engine(engine_options);
  server_options.socket_path = socket_path;
  serve::ServeServer server(engine, server_options);
  return use_stdin ? server.run_stdin(std::cin, std::cout) : server.run_socket();
}
