// sflowd — long-running federation daemon with online admission control.
//
//   sflowd --socket PATH --network-size N --seed S
//          [--services K] [--instances-per-service M]
//          [--algorithm sflow|optimal|fixed|random|path] [--floor F]
//          [--presolve-threads T] [--request-seed R]
//          [--max-queue-depth Q]
//          [--metrics PATH] [--metrics-format prom|json] [--journal PATH]
//       Builds the hosting scenario (server/hosting.hpp), listens on a unix
//       stream socket at PATH, and serves length-prefixed frames
//       (server/frame.hpp; wire format in docs/formats.md): `GET /metrics`
//       returns the Prometheus registry dump, `GET /catalog` the hosted
//       service inventory, and any other frame is a service requirement in
//       the overlay/requirement_parser.hpp text format, answered with an
//       admit/reject/error report (and the flow graph on admit).
//
//       SIGINT/SIGTERM shut down cleanly: stop accepting, drain every
//       request already read (each gets its response), then flush the final
//       metrics/journal dumps and print a serve summary.  The drain is what
//       makes a daemon restart lossless for connected clients.
//
//   sflowd --smoke [--clients K] [--requests R] [--seed S]
//       In-process self-test, no filesystem socket: K client threads drive
//       a live server over socketpairs with real concurrent traffic
//       (metrics scrapes interleaved with requirement frames), then the
//       admitted set is checked against the conservation oracle and the
//       whole served stream is replayed through run_admission_sequence —
//       exiting non-zero unless the daemon's decisions are bit-identical to
//       the sequential replay.  This is the TSan-load-bearing configuration
//       registered in ctest (sflowd_smoke).
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <poll.h>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "check/validate.hpp"
#include "core/admission.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "server/frame.hpp"
#include "server/hosting.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace {

using namespace sflow;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  sflowd --socket PATH --network-size N --seed S\n"
      "         [--services K] [--instances-per-service M]\n"
      "         [--algorithm sflow|optimal|fixed|random|path] [--floor F]\n"
      "         [--presolve-threads T] [--request-seed R]\n"
      "         [--max-queue-depth Q]\n"
      "         [--metrics PATH] [--metrics-format prom|json]\n"
      "         [--journal PATH]\n"
      "  sflowd --smoke [--clients K] [--requests R] [--seed S]\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  const std::set<std::string> boolean_flags = {"smoke"};
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
    const std::string name = key.substr(2);
    if (boolean_flags.contains(name)) {
      flags[name] = "1";
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    flags[name] = argv[++i];
  }
  return flags;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

long get_long(const std::map<std::string, std::string>& flags,
              const std::string& key, long fallback, bool required = false) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    if (required) usage("--" + key + " is required");
    return fallback;
  }
  try {
    return std::stol(it->second);
  } catch (const std::exception&) {
    usage("bad integer for --" + key + ": '" + it->second + "'");
  }
}

core::Algorithm algorithm_from_flag(const std::string& name) {
  if (name == "sflow") return core::Algorithm::kSflow;
  if (name == "optimal") return core::Algorithm::kGlobalOptimal;
  if (name == "fixed") return core::Algorithm::kFixed;
  if (name == "random") return core::Algorithm::kRandom;
  if (name == "path") return core::Algorithm::kServicePath;
  usage("unknown algorithm '" + name + "'");
}

void write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  out << content;
}

// ---------------------------------------------------------------------------
// Serve mode: signal-driven lifetime around a listening server.

// Async-signal-safe shutdown wake: the handler only write()s one byte.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_shutdown_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const std::string socket_path = get(flags, "socket", "");
  if (socket_path.empty()) usage("--socket is required");

  server::HostingConfig hosting;
  hosting.network_size = static_cast<std::size_t>(
      get_long(flags, "network-size", 0, /*required=*/true));
  hosting.service_count =
      static_cast<std::size_t>(get_long(flags, "services", 4));
  hosting.instances_per_service = static_cast<std::size_t>(
      get_long(flags, "instances-per-service", 3));
  hosting.seed =
      static_cast<std::uint64_t>(get_long(flags, "seed", 0, /*required=*/true));

  server::ServerConfig config;
  config.admission.algorithm =
      algorithm_from_flag(get(flags, "algorithm", "sflow"));
  config.seed = static_cast<std::uint64_t>(
      get_long(flags, "request-seed", static_cast<long>(hosting.seed)));
  config.presolve_threads = static_cast<std::size_t>(get_long(
      flags, "presolve-threads", static_cast<long>(config.presolve_threads)));
  config.max_queue_depth = static_cast<std::size_t>(get_long(
      flags, "max-queue-depth", static_cast<long>(config.max_queue_depth)));
  if (const std::string floor = get(flags, "floor", ""); !floor.empty()) {
    try {
      config.admission.bandwidth_floor = std::stod(floor);
    } catch (const std::exception&) {
      usage("bad number for --floor: '" + floor + "'");
    }
  }
  const std::string metrics_path = get(flags, "metrics", "");
  const std::string metrics_format = get(flags, "metrics-format", "prom");
  if (metrics_format != "prom" && metrics_format != "json")
    usage("bad --metrics-format '" + metrics_format + "' (want prom|json)");
  const std::string journal_path = get(flags, "journal", "");
  if (!journal_path.empty()) obs::EventJournal::global().set_enabled(true);

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "sflowd: error: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGPIPE, SIG_IGN);

  server::Server daemon(server::make_hosting_scenario(hosting), config);
  daemon.listen_unix(socket_path);
  std::cout << "sflowd: serving on " << socket_path << " ("
            << daemon.scenario().underlay.node_count() << " nodes, "
            << daemon.scenario().overlay().instance_count()
            << " service instances)\n";

  // Block until SIGINT/SIGTERM.
  for (;;) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, -1);
    if (rc > 0) break;
    if (rc < 0 && errno != EINTR) break;
  }
  std::cout << "sflowd: shutting down, draining in-flight requests\n";
  daemon.stop();

  // Final flushes: the registry dump and the journal survive the daemon.
  if (!metrics_path.empty()) {
    const auto snapshot = obs::Registry::global().snapshot();
    write_file(metrics_path, metrics_format == "json"
                                 ? obs::to_json(snapshot) + "\n"
                                 : obs::to_prometheus(snapshot));
  }
  if (!journal_path.empty())
    write_file(journal_path, obs::EventJournal::global().to_jsonl());

  std::size_t admitted = 0;
  for (const server::ServedRequest& served : daemon.history())
    admitted += served.decision.admitted ? 1 : 0;
  std::cout << "sflowd: served " << daemon.history().size() << " requests, "
            << admitted << " admitted, final generation "
            << daemon.view().generation() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Smoke mode: concurrent in-process clients + oracle + determinism replay.

/// One client's view of its conversation: everything it sent, everything it
/// got back, in order.
struct ClientLog {
  std::size_t responses = 0;
  std::size_t admitted = 0;
  std::size_t errors = 0;
  bool saw_metrics = false;
  bool saw_catalog = false;
};

ClientLog run_smoke_client(int fd, std::size_t client, std::size_t requests,
                           std::size_t service_count) {
  ClientLog log;
  std::string response;

  server::write_frame(fd, "GET /catalog");
  if (server::read_frame(fd, response))
    log.saw_catalog = response.rfind("service ", 0) == 0;

  for (std::size_t r = 0; r < requests; ++r) {
    // Chains of varying length over the hosted names, plus the occasional
    // malformed frame to exercise the error path under concurrency.
    if (r % 7 == 3) {
      server::write_frame(fd, "S0 -> NoSuchService");
      if (!server::read_frame(fd, response)) break;
      ++log.responses;
      if (response.rfind("status: error", 0) == 0) ++log.errors;
      continue;
    }
    std::ostringstream requirement;
    const std::size_t hops = 2 + (client + r) % (service_count - 1);
    for (std::size_t h = 0; h + 1 < hops; ++h)
      requirement << 'S' << (client + h) % service_count << " -> S"
                  << (client + h + 1) % service_count << '\n';
    server::write_frame(fd, requirement.str());
    if (!server::read_frame(fd, response)) break;
    ++log.responses;
    if (response.rfind("status: admitted", 0) == 0) ++log.admitted;

    if (r % 5 == 2) {  // interleave scrapes with requests
      server::write_frame(fd, "GET /metrics");
      if (!server::read_frame(fd, response)) break;
      log.saw_metrics =
          response.find("server_requests_total") != std::string::npos;
    }
  }
  return log;
}

int cmd_smoke(const std::map<std::string, std::string>& flags) {
  const auto clients =
      static_cast<std::size_t>(get_long(flags, "clients", 4));
  const auto requests =
      static_cast<std::size_t>(get_long(flags, "requests", 12));
  const auto seed =
      static_cast<std::uint64_t>(get_long(flags, "seed", 7));
  std::signal(SIGPIPE, SIG_IGN);

  server::HostingConfig hosting;
  hosting.network_size = 24;
  hosting.service_count = 4;
  hosting.instances_per_service = 3;
  hosting.seed = seed;

  server::ServerConfig config;
  config.seed = util::derive_seed(seed, 1);

  server::Server daemon(server::make_hosting_scenario(hosting), config);

  std::vector<int> client_fds;
  for (std::size_t c = 0; c < clients; ++c) {
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
      std::cerr << "sflowd --smoke: socketpair: " << std::strerror(errno)
                << "\n";
      return 1;
    }
    daemon.adopt_connection(pair[0]);
    client_fds.push_back(pair[1]);
  }

  std::vector<ClientLog> logs(clients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        logs[c] = run_smoke_client(client_fds[c], c, requests,
                                   hosting.service_count);
        ::shutdown(client_fds[c], SHUT_WR);  // tell the reader we are done
      });
    for (std::thread& t : threads) t.join();
  }
  daemon.stop();
  for (const int fd : client_fds) ::close(fd);

  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::cerr << "sflowd --smoke: FAIL: " << what << "\n";
    ++failures;
  };

  std::size_t responses = 0, admitted = 0, errors = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    responses += logs[c].responses;
    admitted += logs[c].admitted;
    errors += logs[c].errors;
    if (!logs[c].saw_catalog)
      fail("client " + std::to_string(c) + " got no catalog listing");
    if (!logs[c].saw_metrics)
      fail("client " + std::to_string(c) +
           " never saw server_requests_total in a metrics scrape");
  }
  if (responses != clients * requests)
    fail("expected " + std::to_string(clients * requests) + " responses, got " +
         std::to_string(responses));
  if (errors == 0) fail("the malformed frames produced no error responses");
  if (daemon.history().size() + errors != responses)
    fail("history (" + std::to_string(daemon.history().size()) +
         ") + errors (" + std::to_string(errors) +
         ") does not account for every response");

  // Oracle 1: the admitted set obeys capacity conservation on every overlay
  // and physical link.
  const check::ValidationReport conservation = check::validate_conservation(
      daemon.view().base(), daemon.scenario().underlay,
      daemon.scenario().routing.get(), daemon.view().admitted());
  if (!conservation.ok())
    fail("conservation oracle: " + conservation.to_string());

  // Oracle 2: determinism pin — the concurrent daemon's decisions are
  // bit-identical to a sequential FCFS replay of the same stream.
  std::vector<overlay::ServiceRequirement> stream;
  stream.reserve(daemon.history().size());
  for (const server::ServedRequest& served : daemon.history())
    stream.push_back(served.requirement);
  const core::AdmissionResult replay = core::run_admission_sequence(
      daemon.scenario(), stream, config.admission, config.seed);
  if (replay.decisions.size() != daemon.history().size()) {
    fail("replay size mismatch");
  } else {
    for (std::size_t i = 0; i < replay.decisions.size(); ++i) {
      const core::AdmissionDecision& live = daemon.history()[i].decision;
      const core::AdmissionDecision& seq = replay.decisions[i];
      if (live.admitted != seq.admitted || live.rate != seq.rate ||
          !live.outcome.deterministically_equal(seq.outcome)) {
        fail("request " + std::to_string(i) +
             " diverges from the sequential replay");
        break;
      }
    }
    if (daemon.view().generation() != replay.view.generation())
      fail("final view generation diverges from the replay");
  }

  if (failures > 0) return 1;
  std::cout << "sflowd --smoke: ok: " << clients << " clients, " << responses
            << " responses, " << admitted << " admitted, " << errors
            << " errors, replay bit-identical\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  try {
    if (get(flags, "smoke", "") == "1") return cmd_smoke(flags);
    return cmd_serve(flags);
  } catch (const std::exception& e) {
    std::cerr << "sflowd: error: " << e.what() << "\n";
    return 1;
  }
}
