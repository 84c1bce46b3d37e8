// sflowd — long-running federation daemon with online admission control.
//
//   sflowd --socket PATH --network-size N --seed S
//          [--services K] [--instances-per-service M]
//          [--algorithm sflow|optimal|fixed|random|path] [--floor F]
//          [--request-seed R] [--max-queue-depth Q]
//          [--metrics PATH] [--metrics-format prom|json] [--journal PATH]
//       Builds the hosting scenario (server/hosting.hpp), listens on a unix
//       stream socket at PATH, and serves length-prefixed frames
//       (server/frame.hpp; wire format in docs/formats.md): `GET /metrics`
//       returns the Prometheus registry dump, `GET /catalog` the hosted
//       service inventory, and any other frame is a service requirement in
//       the overlay/requirement_parser.hpp text format, answered with an
//       admit/reject/error report (and the flow graph on admit).
//
//       Requests are solved by the exact search (`optimal`, the default)
//       under its search-node budget (core/global_optimal.hpp);
//       --algorithm picks another solver, e.g. `sflow` for the simulated
//       distributed protocol.
//
//       SIGINT/SIGTERM shut down cleanly: stop accepting, drain every
//       request already read (each gets its response), then flush the final
//       metrics/journal dumps and print a serve summary.  The drain is what
//       makes a daemon restart lossless for connected clients.
//
//       Unknown flags and out-of-range values are usage errors (exit 2).
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <poll.h>
#include <set>
#include <string>
#include <unistd.h>

#include "core/admission.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "server/hosting.hpp"
#include "server/server.hpp"

namespace {

using namespace sflow;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  sflowd --socket PATH --network-size N --seed S\n"
      "         [--services K] [--instances-per-service M]\n"
      "         [--algorithm sflow|optimal|fixed|random|path] [--floor F]\n"
      "         [--request-seed R] [--max-queue-depth Q]\n"
      "         [--metrics PATH] [--metrics-format prom|json]\n"
      "         [--journal PATH]\n"
      "  --algorithm defaults to optimal (the exact search under its\n"
      "  search-node budget).\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  const std::set<std::string> known = {
      "socket", "network-size", "seed", "services", "instances-per-service",
      "algorithm", "floor", "request-seed", "max-queue-depth", "metrics",
      "metrics-format", "journal"};
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
    const std::string name = key.substr(2);
    if (!known.contains(name)) usage("unknown flag " + key);
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

/// The value of --key, or `fallback` when the flag is absent (no fallback:
/// the flag is required).  The whole token must parse as an integer no
/// smaller than `min`.
long get_long(const std::map<std::string, std::string>& flags,
              const std::string& key, std::optional<long> fallback,
              long min = std::numeric_limits<long>::min()) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    if (!fallback) usage("--" + key + " is required");
    return *fallback;
  }
  const std::string& text = it->second;
  long value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size())
    usage("bad integer for --" + key + ": '" + text + "'");
  if (value < min)
    usage("--" + key + " must be at least " + std::to_string(min));
  return value;
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
// Signal-driven lifetime around a listening server.

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
      get_long(flags, "network-size", std::nullopt, /*min=*/1));
  hosting.service_count = static_cast<std::size_t>(get_long(
      flags, "services", static_cast<long>(hosting.service_count), 1));
  hosting.instances_per_service = static_cast<std::size_t>(
      get_long(flags, "instances-per-service",
               static_cast<long>(hosting.instances_per_service), 1));
  hosting.seed =
      static_cast<std::uint64_t>(get_long(flags, "seed", std::nullopt));

  server::ServerConfig config;
  if (const auto it = flags.find("algorithm"); it != flags.end())
    config.admission.algorithm = algorithm_from_flag(it->second);
  config.seed = static_cast<std::uint64_t>(
      get_long(flags, "request-seed", static_cast<long>(hosting.seed)));
  config.max_queue_depth = static_cast<std::size_t>(get_long(
      flags, "max-queue-depth", static_cast<long>(config.max_queue_depth), 1));
  if (const auto it = flags.find("floor"); it != flags.end()) {
    const std::string& floor = it->second;
    double value = 0;
    const auto [end, error] =
        std::from_chars(floor.data(), floor.data() + floor.size(), value);
    if (error != std::errc() || end != floor.data() + floor.size() ||
        !std::isfinite(value) || value < 0)
      usage("bad --floor '" + floor + "' (want a finite number >= 0)");
    config.admission.bandwidth_floor = value;
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

  const std::uint64_t admitted =
      obs::Registry::global().counter("server_admitted_total").value();
  const std::uint64_t rejected =
      obs::Registry::global().counter("server_rejected_total").value();
  std::cout << "sflowd: served " << admitted + rejected << " requests, "
            << admitted << " admitted, final generation "
            << daemon.view().generation() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  try {
    return cmd_serve(flags);
  } catch (const std::exception& e) {
    std::cerr << "sflowd: error: " << e.what() << "\n";
    return 1;
  }
}
