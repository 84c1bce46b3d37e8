// sflowbench — drives `sflowd` through one workload and prints one JSON
// result line (README.md in this directory).
//
//   sflowbench --list
//   sflowbench --workload NAME --seed N --seconds S --trace 0|1
//              --sflowd PATH [--run-dir DIR] [--git-sha SHA]
//              [--source-sha SHA] [--sessions K] [--closed-requests N]
//              [--open-samples N]
//
// Exit status: 0 with a result line; 1 when the correctness gate fails
// (the result line then says "correct": false) or the run breaks; 2 on a
// usage error.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/rng.hpp"

#ifndef SFLOWBENCH_BUILD_TYPE
#define SFLOWBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SFLOWBENCH_COMPILER
#define SFLOWBENCH_COMPILER "unknown"
#endif

namespace {

using namespace sflowbench;
using sflow::util::Accumulator;

/// Frames one closed-phase connection keeps in flight (one per core of the
/// 4-core host the benchmark was defined on).
constexpr std::size_t kClosedWindow = 4;
/// Connections the open phase spreads its arrivals over.
constexpr std::size_t kOpenConnections = 4;
/// Daemon spawns per run that setup_s takes its median over.
constexpr std::size_t kMinSetupSamples = 5;
/// Threads replaying closed sessions for the correctness gate.
constexpr std::size_t kGateThreads = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string sflowd;
  std::string run_dir = ".bench_run";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  /// Requests per latency window: a p99 with ten samples beyond it.
  long open_samples = 1000;
  long closed_requests = -1;
  long sessions = -1;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "sflowbench: " << message
            << "\nusage: sflowbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --sflowd PATH [--run-dir DIR] [--git-sha SHA] "
               "[--source-sha SHA] [--sessions K] [--closed-requests N] "
               "[--open-samples N]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = std::stoi(value);
      else if (key == "--sflowd") options.sflowd = value;
      else if (key == "--run-dir") options.run_dir = value;
      else if (key == "--git-sha") options.git_sha = value;
      else if (key == "--source-sha") options.source_sha = value;
      else if (key == "--closed-requests") options.closed_requests = std::stol(value);
      else if (key == "--open-samples") options.open_samples = std::stol(value);
      else if (key == "--sessions") options.sessions = std::stol(value);
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": '" + value + "'");
    }
  }
  if (options.workload.empty() || options.sflowd.empty() ||
      !(options.seconds > 0) || (options.trace != 0 && options.trace != 1))
    usage("--workload, --seed, --seconds, --trace and --sflowd are required");
  // sflowd parses --request-seed as a signed long.
  if (options.seed > 0x7fffffffffffffffULL) usage("--seed too large");
  return options;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value;
  std::string unit;
};

/// Unit of a per-layer metric, from its name.
std::string unit_of(const std::string& name) {
  const auto has = [&name](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (has("_ms_per_admit")) return "ms/admit";
  if (has("_per_admit")) return "count/admit";
  if (has("_us_per_req")) return "us/req";
  if (has("_per_req")) return "count/req";
  if (has("us_p") || has("_us")) return "us";
  if (has("_ms")) return "ms";
  if (has("bytes")) return "bytes";
  if (has("share") || has("ratio")) return "ratio";
  if (has("batch_size") || has("inflight")) return "req";
  return "count";
}

/// One session: a fresh daemon serves the closed phase over the first
/// closed_requests frames of the session's stream, then the open phase over
/// the rest, so the open phase meets a daemon whose overlay has filled.
struct Session {
  std::vector<std::string> stream;
  ClosedResult closed;
  OpenResult open;
  Scrape closed_metrics, open_metrics;  // /metrics deltas of each phase
  double rss_mb = 0.0;
  double queue_peak = 0.0;  // the daemon's queue high-water mark at the end
};

double metric(const Scrape& scrape, const std::string& name) {
  const auto it = scrape.find(name);
  return it == scrape.end() ? 0.0 : it->second;
}

Scrape deltas(const Scrape& before, const Scrape& after) {
  Scrape out;
  for (const auto& [name, value] : after) out[name] = delta(before, after, name);
  return out;
}

Session run_session(const Options& options, const Workload& workload,
                    const std::string& socket, std::size_t index,
                    double open_s, Accumulator& setup_s,
                    const std::string& expected_catalog) {
  const std::vector<double> schedule =
      open_s > 0 ? poisson_schedule(
                       workload.open_rate_rps, open_s,
                       sflow::util::derive_seed(options.seed, 0x6f70656e + index))
                 : std::vector<double>{};
  Session session;
  Daemon daemon(options.sflowd, workload, options.seed, socket);
  setup_s.add(daemon.setup_s());
  if (daemon.catalog() != expected_catalog)
    throw std::runtime_error(
        "sflowd's catalog differs from make_hosting_scenario's");
  session.stream = make_stream(
      workload, parse_catalog(daemon.catalog()),
      sflow::util::derive_seed(options.seed, index),
      workload.closed_requests + schedule.size());
  const std::span<const std::string> frames(session.stream);
  const Scrape start = daemon.scrape();
  session.closed = run_closed(daemon, frames.first(workload.closed_requests),
                              kClosedWindow);
  const Scrape filled = daemon.scrape();
  session.rss_mb = daemon.peak_rss_mb();
  session.open = run_open(daemon, frames.subspan(workload.closed_requests),
                          schedule, kOpenConnections);
  const Scrape end = daemon.scrape();
  daemon.stop();
  session.queue_peak = metric(end, "server_queue_depth_peak_total");
  session.closed_metrics = deltas(start, filled);
  session.open_metrics = deltas(filled, end);
  return session;
}

/// The session's frames and responses in the daemon's sequence order: the
/// closed phase as sent, then the open phase ordered by the sequence number
/// each response carries.  Sets `failure` when an open request got no
/// decision.
struct Served {
  std::vector<std::string> frames;
  std::vector<Response> responses;
  std::string failure;
};

Served served_order(const Session& session) {
  Served served;
  const std::size_t closed = session.closed.responses.size();
  served.frames.assign(session.stream.begin(), session.stream.begin() + closed);
  served.responses = session.closed.responses;
  std::vector<std::pair<unsigned long long, std::size_t>> open;
  for (std::size_t i = 0; i < session.open.responses.size(); ++i) {
    const Response& response = session.open.responses[i];
    if (response.sequence.empty()) {
      served.failure = "open request " + std::to_string(i) + " got " +
                       response.status + ", not a decision";
      return served;
    }
    open.emplace_back(std::stoull(response.sequence), i);
  }
  std::sort(open.begin(), open.end());
  for (const auto& [sequence, i] : open) {
    served.frames.push_back(session.stream[closed + i]);
    served.responses.push_back(session.open.responses[i]);
  }
  return served;
}

int run(const Options& options) {
  const Clock::time_point run_start = Clock::now();
  const Workload* found = find_workload(options.workload);
  if (found == nullptr) usage("unknown workload '" + options.workload + "'");
  Workload workload = *found;
  if (options.closed_requests > 0)
    workload.closed_requests = static_cast<std::size_t>(options.closed_requests);
  if (options.sessions > 0)
    workload.sessions = static_cast<std::size_t>(options.sessions);
  const bool traced = options.trace == 1;
  // The traced run needs one session: the replica replays it.
  const std::size_t sessions = traced ? 1 : workload.sessions;
  const std::size_t open_sessions =
      std::min(traced ? 1 : workload.open_sessions, sessions);
  // Half the measured time goes to the open phases, each long enough for a
  // full latency window even when Poisson arrivals run short.
  const double open_s = std::max(
      options.seconds / 2.0 / static_cast<double>(open_sessions),
      1.2 * static_cast<double>(options.open_samples) / workload.open_rate_rps);

  ::mkdir(options.run_dir.c_str(), 0755);
  const std::string socket =
      options.run_dir + "/sflowd-" + std::to_string(::getpid()) + ".sock";

  // The gate's scenario, built from the same flags the daemon gets.
  sflow::core::Scenario scenario =
      sflow::server::make_hosting_scenario(hosting_config(workload));
  const std::string catalog = sflow::server::catalog_listing(scenario);

  Accumulator setup_s;
  std::vector<Session> runs;
  for (std::size_t s = 0; s < sessions; ++s)
    runs.push_back(run_session(options, workload, socket, s,
                               s < open_sessions ? open_s : 0.0, setup_s,
                               catalog));
  while (setup_s.count() < kMinSetupSamples) {
    Daemon daemon(options.sflowd, workload, options.seed, socket);
    setup_s.add(daemon.setup_s());
    daemon.stop();
  }

  // Correctness gate, outside the timed phases: every session's served
  // stream against a sequential replay.  When the workload does not fix the
  // algorithm, the first session identifies it; the sessions replay in
  // parallel, each worker on its own scenario.
  std::vector<Served> served;
  for (const Session& session : runs) served.push_back(served_order(session));
  std::string algorithm = workload.algorithm;
  std::vector<GateResult> gates(runs.size());
  const auto gate = [&](std::size_t s, sflow::core::Scenario& on,
                        std::string& name) {
    if (!served[s].failure.empty()) {
      gates[s].failure = served[s].failure;
      return;
    }
    try {
      gates[s] = check_served(on, served[s].frames, served[s].responses,
                              options.seed, runs[s].closed_metrics, name);
    } catch (const std::exception& e) {
      gates[s].failure = std::string("replay threw: ") + e.what();
    }
  };
  std::atomic<std::size_t> next_gate{0};
  if (algorithm.empty()) gate(next_gate++, scenario, algorithm);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kGateThreads && !algorithm.empty(); ++t)
    workers.emplace_back([&] {
      sflow::core::Scenario own =
          sflow::server::make_hosting_scenario(hosting_config(workload));
      std::string name = algorithm;
      for (std::size_t s; (s = next_gate++) < runs.size();) gate(s, own, name);
    });
  for (std::thread& worker : workers) worker.join();
  std::string failure;
  for (std::size_t s = 0; s < gates.size() && failure.empty(); ++s)
    if (!gates[s].failure.empty())
      failure = "session " + std::to_string(s) + ": " + gates[s].failure;

  // Totals over the sessions.
  std::size_t attempted = 0, failed = 0, answered = 0, admitted = 0;
  std::size_t open_attempted = 0, open_failed = 0;
  double closed_wall_s = 0.0, open_s_total = 0.0, granted = 0.0, inflight = 0.0;
  Accumulator rss_mb, capacity, p50_ms, p99_ms, lateness_ms;
  std::size_t samples = 0;
  std::ostringstream session_rps;
  std::size_t open_admitted = 0;
  for (const Session& session : runs) {
    const ClosedResult& c = session.closed;
    const OpenResult& o = session.open;
    const std::size_t closed_answered = c.attempted - c.errors - c.missing;
    capacity.add(static_cast<double>(closed_answered) / c.wall_s);
    session_rps << (&session == &runs.front() ? "" : ", ")
                << json_number(capacity.samples().back());
    answered += closed_answered;
    admitted += c.admitted;
    attempted += c.attempted + o.attempted;
    failed += c.errors + c.missing + o.errors + o.missing;
    open_attempted += o.attempted;
    open_failed += o.errors + o.missing;
    closed_wall_s += c.wall_s;
    open_s_total += o.duration_s;
    granted += c.granted_mbps;
    inflight += c.inflight_mean;
    rss_mb.add(session.rss_mb);
    // Latency windows: consecutive runs of open_samples requests in
    // schedule order, each giving a p50 and a p99 (ten samples beyond it).
    const auto window = static_cast<std::size_t>(options.open_samples);
    for (std::size_t first = 0; first + window <= o.latency_ms.size();
         first += window) {
      Accumulator latency;
      for (std::size_t i = first; i < first + window; ++i)
        if (o.latency_ms[i] >= 0) latency.add(o.latency_ms[i]);
      if (latency.empty()) continue;
      samples += latency.count();
      p50_ms.add(latency.percentile(50));
      p99_ms.add(latency.percentile(99));
    }
    for (const Response& response : o.responses)
      open_admitted += response.status == "admitted" ? 1 : 0;
    for (const double v : o.lateness_ms.samples()) lateness_ms.add(v);
  }
  const auto count = static_cast<double>(runs.size());
  // Medians over sessions, lower quartiles over latency windows: a slow
  // stretch of a shared host moves some sessions or windows, not the figure
  // (README.md, "Choices and their evidence").
  const double capacity_rps = capacity.median();

  std::map<std::string, Metric> metrics;
  if (!traced) {
    metrics["capacity_rps"] = {capacity_rps, "req/s"};
    metrics["latency_p50_ms"] = {percentile(p50_ms, 25), "ms"};
    metrics["latency_p99_ms"] = {percentile(p99_ms, 25), "ms"};
    metrics["acceptance_ratio"] = {
        static_cast<double>(admitted) / static_cast<double>(answered), "ratio"};
    metrics["granted_mbps"] = {granted / count, "Mbps"};
    metrics["setup_s"] = {setup_s.median(), "s"};
    metrics["rss_mb"] = {rss_mb.median(), "MB"};
  } else if (failure.empty()) {
    const std::string trace_path =
        options.run_dir + "/trace-" + workload.name + ".jsonl";
    std::map<std::string, double> layers = run_traced_replica(
        workload, served[0].frames, served[0].responses, options.seed,
        algorithm, trace_path);
    const Scrape& closed = runs[0].closed_metrics;
    const Scrape& open = runs[0].open_metrics;
    const double requests = metric(closed, "server_requests_total");
    layers["server.batch_size_mean"] =
        requests / metric(closed, "server_batches_total");
    layers["server.presolve_hit_ratio"] =
        metric(closed, "server_batch_presolve_hits_total") / requests;
    layers["server.inner_latency_mean_ms"] =
        metric(closed, "server_request_latency_ms_sum") /
        metric(closed, "server_request_latency_ms_count");
    // Queueing shows in the open phase, where four connections race (the
    // closed phase never queues more than its window).
    layers["server.queue_depth_peak"] = runs[0].queue_peak;
    layers["server.backpressure_waits"] =
        metric(open, "server_backpressure_waits_total");
    layers["server.open_inner_latency_mean_ms"] =
        metric(open, "server_request_latency_ms_sum") /
        metric(open, "server_request_latency_ms_count");
    // The replica's busy time per request against the live daemon's
    // 1 / capacity_rps: the share of a served request's time spent outside
    // the layers' own calls.  Negative when pre-solve threads beat the
    // single-threaded replica.
    layers["server.overhead_share"] =
        1.0 - layers["replica.busy_us_per_req"] * capacity_rps / 1e6;
    // Tracing overhead: the replica's solve + commit time against the
    // untraced gate replay of the same requests.
    layers["trace.overhead_share"] =
        layers["replica.solve_commit_s"] / gates[0].replay_s - 1.0;
    layers.erase("replica.solve_commit_s");
    layers["gen.send_lateness_p50_ms"] = percentile(lateness_ms, 50);
    layers["gen.send_lateness_p99_ms"] = percentile(lateness_ms, 99);
    layers["gen.closed_inflight_mean"] = inflight / count;
    for (const auto& [name, value] : layers)
      metrics[name] = {value, unit_of(name)};
  }

  // Host stamp and phase accounting: one record line before the result.
  double replay_s = 0.0;
  for (const GateResult& g : gates) replay_s += g.replay_s;
  std::ostringstream record;
  record << "{\"record\": {\"workload\": " << json_string(workload.name)
         << ", \"seed\": " << options.seed << ", \"trace\": " << options.trace
         << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"build_type\": " << json_string(SFLOWBENCH_BUILD_TYPE)
         << ", \"compiler\": " << json_string(SFLOWBENCH_COMPILER)
         << ", \"git_sha\": " << json_string(options.git_sha)
         << ", \"source_sha256\": " << json_string(options.source_sha)
         << ", \"algorithm_served\": "
         << json_string(algorithm.empty() ? "unidentified" : algorithm)
         << ", \"transport\": \"unix-socket loopback\"}"
         << ", \"sessions\": " << runs.size()
         << ", \"open_sessions\": " << open_sessions
         << ", \"closed\": {\"requests_per_session\": " << workload.closed_requests
         << ", \"window\": " << kClosedWindow
         << ", \"attempted\": " << attempted - open_attempted
         << ", \"answered\": " << answered << ", \"admitted\": " << admitted
         << ", \"failed\": " << failed - open_failed
         << ", \"wall_s\": " << json_number(closed_wall_s)
         << ", \"inflight_mean\": " << json_number(inflight / count)
         << ", \"session_rps\": [" << session_rps.str() << "]}"
         << ", \"open\": {\"rate_rps\": " << json_number(workload.open_rate_rps)
         << ", \"connections\": " << kOpenConnections
         << ", \"duration_s\": " << json_number(open_s_total)
         << ", \"attempted\": " << open_attempted
         << ", \"failed\": " << open_failed
         << ", \"admitted\": " << open_admitted
         << ", \"samples\": " << samples
         << ", \"windows\": " << p99_ms.count()
         << ", \"window_p99_ms\": {\"min\": " << json_number(percentile(p99_ms, 0))
         << ", \"q1\": " << json_number(percentile(p99_ms, 25))
         << ", \"median\": " << json_number(percentile(p99_ms, 50))
         << ", \"max\": " << json_number(percentile(p99_ms, 100)) << "}"
         << ", \"send_lateness_p50_ms\": "
         << json_number(percentile(lateness_ms, 50))
         << ", \"send_lateness_p99_ms\": "
         << json_number(percentile(lateness_ms, 99)) << "}"
         << ", \"setup_samples\": " << setup_s.count()
         << ", \"replay_s\": " << json_number(replay_s)
         << ", \"gate\": " << json_string(failure.empty() ? "ok" : failure)
         << ", \"run_s\": " << json_number(seconds_since(run_start)) << "}}";
  std::cout << record.str() << "\n";
  if (!failure.empty()) std::cerr << "sflowbench: FAIL: " << failure << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (failure.empty() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    result << (first ? "" : ", ") << json_string(name)
           << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return failure.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const Workload& workload : all_workloads())
      std::cout << workload.name << "\n";
    return 0;
  }
  const Options options = parse_options(argc, argv);
  ::signal(SIGPIPE, SIG_IGN);
  // Sub-millisecond open-loop send deadlines: ask for 1 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "sflowbench: error: " << e.what() << "\n";
    return 1;
  }
}
