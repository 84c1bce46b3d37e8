// request_storm — open-loop load driver for sflowd's engine
// (BENCH_server.json; schema in docs/formats.md).
//
// K client pairs (a sender and a receiver thread each) drive one in-process
// Server over socketpairs.  Senders are *open-loop*: each request's send
// time is scheduled by an interarrival draw and fired on schedule whether or
// not earlier responses arrived, so the daemon's queue actually builds under
// burst — the closed-loop alternative (send, wait, send) can never observe
// queueing delay.  Odd-numbered clients draw exponential (Poisson-process)
// interarrivals, even-numbered a bounded-Pareto heavy tail (alpha 1.5), so
// the storm mixes steady arrivals with bursts.
//
// Receivers stamp per-request latency (send to response, full framing +
// queue + solve + commit) into a shared record; the run reports p50/p90/
// p99/p999/max, acceptance rate, and throughput, and then re-verifies the
// engine under load: the admitted set must pass the conservation oracle and
// the whole served stream must replay bit-identically through the
// sequential run_admission_sequence.  --smoke runs a small storm with those
// checks as the exit status (registered in ctest and the sanitizer sweep).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/validate.hpp"
#include "core/admission.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "server/frame.hpp"
#include "server/hosting.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace sflow;
using Clock = std::chrono::steady_clock;

struct StormOptions {
  std::size_t clients = 8;
  std::size_t requests_per_client = 100;
  double mean_interarrival_ms = 1.0;
  std::uint64_t seed = 2004;
  std::size_t presolve_threads = 4;
  std::string json_path;
  bool smoke = false;
};

/// One client's measurements, owned by its receiver thread.
struct ClientRecord {
  std::vector<double> latency_ms;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t errors = 0;
};

double draw_interarrival_ms(util::Rng& rng, bool heavy_tail, double mean) {
  if (!heavy_tail) {
    // Exponential: a Poisson arrival process with the requested mean.
    return -mean * std::log(1.0 - rng.uniform_real(0.0, 1.0));
  }
  // Bounded Pareto, alpha = 1.5: xm chosen so the uncapped mean is the
  // requested one (mean = alpha*xm/(alpha-1) => xm = mean/3), capped at
  // 100x mean so a single draw cannot stall the storm.
  const double alpha = 1.5;
  const double xm = mean / 3.0;
  const double u = rng.uniform_real(0.0, 1.0);
  return std::min(xm / std::pow(1.0 - u, 1.0 / alpha), 100.0 * mean);
}

/// A chain requirement over the hosted services, varied by the rng.
std::string draw_requirement(util::Rng& rng, std::size_t service_count) {
  const auto start = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(service_count) - 1));
  const auto hops = static_cast<std::size_t>(
      rng.uniform_int(2, static_cast<std::int64_t>(service_count)));
  std::ostringstream out;
  for (std::size_t h = 0; h + 1 < hops; ++h)
    out << 'S' << (start + h) % service_count << " -> S"
        << (start + h + 1) % service_count << '\n';
  return out.str();
}

void sender_loop(int fd, std::size_t client, const StormOptions& options,
                 std::size_t service_count,
                 std::deque<Clock::time_point>& send_times,
                 std::mutex& send_mutex) {
  util::Rng rng(util::derive_seed(options.seed, 1000 + client));
  const bool heavy_tail = client % 2 == 0;
  Clock::time_point next = Clock::now();
  for (std::size_t r = 0; r < options.requests_per_client; ++r) {
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(draw_interarrival_ms(
            rng, heavy_tail, options.mean_interarrival_ms)));
    std::this_thread::sleep_until(next);
    const std::string requirement = draw_requirement(rng, service_count);
    {
      // Stamp before the write so the latency includes the full send path.
      std::lock_guard lock(send_mutex);
      send_times.push_back(Clock::now());
    }
    server::write_frame(fd, requirement);
  }
  ::shutdown(fd, SHUT_WR);
}

void receiver_loop(int fd, std::size_t expected,
                   std::deque<Clock::time_point>& send_times,
                   std::mutex& send_mutex, ClientRecord& record) {
  std::string response;
  for (std::size_t r = 0; r < expected; ++r) {
    if (!server::read_frame(fd, response)) break;
    Clock::time_point sent;
    {
      // Responses on one connection come back in send order (the admitter
      // serves the queue FIFO), so the oldest stamp is this response's.
      std::lock_guard lock(send_mutex);
      sent = send_times.front();
      send_times.pop_front();
    }
    record.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - sent)
            .count());
    if (response.rfind("status: admitted", 0) == 0)
      ++record.admitted;
    else if (response.rfind("status: rejected", 0) == 0)
      ++record.rejected;
    else
      ++record.errors;
  }
}

int run_storm(const StormOptions& options) {
  std::signal(SIGPIPE, SIG_IGN);

  server::HostingConfig hosting;
  hosting.network_size = 30;
  hosting.service_count = 5;
  hosting.instances_per_service = 3;
  hosting.seed = options.seed;

  server::ServerConfig config;
  config.seed = util::derive_seed(options.seed, 1);
  config.presolve_threads = options.presolve_threads;

  server::Server daemon(server::make_hosting_scenario(hosting), config);

  std::vector<int> client_fds;
  for (std::size_t c = 0; c < options.clients; ++c) {
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
      std::cerr << "request_storm: socketpair: " << std::strerror(errno)
                << "\n";
      return 1;
    }
    daemon.adopt_connection(pair[0]);
    client_fds.push_back(pair[1]);
  }

  std::vector<ClientRecord> records(options.clients);
  std::vector<std::deque<Clock::time_point>> send_times(options.clients);
  std::vector<std::mutex> send_mutexes(options.clients);
  const Clock::time_point storm_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < options.clients; ++c) {
      threads.emplace_back(sender_loop, client_fds[c], c, std::cref(options),
                           hosting.service_count, std::ref(send_times[c]),
                           std::ref(send_mutexes[c]));
      threads.emplace_back(receiver_loop, client_fds[c],
                           options.requests_per_client,
                           std::ref(send_times[c]), std::ref(send_mutexes[c]),
                           std::ref(records[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - storm_start)
          .count();
  daemon.stop();
  for (const int fd : client_fds) ::close(fd);

  util::Accumulator latency;
  std::size_t admitted = 0, rejected = 0, errors = 0;
  for (const ClientRecord& record : records) {
    for (const double ms : record.latency_ms) latency.add(ms);
    admitted += record.admitted;
    rejected += record.rejected;
    errors += record.errors;
  }
  // Nearest-rank percentile (p in 0..100); an empty stream reports 0.
  const auto percentile = [&latency](double p) {
    return latency.empty() ? 0.0 : latency.percentile(p);
  };
  const std::size_t responses = latency.count();
  const std::size_t expected = options.clients * options.requests_per_client;

  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::cerr << "request_storm: FAIL: " << what << "\n";
    ++failures;
  };
  if (responses != expected)
    fail("expected " + std::to_string(expected) + " responses, got " +
         std::to_string(responses));
  if (errors != 0)
    fail(std::to_string(errors) + " error responses to well-formed requests");
  if (daemon.history().size() != responses)
    fail("history size " + std::to_string(daemon.history().size()) +
         " != responses " + std::to_string(responses));

  // Under-load correctness: conservation on the final admitted set, and a
  // bit-exact sequential replay of the served stream.
  const check::ValidationReport conservation = check::validate_conservation(
      daemon.view().base(), daemon.scenario().underlay,
      daemon.scenario().routing.get(), daemon.view().admitted());
  if (!conservation.ok())
    fail("conservation oracle: " + conservation.to_string());
  std::vector<overlay::ServiceRequirement> stream;
  stream.reserve(daemon.history().size());
  for (const server::ServedRequest& served : daemon.history())
    stream.push_back(served.requirement);
  const core::AdmissionResult replay = core::run_admission_sequence(
      daemon.scenario(), stream, config.admission, config.seed);
  bool replay_identical = replay.decisions.size() == daemon.history().size();
  for (std::size_t i = 0; replay_identical && i < replay.decisions.size(); ++i) {
    const core::AdmissionDecision& live = daemon.history()[i].decision;
    const core::AdmissionDecision& seq = replay.decisions[i];
    replay_identical = live.admitted == seq.admitted &&
                       live.rate == seq.rate &&
                       live.outcome.deterministically_equal(seq.outcome);
  }
  if (!replay_identical)
    fail("served stream is not bit-identical to the sequential replay");

  const double acceptance =
      responses > 0 ? static_cast<double>(admitted) /
                          static_cast<double>(responses)
                    : 0.0;
  std::cout << "request_storm: " << options.clients << " clients x "
            << options.requests_per_client << " requests, mean interarrival "
            << options.mean_interarrival_ms << " ms\n"
            << "  responses " << responses << ", admitted " << admitted
            << " (acceptance " << acceptance << "), wall " << wall_ms
            << " ms\n"
            << "  latency ms: p50 " << percentile(50.0) << "  p90 "
            << percentile(90.0) << "  p99 " << percentile(99.0) << "  p999 "
            << percentile(99.9) << "  max " << percentile(100.0) << "\n"
            << "  replay " << (replay_identical ? "bit-identical" : "DIVERGED")
            << ", conservation " << (conservation.ok() ? "ok" : "VIOLATED")
            << "\n";

  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::cerr << "cannot write " << options.json_path << "\n";
      return 1;
    }
    out.precision(6);
    out << "{\n  \"bench\": \"request_storm\",\n"
        << "  \"clients\": " << options.clients << ",\n"
        << "  \"requests_per_client\": " << options.requests_per_client
        << ",\n"
        << "  \"mean_interarrival_ms\": " << options.mean_interarrival_ms
        << ",\n"
        << "  \"arrival\": \"poisson+bounded-pareto\",\n"
        << "  \"network_size\": " << hosting.network_size << ",\n"
        << "  \"services\": " << hosting.service_count << ",\n"
        << "  \"seed\": " << options.seed << ",\n"
        << "  \"responses\": " << responses << ",\n"
        << "  \"admitted\": " << admitted << ",\n"
        << "  \"rejected\": " << rejected << ",\n"
        << "  \"acceptance_rate\": " << acceptance << ",\n"
        << "  \"wall_ms\": " << wall_ms << ",\n"
        << "  \"throughput_rps\": "
        << (wall_ms > 0 ? static_cast<double>(responses) / (wall_ms / 1000.0)
                        : 0.0)
        << ",\n"
        << "  \"latency_ms\": {\"p50\": " << percentile(50.0)
        << ", \"p90\": " << percentile(90.0)
        << ", \"p99\": " << percentile(99.0)
        << ", \"p999\": " << percentile(99.9)
        << ", \"max\": " << percentile(100.0)
        << ", \"mean\": " << (latency.empty() ? 0.0 : latency.mean()) << "},\n"
        << "  \"replay_identical\": " << (replay_identical ? "true" : "false")
        << ",\n  \"conservation_ok\": "
        << (conservation.ok() ? "true" : "false") << ",\n  \"metrics\": "
        << obs::to_json(obs::Registry::global().snapshot(), "  ") << "\n}\n";
    std::cout << "wrote " << options.json_path << "\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  StormOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      options.clients = 4;
      options.requests_per_client = 20;
      options.mean_interarrival_ms = 0.5;
      options.presolve_threads = 2;
    } else if (arg == "--clients" && i + 1 < argc) {
      options.clients = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--requests" && i + 1 < argc) {
      options.requests_per_client =
          static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--mean-interarrival-ms" && i + 1 < argc) {
      options.mean_interarrival_ms = std::stod(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = static_cast<std::uint64_t>(std::stoull(argv[++i]));
    } else if (arg == "--presolve-threads" && i + 1 < argc) {
      options.presolve_threads =
          static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::cerr << "usage: request_storm [--smoke] [--clients K]"
                   " [--requests R] [--mean-interarrival-ms X] [--seed S]"
                   " [--presolve-threads T] [--json PATH]\n";
      return 2;
    }
  }
  try {
    return run_storm(options);
  } catch (const std::exception& e) {
    std::cerr << "request_storm: error: " << e.what() << "\n";
    return 1;
  }
}
