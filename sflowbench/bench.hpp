// sflowbench — the sflowd serving benchmark (README.md in this directory).
//
// One run drives real `sflowd` processes over their unix sockets from a
// single load-generator thread.  Each session is a fresh daemon serving two
// phases of one seeded request stream:
//
//   closed  one connection keeps a fixed window of requirement frames in
//           flight while the overlay fills; served order == stream order, so
//           decisions repeat exactly from run to run.
//   open    Poisson arrivals at a frozen per-workload rate, round-robin over
//           a few connections, against the filled daemon; latency is timed
//           from each request's *scheduled* send time.
//
// Every decision of both phases is checked against a sequential replay.
//
// With --trace 1 the served stream is also replayed in-process through
// each layer's public function (frame, parse, solve, commit, format), one
// span per call, giving the per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/scenario.hpp"
#include "server/hosting.hpp"
#include "util/stats.hpp"

namespace sflowbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Percentile (nearest rank, p in [0, 100]) of `samples`; 0 when empty.
double percentile(const sflow::util::Accumulator& samples, double p);

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)

struct Workload {
  std::string name;
  std::size_t network_size = 0;
  std::size_t services = 0;
  std::size_t instances_per_service = 0;
  /// sflowd --algorithm value; empty serves the daemon's default.
  std::string algorithm;
  /// Share of requirements drawn as `A -> B, C` diamonds (the rest chains).
  double diamond_share = 0.0;
  /// Fresh daemons per run.  Session k serves sub-stream k of the seeded
  /// request stream: its first closed_requests frames closed-loop, then (in
  /// the first open_sessions sessions) the rest open-loop.
  std::size_t sessions = 0;
  std::size_t open_sessions = 0;
  std::size_t closed_requests = 0;
  /// Frozen open-phase offered rate (README.md).
  double open_rate_rps = 0.0;
};

/// Fixed hosting seed: the topology and instance placement are part of the
/// workload; --seed varies only the request stream.
inline constexpr std::uint64_t kHostingSeed = 2004;

const std::vector<Workload>& all_workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);
sflow::server::HostingConfig hosting_config(const Workload& workload);

/// The `GET /catalog` listing: service name -> hosting NIDs.
struct CatalogEntry {
  std::string name;
  std::vector<int> nids;
};
std::vector<CatalogEntry> parse_catalog(const std::string& text);

/// `count` requirement frames of the stream seeded by `stream_seed`.  The
/// stream is prefix-stable: a longer stream extends a shorter one.
std::vector<std::string> make_stream(const Workload& workload,
                                     const std::vector<CatalogEntry>& catalog,
                                     std::uint64_t stream_seed,
                                     std::size_t count);

// ---------------------------------------------------------------------------
// The daemon process and the load generator (client.cpp)

/// Prometheus text of `GET /metrics`, one value per sample line.
using Scrape = std::map<std::string, double>;
Scrape parse_scrape(const std::string& text);
/// after[name] - before[name] (0 when absent).
double delta(const Scrape& before, const Scrape& after, const std::string& name);

/// The fields of one response the correctness gate compares, exactly as
/// printed (status first line, then `key: value` lines).
struct Response {
  std::string status;  // admitted | rejected | error | missing
  std::string sequence, rate, bandwidth, latency;
};
Response parse_response(const std::string& payload);

/// One `sflowd` child process serving `workload` on a unix socket.
class Daemon {
 public:
  Daemon(const std::string& binary, const Workload& workload,
         std::uint64_t request_seed, const std::string& socket_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn -> first `GET /catalog` answered.
  double setup_s() const noexcept { return setup_s_; }
  const std::string& catalog() const noexcept { return catalog_; }

  /// A new client connection (caller closes it).
  int connect() const;
  Scrape scrape() const;
  /// Peak resident set (VmHWM) so far, in MB.
  double peak_rss_mb() const;
  /// SIGTERM, wait for the drain; throws unless the daemon exits 0.
  void stop();

 private:
  void kill_child() noexcept;

  std::string socket_path_;
  int pid_ = -1;
  int control_fd_ = -1;
  double setup_s_ = 0.0;
  std::string catalog_;
};

struct ClosedResult {
  double wall_s = 0.0;
  std::size_t attempted = 0;
  std::size_t errors = 0;
  std::size_t missing = 0;
  std::size_t admitted = 0;
  double granted_mbps = 0.0;
  double inflight_mean = 0.0;
  std::vector<Response> responses;  // in stream order
};
ClosedResult run_closed(const Daemon& daemon,
                        std::span<const std::string> stream,
                        std::size_t window);

struct OpenResult {
  double duration_s = 0.0;
  std::size_t attempted = 0;
  std::size_t errors = 0;
  std::size_t missing = 0;
  /// Scheduled send -> response, by stream index (-1: no response).
  std::vector<double> latency_ms;
  sflow::util::Accumulator lateness_ms;  // actual send - scheduled send
  std::vector<Response> responses;       // by stream index
};
/// Send offsets (seconds from phase start) of a Poisson process at `rate`
/// over `duration_s`.
std::vector<double> poisson_schedule(double rate, double duration_s,
                                     std::uint64_t seed);
OpenResult run_open(const Daemon& daemon,
                    std::span<const std::string> stream,
                    const std::vector<double>& schedule,
                    std::size_t connections);

// ---------------------------------------------------------------------------
// Correctness gate and the traced replica (replica.cpp)

/// The admitter's parse step: parse, reject unhosted services, auto-pin an
/// unpinned source to its first instance.
sflow::overlay::ServiceRequirement parse_like_admitter(
    const std::string& frame, sflow::core::Scenario& scenario);

/// The daemon's response text for one decision.
std::string format_response(const sflow::core::AdmissionDecision& decision,
                            std::uint64_t sequence,
                            const sflow::core::Scenario& scenario);

sflow::core::Algorithm algorithm_from_name(const std::string& name);

struct GateResult {
  std::string failure;  // empty when every check passed
  double replay_s = 0.0;
};

/// Replays `frames` (a session's served stream, in sequence order) through
/// core::run_admission_sequence on `scenario` (built from the workload's
/// flags) and compares every response field by field at the printed
/// precision; the replay's final view must pass
/// check::validate_conservation.  `algorithm` names the served algorithm;
/// when empty, the gate identifies it from `metrics` (the session's /metrics
/// deltas) and a replay prefix, and writes it back.
GateResult check_served(sflow::core::Scenario& scenario,
                        const std::vector<std::string>& frames,
                        const std::vector<Response>& responses,
                        std::uint64_t request_seed, const Scrape& metrics,
                        std::string& algorithm);

/// Per-layer metrics of the traced in-process replica over `stream` (a
/// session's served stream), named as in BENCHMARK.json.  Also re-checks
/// every decision against `served`.
std::map<std::string, double> run_traced_replica(
    const Workload& workload, const std::vector<std::string>& stream,
    const std::vector<Response>& served, std::uint64_t request_seed,
    const std::string& algorithm, const std::string& trace_path);

}  // namespace sflowbench
