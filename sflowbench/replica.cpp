// The correctness gate (sequential replay of a served session) and the traced
// single-threaded replica of the daemon's admitter.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "check/validate.hpp"
#include "obs/metrics.hpp"
#include "overlay/requirement_parser.hpp"
#include "overlay/serialization.hpp"
#include "server/frame.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace sflowbench {

using sflow::core::AdmissionDecision;
using sflow::core::Scenario;
using sflow::overlay::ServiceRequirement;
using sflow::util::Accumulator;

ServiceRequirement parse_like_admitter(const std::string& frame,
                                       Scenario& scenario) {
  // Mirrors Server::serve_batch's parse step.
  ServiceRequirement requirement =
      sflow::overlay::parse_requirement(frame, scenario.catalog);
  const sflow::overlay::OverlayGraph& hosting = scenario.overlay();
  for (const sflow::overlay::Sid sid : requirement.services())
    if (hosting.instances_of(sid).empty())
      throw std::invalid_argument("unknown service '" +
                                  scenario.catalog.name(sid) + "'");
  const sflow::overlay::Sid source = requirement.source();
  if (!requirement.pinned(source))
    requirement.pin(source,
                    hosting.instance(hosting.instances_of(source).front()).nid);
  return requirement;
}

std::string format_response(const AdmissionDecision& decision,
                            std::uint64_t sequence, const Scenario& scenario) {
  // Mirrors Server::serve_batch's response text.
  const bool clamped =
      decision.admitted && decision.rate < decision.outcome.bandwidth;
  std::ostringstream out;
  out.precision(17);
  out << "status: " << (decision.admitted ? "admitted" : "rejected")
      << "\nsequence: " << sequence << '\n';
  if (decision.admitted) {
    out << "rate: " << decision.rate
        << "\nbandwidth: " << decision.outcome.bandwidth
        << "\nlatency: " << decision.outcome.latency
        << "\nclamped: " << (clamped ? 1 : 0) << '\n'
        << sflow::overlay::format_flow_graph(decision.outcome.graph,
                                             scenario.overlay(),
                                             scenario.catalog);
  } else {
    out << "reason: "
        << (decision.outcome.success ? "granted rate below the admission floor"
                                     : "no feasible service flow graph")
        << '\n';
  }
  return out.str();
}

sflow::core::Algorithm algorithm_from_name(const std::string& name) {
  // sflowd's --algorithm spellings.
  using sflow::core::Algorithm;
  if (name == "sflow") return Algorithm::kSflow;
  if (name == "optimal") return Algorithm::kGlobalOptimal;
  if (name == "fixed") return Algorithm::kFixed;
  if (name == "random") return Algorithm::kRandom;
  if (name == "path") return Algorithm::kServicePath;
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

namespace {

/// Empty when `served` shows exactly what `expected` would print.
std::string compare(std::size_t index, const Response& served,
                    const Response& expected) {
  if (served.status == expected.status && served.sequence == expected.sequence &&
      served.rate == expected.rate && served.bandwidth == expected.bandwidth &&
      served.latency == expected.latency)
    return "";
  const auto show = [](const Response& r) {
    return r.status + " seq=" + r.sequence + " rate=" + r.rate +
           " bw=" + r.bandwidth + " lat=" + r.latency;
  };
  return "request " + std::to_string(index) + ": served {" + show(served) +
         "}, replay {" + show(expected) + "}";
}

std::string compare_replay(const sflow::core::AdmissionResult& replay,
                           const std::vector<Response>& served,
                           const Scenario& scenario) {
  for (std::size_t i = 0; i < replay.decisions.size(); ++i)
    if (std::string mismatch = compare(
            i, served[i],
            parse_response(format_response(replay.decisions[i], i, scenario)));
        !mismatch.empty())
      return mismatch;
  return "";
}

}  // namespace

GateResult check_served(Scenario& scenario,
                        const std::vector<std::string>& stream,
                        const std::vector<Response>& served,
                        std::uint64_t request_seed, const Scrape& metrics,
                        std::string& algorithm) {
  GateResult gate;
  if (served.size() != stream.size()) {
    gate.failure = "response count differs from the stream";
    return gate;
  }
  std::vector<ServiceRequirement> requests;
  requests.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    try {
      requests.push_back(parse_like_admitter(stream[i], scenario));
    } catch (const std::exception& e) {
      gate.failure = "request " + std::to_string(i) + " does not parse: " + e.what();
      return gate;
    }
  }
  // Warm the shared database first, as the daemon does before serving, so
  // the timed replay below is the same work as the served stream.
  scenario.view.routing().precompute_all();

  sflow::core::AdmissionConfig config;  // sflowd's admission defaults
  if (algorithm.empty()) {
    // The workload serves the daemon's default algorithm: take the one the
    // daemon's own counters point at first, and accept it only if it
    // reproduces a prefix of the served stream.
    const auto ran = [&metrics](const char* name) {
      const auto it = metrics.find(name);
      return it != metrics.end() && it->second > 0;
    };
    std::vector<std::string> candidates = {"sflow", "optimal", "fixed",
                                           "random", "path"};
    if (ran("federation_search_nodes_total") && !ran("federation_runs_total"))
      std::swap(candidates[0], candidates[1]);
    const std::size_t prefix = std::min<std::size_t>(64, requests.size());
    const std::vector<ServiceRequirement> head(requests.begin(),
                                               requests.begin() + prefix);
    for (const std::string& name : candidates) {
      config.algorithm = algorithm_from_name(name);
      if (compare_replay(sflow::core::run_admission_sequence(
                             scenario, head, config, request_seed),
                         served, scenario)
              .empty()) {
        algorithm = name;
        break;
      }
    }
    if (algorithm.empty()) {
      gate.failure = "no algorithm reproduces the first " +
                     std::to_string(prefix) + " served responses";
      return gate;
    }
  }
  config.algorithm = algorithm_from_name(algorithm);

  const Clock::time_point start = Clock::now();
  const sflow::core::AdmissionResult replay =
      sflow::core::run_admission_sequence(scenario, requests, config,
                                          request_seed);
  gate.replay_s = seconds_since(start);
  gate.failure = compare_replay(replay, served, scenario);
  if (!gate.failure.empty()) return gate;
  const sflow::check::ValidationReport conservation =
      sflow::check::validate_conservation(replay.view.base(), scenario.underlay,
                                          scenario.routing.get(),
                                          replay.view.admitted());
  if (!conservation.ok())
    gate.failure = "conservation: " + conservation.to_string();
  return gate;
}

// ---------------------------------------------------------------------------
// Traced replica

namespace {

enum Layer : std::uint8_t {
  kRequest,  // root: one request's whole pass through the admitter
  kFrameRead,
  kParse,
  kSolve,
  kCommit,
  kFormat,
  kFrameWrite,
  kLayerCount,
};
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "request", "frame.read", "parse", "solve", "commit", "format", "frame.write"};

struct Span {
  std::uint32_t sequence;
  Layer layer;
  Clock::time_point start, end;
};

/// Registry counters read at span boundaries (relaxed loads, no locking).
struct Counters {
  enum : std::size_t {
    kMisses,
    kRelaxations,
    kSearchNodes,
    kPruned,
    kProtocolMessages,
    kDirtySources,
    kFullRebuilds,
    kResweepUs,
    kCount,
  };
  std::array<const sflow::obs::Counter*, kResweepUs> counters{};
  const sflow::obs::Histogram* resweep = nullptr;

  Counters() {
    auto& registry = sflow::obs::Registry::global();
    const std::array<const char*, kResweepUs> names = {
        "routing_cache_misses_total",     "routing_edge_relaxations_total",
        "federation_search_nodes_total",  "federation_search_pruned_total",
        "protocol_messages_total",        "routing_dirty_sources_total",
        "routing_full_rebuilds_total"};
    for (std::size_t i = 0; i < names.size(); ++i)
      counters[i] = &registry.counter(names[i]);
    // Registered by the routing layer (with its buckets) on first use.
    for (const sflow::obs::MetricSnapshot& m : registry.snapshot())
      if (m.name == "routing_resweep_us")
        resweep = &registry.histogram("routing_resweep_us", {});
  }

  std::array<double, kCount> read() const {
    std::array<double, kCount> values{};
    for (std::size_t i = 0; i < counters.size(); ++i)
      values[i] = static_cast<double>(counters[i]->value());
    values[kResweepUs] = resweep != nullptr ? resweep->sum() : 0.0;
    return values;
  }
};

double us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

std::map<std::string, double> run_traced_replica(
    const Workload& workload, const std::vector<std::string>& stream,
    const std::vector<Response>& served, std::uint64_t request_seed,
    const std::string& algorithm, const std::string& trace_path) {
  std::map<std::string, double> out;

  // Setup layer: the daemon's startup work, timed the same way.
  Accumulator hosting_ms;
  Scenario scenario;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    scenario = sflow::server::make_hosting_scenario(hosting_config(workload));
    hosting_ms.add(seconds_since(start) * 1e3);
  }
  // The admitter's own copy of the view, warmed like Server's constructor.
  sflow::overlay::ResidualOverlay view = scenario.view;
  view.set_routing_repair_mode(sflow::server::ServerConfig{}.routing_repair);
  const Clock::time_point warm = Clock::now();
  view.routing().precompute_all();
  out["setup.hosting_ms"] = hosting_ms.median();
  out["setup.precompute_ms"] = seconds_since(warm) * 1e3;

  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0)
    throw std::runtime_error(std::string("socketpair: ") + std::strerror(errno));
  const int server_fd = pair[0], client_fd = pair[1];

  sflow::core::AdmissionConfig config;
  config.algorithm = algorithm_from_name(algorithm);
  const Counters counters;
  using Values = std::array<double, Counters::kCount>;
  Values solve_work{}, commit_work{};

  std::vector<Span> spans;
  spans.reserve(stream.size() * kLayerCount);
  std::array<Accumulator, kLayerCount> layer_us;
  std::array<double, kLayerCount> layer_total{};
  Accumulator commit_admitted_us;
  double solve_rejected_us = 0.0, response_bytes = 0.0;
  std::size_t admitted = 0;
  std::string payload, reply, mismatch;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    sflow::server::write_frame(client_fd, stream[i]);  // the client's side

    std::array<Clock::time_point, kLayerCount> mark{};
    mark[kRequest] = Clock::now();
    if (!sflow::server::read_frame(server_fd, payload))
      throw std::runtime_error("replica: socketpair closed");
    mark[kFrameRead] = Clock::now();
    const ServiceRequirement requirement =
        parse_like_admitter(payload, scenario);
    mark[kParse] = Clock::now();
    const Values before_solve = counters.read();
    const Clock::time_point solve_start = Clock::now();
    sflow::util::Rng rng(sflow::util::derive_seed(request_seed, i));
    sflow::core::FederationOutcome outcome = sflow::core::run_algorithm(
        config.algorithm,
        sflow::core::admission_view(scenario, view, requirement), rng,
        config.sflow);
    mark[kSolve] = Clock::now();
    const Values after_solve = counters.read();
    const Clock::time_point commit_start = Clock::now();
    const AdmissionDecision decision = sflow::core::apply_admission(
        scenario, view, i, config, std::move(outcome));
    mark[kCommit] = Clock::now();
    const Values after_commit = counters.read();
    const Clock::time_point format_start = Clock::now();
    const std::string response = format_response(decision, i, scenario);
    mark[kFormat] = Clock::now();
    sflow::server::write_frame(server_fd, response);
    mark[kFrameWrite] = Clock::now();

    const auto seq = static_cast<std::uint32_t>(i);
    const std::array<Clock::time_point, kLayerCount> starts = {
        mark[kRequest], mark[kRequest], mark[kFrameRead], solve_start,
        commit_start,   format_start,   mark[kFormat]};
    const std::array<Clock::time_point, kLayerCount> ends = {
        mark[kFrameWrite], mark[kFrameRead], mark[kParse],      mark[kSolve],
        mark[kCommit],     mark[kFormat],    mark[kFrameWrite]};
    for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
      spans.push_back({seq, static_cast<Layer>(layer), starts[layer], ends[layer]});
      const double duration = us(starts[layer], ends[layer]);
      layer_us[layer].add(duration);
      layer_total[layer] += duration;
    }
    for (std::size_t k = 0; k < Counters::kCount; ++k) {
      solve_work[k] += after_solve[k] - before_solve[k];
      commit_work[k] += after_commit[k] - after_solve[k];
    }
    if (decision.admitted) {
      ++admitted;
      commit_admitted_us.add(us(commit_start, mark[kCommit]));
    } else {
      solve_rejected_us += us(solve_start, mark[kSolve]);
    }
    response_bytes += static_cast<double>(response.size());

    if (!sflow::server::read_frame(client_fd, reply))
      throw std::runtime_error("replica: socketpair closed");
    if (mismatch.empty() && i < served.size())
      mismatch = compare(i, served[i], parse_response(reply));
  }
  ::close(server_fd);
  ::close(client_fd);
  if (!mismatch.empty())
    throw std::runtime_error("traced replica diverges from the daemon: " +
                             mismatch);

  if (!trace_path.empty()) {
    // One JSON object per span; children name the request span as parent.
    std::ofstream trace(trace_path);
    if (!trace) throw std::runtime_error("cannot write " + trace_path);
    const Clock::time_point origin = spans.empty() ? Clock::now() : spans[0].start;
    for (const Span& span : spans)
      trace << "{\"seq\":" << span.sequence << ",\"layer\":\""
            << kLayerNames[span.layer] << "\",\"parent\":"
            << (span.layer == kRequest ? "null" : "\"request\"")
            << ",\"start_us\":" << us(origin, span.start)
            << ",\"dur_us\":" << us(span.start, span.end) << "}\n";
  }

  const double n = static_cast<double>(stream.size());
  const double busy = layer_total[kRequest];
  double children = 0.0;
  for (std::size_t layer = kFrameRead; layer < kLayerCount; ++layer)
    children += layer_total[layer];
  const double admits = static_cast<double>(admitted);

  out["replica.busy_us_per_req"] = busy / n;
  out["replica.unattributed_share"] = ratio(busy - children, busy);
  out["frame.write_us_p50"] = percentile(layer_us[kFrameWrite], 50);
  out["frame.read_us_p50"] = percentile(layer_us[kFrameRead], 50);
  out["frame.response_bytes_mean"] = response_bytes / n;
  out["frame.share"] =
      ratio(layer_total[kFrameRead] + layer_total[kFrameWrite], busy);
  out["parse.us_p50"] = percentile(layer_us[kParse], 50);
  out["parse.us_p99"] = percentile(layer_us[kParse], 99);
  out["parse.share"] = ratio(layer_total[kParse], busy);
  out["solve.us_p50"] = percentile(layer_us[kSolve], 50);
  out["solve.us_p99"] = percentile(layer_us[kSolve], 99);
  out["solve.share"] = ratio(layer_total[kSolve], busy);
  out["solve.rejected_share"] = ratio(solve_rejected_us, layer_total[kSolve]);
  out["solve.useful_ratio"] = admits / n;
  out["solve.search_nodes_per_req"] = solve_work[Counters::kSearchNodes] / n;
  out["solve.pruned_per_req"] = solve_work[Counters::kPruned] / n;
  out["solve.protocol_msgs_per_req"] =
      solve_work[Counters::kProtocolMessages] / n;
  out["solve.routing_misses_per_req"] = solve_work[Counters::kMisses] / n;
  out["solve.relaxations_per_req"] = solve_work[Counters::kRelaxations] / n;
  out["commit.us_p50"] = percentile(commit_admitted_us, 50);
  out["commit.us_p99"] = percentile(commit_admitted_us, 99);
  out["commit.share"] = ratio(layer_total[kCommit], busy);
  out["commit.admits"] = admits;
  out["commit.resweep_ms_per_admit"] =
      ratio(commit_work[Counters::kResweepUs] / 1e3, admits);
  out["commit.dirty_sources_per_admit"] =
      ratio(commit_work[Counters::kDirtySources], admits);
  out["commit.full_rebuilds_per_admit"] =
      ratio(commit_work[Counters::kFullRebuilds], admits);
  out["commit.relaxations_per_admit"] =
      ratio(commit_work[Counters::kRelaxations], admits);
  out["format.us_p50"] = percentile(layer_us[kFormat], 50);
  out["format.share"] = ratio(layer_total[kFormat], busy);
  // Solve + commit time of the replica, for the tracing-overhead estimate
  // against the untraced gate replay of the same requests.
  out["replica.solve_commit_s"] =
      (layer_total[kSolve] + layer_total[kCommit]) / 1e6;
  return out;
}

}  // namespace sflowbench
