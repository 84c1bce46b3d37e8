#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "util/rng.hpp"

namespace sflowbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(const sflow::util::Accumulator& samples, double p) {
  return samples.empty() ? 0.0 : samples.percentile(p);
}

const std::vector<Workload>& all_workloads() {
  // Why each workload exists, and which layer metric should move which
  // end-to-end metric on it, is in README.md, with the evidence for the
  // rates: open_rate_rps is frozen at a quarter to a half of the
  // capacity_rps the first version of the daemon this benchmark ran
  // against reached.  large-admit is not in BENCHMARK.json (too unsteady
  // for a bound at this run length) but runs on request.
  static const std::vector<Workload> workloads = {
      {"small-default", 30, 5, 3, "", 0.0, 12, 4, 1000, 800.0},
      {"mid-fastpath", 60, 5, 10, "optimal", 0.5, 10, 10, 20000, 4000.0},
      {"large-admit", 200, 5, 30, "optimal", 0.0, 2, 1, 600, 50.0},
  };
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : all_workloads())
    if (workload.name == name) return &workload;
  return nullptr;
}

sflow::server::HostingConfig hosting_config(const Workload& workload) {
  sflow::server::HostingConfig config;
  config.network_size = workload.network_size;
  config.service_count = workload.services;
  config.instances_per_service = workload.instances_per_service;
  config.seed = kHostingSeed;
  return config;
}

std::vector<CatalogEntry> parse_catalog(const std::string& text) {
  // `service <name> instances <n> @ <nid> <nid> ...`, one line per service.
  std::vector<CatalogEntry> catalog;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string service, instances, at;
    CatalogEntry entry;
    std::size_t count = 0;
    fields >> service >> entry.name >> instances >> count >> at;
    if (!fields || service != "service" || instances != "instances" ||
        at != "@")
      throw std::runtime_error("malformed catalog line '" + line + "'");
    for (int nid = 0; fields >> nid;) entry.nids.push_back(nid);
    if (entry.nids.size() != count || count == 0)
      throw std::runtime_error("catalog line lists " +
                               std::to_string(entry.nids.size()) +
                               " instances, announces " +
                               std::to_string(count) + ": '" + line + "'");
    catalog.push_back(std::move(entry));
  }
  if (catalog.size() < 4)
    throw std::runtime_error("catalog hosts fewer than 4 services");
  return catalog;
}

std::vector<std::string> make_stream(const Workload& workload,
                                     const std::vector<CatalogEntry>& catalog,
                                     std::uint64_t stream_seed,
                                     std::size_t count) {
  sflow::util::Rng rng(stream_seed);
  std::vector<std::size_t> order(catalog.size());
  std::vector<std::string> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);
    const auto name = [&](std::size_t k) -> const std::string& {
      return catalog[order[k]].name;
    };
    std::ostringstream frame;
    if (rng.chance(workload.diamond_share)) {
      frame << name(0) << " -> " << name(1) << ", " << name(2) << '\n'
            << name(1) << " -> " << name(3) << '\n'
            << name(2) << " -> " << name(3) << '\n';
    } else {
      const auto hops = static_cast<std::size_t>(rng.uniform_int(
          2, static_cast<std::int64_t>(std::min<std::size_t>(5, order.size()))));
      for (std::size_t h = 0; h + 1 < hops; ++h)
        frame << name(h) << " -> " << name(h + 1) << '\n';
    }
    // Pin the source to a random hosted instance: without it every flow of
    // a service would start at one node and saturate its links early.
    frame << "pin " << name(0) << " @ " << rng.pick(catalog[order[0]].nids)
          << '\n';
    stream.push_back(frame.str());
  }
  return stream;
}

}  // namespace sflowbench
