// Federation-kernel microbench: the before/after record of the hot-path
// rewrites, on the paper's Waxman evaluation workloads.
//
// Two pairs per network size, each verified bit-identical before timing is
// trusted, plus the zero-copy protocol run:
//
//   optimal    — the table-driven, future-bandwidth-bounded branch-and-bound
//                (core/global_optimal.cpp) vs the legacy per-callback search;
//                wall clock, nodes explored/pruned, table bytes.
//   baseline   — the flat-arena abstract-graph DP (core/baseline.cpp) vs the
//                legacy Digraph + shortest-widest-kernel construction; wall
//                clock, arena bytes, DP labels kept/pruned.
//   sfederate  — the distributed protocol over shared payload snapshots
//                (core/sflow_federation.cpp); wall clock, logical wire bytes,
//                and the bytes the host physically deep-copied, which must
//                stay zero in these fault-free runs.
//
// Every production-path outcome is validated from first principles
// (check::validate_flow_graph).  `--json PATH` writes the
// BENCH_federation.json record documented in docs/formats.md; `--smoke` is
// the fast ctest configuration (exit nonzero on any mismatch, validation
// failure, or physical payload copy).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "core/baseline.hpp"
#include "core/global_optimal.hpp"
#include "core/scenario.hpp"
#include "core/sflow_federation.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace sflow;

struct OptimalSample {
  double wall_ms = 0.0;
  std::size_t nodes_explored = 0;
  std::size_t nodes_pruned = 0;
  std::size_t table_bytes = 0;
};

struct BaselineSample {
  double wall_ms = 0.0;
  std::size_t arena_bytes = 0;
  std::size_t dp_labels = 0;
  std::size_t dp_labels_pruned = 0;
};

struct FederationSample {
  double wall_ms = 0.0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t wire_bytes = 0;
};

struct SizeRecord {
  std::size_t nodes = 0;
  OptimalSample optimal_legacy, optimal_tables;
  BaselineSample baseline_legacy, baseline_arena;
  FederationSample federate;
};

std::uint64_t copied_bytes_counter() {
  return obs::Registry::global()
      .counter("payload_physical_copy_bytes_total")
      .value();
}

bool validate_or_complain(const core::Scenario& scenario,
                          const overlay::ServiceFlowGraph& graph,
                          const char* what, std::size_t size, std::size_t seed) {
  const check::ValidationReport report = check::validate_flow_graph(
      scenario.overlay(), scenario.requirement, graph);
  if (report.ok()) return true;
  std::cerr << "VALIDATION FAILURE (" << what << ", size " << size << ", seed "
            << seed << "):\n" << report.to_string() << "\n";
  return false;
}

core::WorkloadParams workload(std::size_t size,
                              overlay::RequirementShape shape) {
  core::WorkloadParams params;
  params.network_size = size;
  params.service_type_count = 6;
  params.requirement.service_count = 6;
  params.requirement.shape = shape;
  return params;
}

int run(const std::vector<std::size_t>& sizes, std::size_t seeds,
        const std::string& json_path) {
  std::vector<SizeRecord> records;
  bool all_identical = true;
  bool all_valid = true;
  bool zero_copy = true;
  bool explored_strictly_lower = true;

  for (const std::size_t size : sizes) {
    SizeRecord record;
    record.nodes = size;

    for (std::size_t seed = 0; seed < seeds; ++seed) {
      // --- optimal: generic-DAG requirement -------------------------------
      {
        const core::Scenario scenario =
            core::make_scenario(workload(size, overlay::RequirementShape::kGenericDag),
                                util::derive_seed(7200, size * 100 + seed));
        // Warm the shortest-widest cache so neither search pays for lazy
        // tree construction inside its timed region.
        scenario.overlay_routing().precompute_all();

        core::OptimalStats legacy_stats;
        util::Stopwatch watch;
        const auto legacy = core::optimal_flow_graph_legacy(
            scenario.overlay(), scenario.requirement, scenario.overlay_routing(),
            &legacy_stats);
        record.optimal_legacy.wall_ms += watch.elapsed_ms();

        core::OptimalStats stats;
        watch.restart();
        const auto fresh = core::optimal_flow_graph(
            scenario.overlay(), scenario.requirement, scenario.overlay_routing(),
            &stats);
        record.optimal_tables.wall_ms += watch.elapsed_ms();

        record.optimal_legacy.nodes_explored += legacy_stats.nodes_explored;
        record.optimal_legacy.nodes_pruned += legacy_stats.nodes_pruned;
        record.optimal_tables.nodes_explored += stats.nodes_explored;
        record.optimal_tables.nodes_pruned += stats.nodes_pruned;
        record.optimal_tables.table_bytes += stats.table_bytes;

        if (fresh != legacy) {
          std::cerr << "OPTIMAL MISMATCH: size " << size << " seed " << seed
                    << "\n";
          all_identical = false;
        }
        if (fresh)
          all_valid &= validate_or_complain(scenario, *fresh, "optimal", size,
                                            seed);
      }

      // --- baseline: chain requirement ------------------------------------
      {
        const core::Scenario scenario =
            core::make_scenario(workload(size, overlay::RequirementShape::kSinglePath),
                                util::derive_seed(7300, size * 100 + seed));
        scenario.overlay_routing().precompute_all();

        util::Stopwatch watch;
        const auto legacy = core::baseline_single_path_legacy(
            scenario.overlay(), scenario.requirement, scenario.overlay_routing());
        record.baseline_legacy.wall_ms += watch.elapsed_ms();

        core::BaselineStats stats;
        watch.restart();
        const auto fresh = core::baseline_single_path(
            scenario.overlay(), scenario.requirement, scenario.overlay_routing(),
            &stats);
        record.baseline_arena.wall_ms += watch.elapsed_ms();

        record.baseline_arena.arena_bytes += stats.arena_bytes;
        record.baseline_arena.dp_labels += stats.dp_labels;
        record.baseline_arena.dp_labels_pruned += stats.dp_labels_pruned;

        if (fresh != legacy) {
          std::cerr << "BASELINE MISMATCH: size " << size << " seed " << seed
                    << "\n";
          all_identical = false;
        }
        if (fresh)
          all_valid &= validate_or_complain(scenario, *fresh, "baseline", size,
                                            seed);
      }

      // --- sfederate: shared payload snapshots ----------------------------
      {
        const core::Scenario scenario =
            core::make_scenario(workload(size, overlay::RequirementShape::kGenericDag),
                                util::derive_seed(7400, size * 100 + seed));
        scenario.overlay_routing().precompute_all();

        const std::uint64_t copied_before = copied_bytes_counter();
        util::Stopwatch watch;
        const core::SFlowFederationResult result = core::run_sflow_federation(
            scenario.underlay, *scenario.routing, scenario.overlay(),
            scenario.overlay_routing(), scenario.requirement);
        record.federate.wall_ms += watch.elapsed_ms();
        const std::uint64_t copied = copied_bytes_counter() - copied_before;
        record.federate.copied_bytes += copied;
        record.federate.wire_bytes += result.bytes;

        // Without faults no sender writes a snapshot a payload still shares.
        if (copied != 0) {
          std::cerr << "SFEDERATE COPIED " << copied << " payload bytes: size "
                    << size << " seed " << seed << "\n";
          zero_copy = false;
        }
        if (result.flow_graph)
          all_valid &= validate_or_complain(scenario, *result.flow_graph,
                                            "sfederate", size, seed);
      }
    }

    explored_strictly_lower &= record.optimal_tables.nodes_explored <
                               record.optimal_legacy.nodes_explored;
    records.push_back(record);
  }

  util::TablePrinter table(
      {"nodes", "opt legacy ms", "opt tables ms", "opt speedup",
       "explored legacy", "explored tables", "pruned", "base legacy ms",
       "base arena ms", "fed ms", "fed wire KB", "copied B"});
  for (const SizeRecord& r : records) {
    table.add_row(
        {util::TablePrinter::fmt(static_cast<double>(r.nodes), 0),
         util::TablePrinter::fmt(r.optimal_legacy.wall_ms, 2),
         util::TablePrinter::fmt(r.optimal_tables.wall_ms, 2),
         util::TablePrinter::fmt(
             r.optimal_legacy.wall_ms / r.optimal_tables.wall_ms, 2),
         util::TablePrinter::fmt(
             static_cast<double>(r.optimal_legacy.nodes_explored), 0),
         util::TablePrinter::fmt(
             static_cast<double>(r.optimal_tables.nodes_explored), 0),
         util::TablePrinter::fmt(
             static_cast<double>(r.optimal_tables.nodes_pruned), 0),
         util::TablePrinter::fmt(r.baseline_legacy.wall_ms, 2),
         util::TablePrinter::fmt(r.baseline_arena.wall_ms, 2),
         util::TablePrinter::fmt(r.federate.wall_ms, 2),
         util::TablePrinter::fmt(
             static_cast<double>(r.federate.wire_bytes) / 1e3, 1),
         util::TablePrinter::fmt(
             static_cast<double>(r.federate.copied_bytes), 0)});
  }
  table.print(std::cout);
  std::cout << (all_identical ? "\noutcomes identical on every pair"
                              : "\nOUTCOME MISMATCH — see above")
            << (all_valid ? ", all validated" : ", VALIDATION FAILURES")
            << (zero_copy ? ", no payload copied\n"
                          : ", PAYLOADS COPIED — see above\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n  \"bench\": \"federation_kernel\",\n"
        << "  \"generator\": \"waxman\",\n"
        << "  \"seeds_per_size\": " << seeds << ",\n"
        << "  \"identical\": " << (all_identical ? "true" : "false") << ",\n"
        << "  \"validated\": " << (all_valid ? "true" : "false") << ",\n"
        << "  \"explored_strictly_lower\": "
        << (explored_strictly_lower ? "true" : "false") << ",\n"
        << "  \"sizes\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SizeRecord& r = records[i];
      out << (i ? "," : "") << "\n    {\n      \"nodes\": " << r.nodes << ",\n";
      out << "      \"optimal\": {\n"
          << "        \"legacy\": {\"wall_ms\": " << r.optimal_legacy.wall_ms
          << ", \"nodes_explored\": " << r.optimal_legacy.nodes_explored
          << ", \"nodes_pruned\": " << r.optimal_legacy.nodes_pruned << "},\n"
          << "        \"tables\": {\"wall_ms\": " << r.optimal_tables.wall_ms
          << ", \"nodes_explored\": " << r.optimal_tables.nodes_explored
          << ", \"nodes_pruned\": " << r.optimal_tables.nodes_pruned
          << ", \"table_bytes\": " << r.optimal_tables.table_bytes << "},\n"
          << "        \"speedup\": "
          << r.optimal_legacy.wall_ms / r.optimal_tables.wall_ms
          << ", \"explored_ratio\": "
          << static_cast<double>(r.optimal_legacy.nodes_explored) /
                 static_cast<double>(r.optimal_tables.nodes_explored)
          << "\n      },\n";
      out << "      \"baseline\": {\n"
          << "        \"legacy\": {\"wall_ms\": " << r.baseline_legacy.wall_ms
          << "},\n"
          << "        \"arena\": {\"wall_ms\": " << r.baseline_arena.wall_ms
          << ", \"arena_bytes\": " << r.baseline_arena.arena_bytes
          << ", \"dp_labels\": " << r.baseline_arena.dp_labels
          << ", \"dp_labels_pruned\": " << r.baseline_arena.dp_labels_pruned
          << "},\n        \"speedup\": "
          << r.baseline_legacy.wall_ms / r.baseline_arena.wall_ms
          << "\n      },\n";
      out << "      \"sfederate\": {\"wall_ms\": " << r.federate.wall_ms
          << ", \"copied_bytes\": " << r.federate.copied_bytes
          << ", \"wire_bytes\": " << r.federate.wire_bytes << "}\n    }";
    }
    out << "\n  ],\n  \"metrics\": "
        << obs::to_json(obs::Registry::global().snapshot(), "  ") << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return (all_identical && all_valid && zero_copy) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes = {10, 20, 30, 40};
  std::size_t seeds = 5;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      sizes = {10, 20};
      seeds = 1;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::strtoul(argv[++i], nullptr, 10);
      if (seeds == 0) seeds = 1;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--seeds N] [--json PATH]\n";
      return 2;
    }
  }
  return run(sizes, seeds, json_path);
}
