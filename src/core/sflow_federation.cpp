#include "core/sflow_federation.hpp"

#include <map>
#include <memory>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace sflow::core {

using overlay::OverlayIndex;
using overlay::ServiceFlowGraph;
using overlay::ServiceRequirement;
using overlay::Sid;

namespace {

/// Protocol metrics (docs/observability.md).  The registry references are
/// resolved once; mutation on the message paths is a relaxed atomic add.
struct ProtocolMetrics {
  obs::Counter& runs = obs::Registry::global().counter(
      "federation_runs_total", "sFlow federations started");
  obs::Counter& sfederate_messages = obs::Registry::global().counter(
      "sfederate_messages_total", "sfederate messages sent");
  obs::Counter& sfederate_bytes = obs::Registry::global().counter(
      "sfederate_payload_bytes_total", "sfederate payload bytes sent");
  obs::Counter& sfederate_hops = obs::Registry::global().counter(
      "sfederate_underlay_hops_total",
      "underlay hops traversed by sfederate messages");
  obs::Counter& sreport_messages = obs::Registry::global().counter(
      "sreport_messages_total", "sreport messages sent to the collector");
  obs::Counter& sreport_bytes = obs::Registry::global().counter(
      "sreport_payload_bytes_total", "sreport payload bytes sent");
  obs::Counter& sack_messages = obs::Registry::global().counter(
      "sack_messages_total", "sack acknowledgements sent (fault mode)");
  obs::Counter& scorrect_messages = obs::Registry::global().counter(
      "scorrect_messages_total", "scorrect failover corrections sent");
  obs::Counter& ack_timeouts = obs::Registry::global().counter(
      "ack_timeouts_total", "ack timers that fired without an ack");
  obs::Counter& failovers = obs::Registry::global().counter(
      "failovers_total", "failovers performed after ack timeouts");
  obs::Counter& node_computations = obs::Registry::global().counter(
      "federation_node_computations_total", "local sFlow computations run");
  obs::Counter& global_fallbacks = obs::Registry::global().counter(
      "federation_global_fallbacks_total",
      "pins that fell back to the global link-state database");
  /// Shared with core/link_state.cpp: every protocol message/byte, whatever
  /// the protocol — the §7 overhead comparison reads these two.  These stay
  /// *logical* wire bytes; snapshot sharing below changes only what the host
  /// process physically copies.
  obs::Counter& protocol_messages = obs::Registry::global().counter(
      "protocol_messages_total", "simulated protocol messages delivered");
  obs::Counter& protocol_bytes = obs::Registry::global().counter(
      "protocol_payload_bytes_total", "simulated protocol bytes delivered");
  /// Host-side bytes actually deep-copied for payloads: copy-on-write clones
  /// of a snapshot that in-flight payloads still share.
  obs::Counter& payload_copy_bytes = obs::Registry::global().counter(
      "payload_physical_copy_bytes_total",
      "payload bytes physically deep-copied (COW clones)");
};

ProtocolMetrics& metrics() {
  static ProtocolMetrics instance;
  return instance;
}

/// The mutable federation state a payload snapshots: accumulated pins and
/// the snowballed partial flow graph.
struct Snapshot {
  std::map<Sid, net::Nid> pins;
  ServiceFlowGraph partial;
};

/// Payload of sfederate and sreport messages.  The snapshot is shared,
/// immutable, between the sender's state and every in-flight message —
/// senders clone on write (see `owned`) instead of deep-copying per send.
struct Payload {
  std::shared_ptr<const ServiceRequirement> original;
  std::shared_ptr<const Snapshot> state;
};

/// Payload of sack messages: the acknowledged service.
struct Ack {
  Sid sid = overlay::kInvalidSid;
};

/// Payload of scorrect messages: a failover's corrected realization.  Stale
/// copies of the replaced edge may still be snowballing through sibling
/// branches; the collector lets corrections win.
struct Correction {
  overlay::FlowEdge edge;
  OverlayIndex replacement = graph::kInvalidNode;
};

/// Rough wire-size model for protocol accounting: fixed header, 8 bytes per
/// requirement element, 12 per pin, 16 per assignment, and the realized
/// paths at 8 bytes per hop.  Logical bytes: a message "carries" its whole
/// snapshot on the wire no matter how the host process shares memory.
std::size_t estimate_size(const ServiceRequirement& original,
                          const Snapshot& snap) {
  std::size_t size = 64;
  size += 8 * (original.service_count() + original.dag().edge_count());
  size += 12 * snap.pins.size();
  size += 16 * snap.partial.assignments().size();
  for (const overlay::FlowEdge& e : snap.partial.edges())
    size += 16 + 8 * e.overlay_path.size();
  return size;
}

/// One in-flight sfederate awaiting its ack.
struct PendingAck {
  OverlayIndex target = graph::kInvalidNode;
  std::size_t attempts = 0;
  std::set<OverlayIndex> excluded;  // instances that already timed out
};

struct NodeState {
  std::size_t received = 0;
  bool computed = false;
  /// This node's pins + accumulated partial, shared read-only with every
  /// in-flight payload that snapshotted it.  Mutate only through `owned`.
  std::shared_ptr<Snapshot> snap = std::make_shared<Snapshot>();
  std::map<Sid, PendingAck> pending;  // downstream service -> awaited ack
};

/// The single mutating hop of the zero-copy scheme: clones the snapshot iff
/// in-flight payloads still reference it (the simulation is single-threaded,
/// so use_count is exact) and returns a safely writable view.
Snapshot& owned(NodeState& state, const ServiceRequirement& original,
                obs::Counter& copy_bytes) {
  if (state.snap.use_count() > 1) {
    copy_bytes.add(estimate_size(original, *state.snap));
    state.snap = std::make_shared<Snapshot>(*state.snap);
  }
  return *state.snap;
}

/// First-writer merge that silently skips superseded copies.  After a
/// failover, stale snowballed partials (referencing the dead instance) and
/// corrected ones meet at downstream joins; node decisions depend only on
/// pins, and the collector reconciles via frozen corrections, so receivers
/// may keep whichever copy arrived first instead of throwing.
void merge_lenient(ServiceFlowGraph& into, const ServiceFlowGraph& from) {
  for (const auto& [sid, instance] : from.assignments()) {
    if (!into.assignment(sid)) into.assign(sid, instance);
  }
  for (const overlay::FlowEdge& e : from.edges()) {
    const auto a = into.assignment(e.from_sid);
    const auto b = into.assignment(e.to_sid);
    if (a && *a != e.overlay_path.front()) continue;
    if (b && *b != e.overlay_path.back()) continue;
    if (into.find_edge(e.from_sid, e.to_sid) != nullptr) continue;
    into.set_edge(e.from_sid, e.to_sid, e.overlay_path, e.quality);
  }
}

/// The collector's assembly state.  Edges and assignments are keyed; normal
/// reports use first-writer-wins (identical duplicates arrive via several
/// sinks), corrections overwrite and freeze their key against later stale
/// copies.  Every edge has a single legitimate writer (its upstream node),
/// so correction-wins is sound.
struct Assembly {
  std::map<Sid, OverlayIndex> assignments;
  std::set<Sid> assignment_frozen;
  std::map<std::pair<Sid, Sid>, overlay::FlowEdge> edges;
  std::set<std::pair<Sid, Sid>> edge_frozen;

  void absorb_assignment(Sid sid, OverlayIndex instance, bool corrected) {
    if (corrected) {
      assignments[sid] = instance;
      assignment_frozen.insert(sid);
    } else if (!assignment_frozen.contains(sid)) {
      assignments.emplace(sid, instance);
    }
  }

  void absorb_edge(const overlay::FlowEdge& edge, bool corrected) {
    const std::pair<Sid, Sid> key{edge.from_sid, edge.to_sid};
    if (corrected) {
      edges[key] = edge;
      edge_frozen.insert(key);
    } else if (!edge_frozen.contains(key)) {
      edges.emplace(key, edge);
    }
  }

  /// A complete, internally consistent flow graph, or nullopt.
  std::optional<ServiceFlowGraph> try_assemble(
      const ServiceRequirement& requirement) const {
    for (const Sid sid : requirement.services())
      if (!assignments.contains(sid)) return std::nullopt;
    ServiceFlowGraph graph;
    for (const graph::Edge& e : requirement.dag().edges()) {
      const Sid from = requirement.sid_of(e.from);
      const Sid to = requirement.sid_of(e.to);
      const auto it = edges.find({from, to});
      if (it == edges.end()) return std::nullopt;
      const overlay::FlowEdge& edge = it->second;
      // Stale edges referencing superseded instances keep the assembly
      // incomplete until their corrections arrive.
      if (edge.overlay_path.front() != assignments.at(from) ||
          edge.overlay_path.back() != assignments.at(to))
        return std::nullopt;
    }
    for (const auto& [sid, instance] : assignments)
      graph.assign(sid, instance);
    for (const graph::Edge& e : requirement.dag().edges())
      graph.merge_from([&] {
        ServiceFlowGraph one;
        const overlay::FlowEdge& edge =
            edges.at({requirement.sid_of(e.from), requirement.sid_of(e.to)});
        one.set_edge(edge.from_sid, edge.to_sid, edge.overlay_path, edge.quality);
        return one;
      }());
    return graph;
  }
};

}  // namespace

SFlowFederationResult run_sflow_federation(
    const net::UnderlyingNetwork& underlay, const net::UnderlayRouting& routing,
    const overlay::OverlayGraph& overlay,
    const graph::AllPairsShortestWidest& overlay_routing,
    const ServiceRequirement& requirement, const SFlowNodeConfig& config,
    const FederationFaultOptions& faults, FederationTrace* trace) {
  requirement.validate();
  SFlowFederationResult result;
  util::CpuTimeAccumulator compute_time;
  ProtocolMetrics& counters = metrics();
  counters.runs.increment();
  // Underlay hop count of one message, for the per-message hop accounting.
  const auto underlay_hops = [&routing](net::Nid a, net::Nid b) -> std::size_t {
    if (a == b) return 0;
    const auto route = routing.route(a, b);
    return route ? route->size() - 1 : 0;
  };

  // The consumer contacts a concrete source instance.
  const Sid source_sid = requirement.source();
  OverlayIndex source_instance = graph::kInvalidNode;
  if (const auto pin = requirement.pinned(source_sid)) {
    const auto inst = overlay.instance_at(*pin);
    if (!inst || overlay.instance(*inst).sid != source_sid)
      throw std::invalid_argument("run_sflow_federation: bad source pin");
    source_instance = *inst;
  } else {
    const auto instances = overlay.instances_of(source_sid);
    if (instances.empty()) return result;
    source_instance = instances.front();
  }
  const net::Nid collector_nid = overlay.instance(source_instance).nid;

  auto original = std::make_shared<const ServiceRequirement>(requirement);

  sim::Simulator simulator(underlay, routing);
  std::map<net::Nid, NodeState> states;
  Assembly assembly;
  std::optional<ServiceFlowGraph> assembled;
  double completion_time = 0.0;

  const auto check_complete = [&] {
    if (assembled) return;
    assembled = assembly.try_assemble(*original);
    if (assembled) {
      completion_time = simulator.now();
      if (trace != nullptr)
        trace->record({simulator.now(), collector_nid,
                       TraceEvent::Kind::kAssembled, overlay::kInvalidSid,
                       graph::kInvalidNode});
      if (obs::EventJournal::global().enabled())
        obs::EventJournal::global().append(
            {simulator.now(), obs::JournalEvent::Kind::kMilestone,
             collector_nid, -1, assembled->bottleneck_bandwidth(), 0.0,
             "flow_assembled"});
    }
  };

  // Deterministic failover rule: the best surviving candidate of `sid` by
  // shortest-widest quality from the source instance (globally known), so
  // independent upstreams converge without coordination.
  const auto pick_replacement =
      [&](Sid sid, const std::set<OverlayIndex>& excluded) -> OverlayIndex {
    OverlayIndex best = graph::kInvalidNode;
    graph::PathQuality best_quality = graph::PathQuality::unreachable();
    for (const OverlayIndex c : overlay.instances_of(sid)) {
      if (excluded.contains(c)) continue;
      const graph::PathQuality& q =
          c == source_instance ? graph::PathQuality::source()
                               : overlay_routing.quality(source_instance, c);
      if (q.is_unreachable()) continue;
      if (best == graph::kInvalidNode || q.better_than(best_quality)) {
        best = c;
        best_quality = q;
      }
    }
    return best;
  };

  // Sends one sfederate from `self` for downstream service `sid` and arms
  // the ack timer (fault mode only).
  std::function<void(OverlayIndex, Sid, OverlayIndex)> dispatch =
      [&](OverlayIndex self, Sid sid, OverlayIndex target) {
        const net::Nid self_nid = overlay.instance(self).nid;
        NodeState& state = states[self_nid];
        Payload out{original, state.snap};  // shared; the sender clones on write
        const std::size_t size = estimate_size(*original, *out.state);
        const net::Nid target_nid = overlay.instance(target).nid;
        counters.sfederate_messages.increment();
        counters.sfederate_bytes.add(size);
        counters.sfederate_hops.add(underlay_hops(self_nid, target_nid));
        simulator.send(sim::Message{self_nid, target_nid,
                                    "sfederate", std::move(out), size});
        if (trace != nullptr)
          trace->record({simulator.now(), self_nid,
                         TraceEvent::Kind::kDispatched, sid,
                         overlay.instance(target).nid});
        if (faults.crashed.empty()) return;  // no fault mode: no timers

        state.pending[sid].target = target;
        simulator.schedule(faults.ack_timeout_ms, [&, self, sid, target] {
          const net::Nid nid = overlay.instance(self).nid;
          NodeState& sender = states[nid];
          const auto it = sender.pending.find(sid);
          if (it == sender.pending.end() || it->second.target != target)
            return;  // acked or already failed over: stale timer
          counters.ack_timeouts.increment();
          it->second.excluded.insert(target);
          if (++it->second.attempts > faults.max_failovers) return;  // give up
          const OverlayIndex replacement =
              pick_replacement(sid, it->second.excluded);
          if (replacement == graph::kInvalidNode) return;  // nobody left
          result.failovers += 1;
          counters.failovers.increment();
          if (trace != nullptr)
            trace->record({simulator.now(), nid, TraceEvent::Kind::kFailover,
                           sid, overlay.instance(replacement).nid});
          if (obs::EventJournal::global().enabled())
            obs::EventJournal::global().append(
                {simulator.now(), obs::JournalEvent::Kind::kMilestone, nid,
                 overlay.instance(replacement).nid, static_cast<double>(sid),
                 0.0, "failover"});

          const Sid self_sid = overlay.instance(self).sid;
          const auto path = overlay_routing.path(self, replacement);
          if (!path) return;
          const overlay::FlowEdge corrected{
              self_sid, sid, *path, overlay_routing.quality(self, replacement)};

          // Patch local state: override the pin, rebuild around the corrected
          // edge (other stale edges touching the dead instance — e.g. a
          // snowballed copy of a sibling upstream's edge — are skipped; their
          // owners run their own failovers and corrections).
          Snapshot& mine = owned(sender, *original, counters.payload_copy_bytes);
          mine.pins[sid] = overlay.instance(replacement).nid;
          ServiceFlowGraph repaired;
          for (const auto& [s, inst] : mine.partial.assignments())
            if (s != sid) repaired.assign(s, inst);
          repaired.set_edge(corrected.from_sid, corrected.to_sid,
                            corrected.overlay_path, corrected.quality);
          ServiceFlowGraph old_edges;
          for (const overlay::FlowEdge& e : mine.partial.edges())
            if (!(e.from_sid == self_sid && e.to_sid == sid))
              old_edges.set_edge(e.from_sid, e.to_sid, e.overlay_path, e.quality);
          merge_lenient(repaired, old_edges);
          mine.partial = std::move(repaired);

          // Tell the collector; stale copies of the old edge may still be
          // snowballing through sibling branches.
          counters.scorrect_messages.increment();
          simulator.send(sim::Message{
              nid, collector_nid, "scorrect",
              Correction{corrected, replacement},
              32 + 8 * corrected.overlay_path.size()});
          dispatch(self, sid, replacement);
        });
      };

  // Every instance gets a handler; crashed nodes swallow everything.
  for (std::size_t v = 0; v < overlay.instance_count(); ++v) {
    const auto self = static_cast<OverlayIndex>(v);
    const net::Nid nid = overlay.instance(self).nid;
    if (faults.crashed.contains(nid)) {
      simulator.register_handler(nid, [](const sim::Message&) {});
      continue;
    }
    simulator.register_handler(nid, [&, self, nid](const sim::Message& msg) {
      if (msg.type == "sack") {
        const Ack ack = std::any_cast<Ack>(msg.payload);
        NodeState& sender = states[nid];
        const auto it = sender.pending.find(ack.sid);
        if (it != sender.pending.end() &&
            overlay.instance(it->second.target).nid == msg.from)
          sender.pending.erase(it);
        return;
      }

      if (msg.type == "scorrect") {
        // Collector only.
        const Correction correction = std::any_cast<Correction>(msg.payload);
        assembly.absorb_edge(correction.edge, /*corrected=*/true);
        assembly.absorb_assignment(correction.edge.to_sid, correction.replacement,
                                   /*corrected=*/true);
        check_complete();
        return;
      }

      const auto& payload = std::any_cast<const Payload&>(msg.payload);

      if (msg.type == "sreport") {
        // Collector only: one node's own contribution (its assignment and
        // the edges it realized) — single-writer, so first-write suffices
        // and only corrections may override.  Crucially, only the sender's
        // *self*-claim counts as an assignment: edge endpoints must not
        // assign a service, or a crashed target would look placed before its
        // failover ran (it never claims itself — it is dead).
        const auto owner = overlay.instance_at(msg.from);
        if (owner) {
          const Sid owner_sid = overlay.instance(*owner).sid;
          if (const auto claimed = payload.state->partial.assignment(owner_sid))
            assembly.absorb_assignment(owner_sid, *claimed, /*corrected=*/false);
        }
        for (const overlay::FlowEdge& e : payload.state->partial.edges())
          assembly.absorb_edge(e, /*corrected=*/false);
        check_complete();
        return;
      }

      // sfederate: acknowledge first (even duplicates), then process.
      const Sid self_sid = overlay.instance(self).sid;
      if (!faults.crashed.empty() && msg.from != nid) {
        counters.sack_messages.increment();
        simulator.send(sim::Message{nid, msg.from, "sack", Ack{self_sid}, 16});
      }

      if (trace != nullptr)
        trace->record({simulator.now(), nid, TraceEvent::Kind::kDelivered,
                       self_sid, msg.from});

      NodeState& state = states[nid];
      state.received += 1;
      // Writable view of the own snapshot (clones it iff in-flight payloads
      // still share it); `payload.state` stays valid across the clone — the
      // message keeps its reference alive.
      Snapshot& mine = owned(state, *original, counters.payload_copy_bytes);
      // Claim the own assignment before merging: after a failover, payloads
      // may still carry the dead predecessor's assignment of this service,
      // and the receiving instance's identity is authoritative.
      if (!mine.partial.assignment(self_sid))
        mine.partial.assign(self_sid, self);
      merge_lenient(mine.partial, payload.state->partial);
      for (const auto& [sid, pin_nid] : payload.state->pins)
        mine.pins.emplace(sid, pin_nid);  // first writer wins

      const std::size_t expected =
          std::max<std::size_t>(1, original->upstream(self_sid).size());
      if (state.computed || state.received < expected) return;
      state.computed = true;
      result.node_computations += 1;
      counters.node_computations.increment();
      if (trace != nullptr)
        trace->record({simulator.now(), nid, TraceEvent::Kind::kComputed,
                       self_sid, graph::kInvalidNode});

      LocalDecision decision;
      {
        const auto scope = compute_time.scope();
        decision = sflow_local_compute(overlay, overlay_routing, self, *original,
                                       mine.pins, config);
      }
      result.global_fallbacks += decision.global_fallbacks;
      counters.global_fallbacks.add(decision.global_fallbacks);
      if (decision.infeasible) {
        // This node found a required service unreachable: its branch dies
        // here, the collector never assembles a complete graph, and the
        // federation reports failure (flow_graph == nullopt) instead of an
        // exception unwinding through the simulator.
        return;
      }
      for (const auto& [sid, pin_nid] : decision.new_pins) {
        mine.pins.emplace(sid, pin_nid);
        if (trace != nullptr)
          trace->record({simulator.now(), nid, TraceEvent::Kind::kPinned, sid,
                         pin_nid});
      }
      for (const overlay::FlowEdge& e : decision.new_edges)
        mine.partial.set_edge(e.from_sid, e.to_sid, e.overlay_path, e.quality);

      // Report the own contribution straight to the collector.  Snowballed
      // partials keep travelling with sfederate (the paper's design), but
      // assembly must not depend on their fidelity: after a failover, stale
      // copies can shadow corrected edges at downstream joins.
      {
        auto contribution = std::make_shared<Snapshot>();
        contribution->partial.assign(self_sid, self);
        for (const overlay::FlowEdge& e : decision.new_edges)
          contribution->partial.set_edge(e.from_sid, e.to_sid, e.overlay_path,
                                         e.quality);
        Payload out{original, std::move(contribution)};
        const std::size_t size = estimate_size(*original, *out.state);
        counters.sreport_messages.increment();
        counters.sreport_bytes.add(size);
        simulator.send(
            sim::Message{nid, collector_nid, "sreport", std::move(out), size});
        if (trace != nullptr)
          trace->record({simulator.now(), nid, TraceEvent::Kind::kReported,
                         self_sid, collector_nid});
      }
      for (const auto& [sid, instance] : decision.forward)
        dispatch(self, sid, instance);
    });
  }

  // The consumer (co-located with the collector) kicks off the federation.
  {
    if (obs::EventJournal::global().enabled())
      obs::EventJournal::global().append(
          {simulator.now(), obs::JournalEvent::Kind::kMilestone, collector_nid,
           -1, static_cast<double>(requirement.service_count()), 0.0,
           "federation_start"});
    auto kickoff = std::make_shared<Snapshot>();
    kickoff->pins.emplace(source_sid, collector_nid);
    Payload initial{original, std::move(kickoff)};
    const std::size_t size = estimate_size(*original, *initial.state);
    counters.sfederate_messages.increment();
    counters.sfederate_bytes.add(size);
    simulator.send(sim::Message{collector_nid, collector_nid, "sfederate",
                                std::move(initial), size});
  }
  simulator.run();

  result.compute_time_us = compute_time.total_us();
  result.messages = simulator.stats().messages_delivered;
  result.bytes = simulator.stats().bytes_delivered;
  counters.protocol_messages.add(result.messages);
  counters.protocol_bytes.add(result.bytes);
  if (assembled) {
    result.flow_graph = std::move(*assembled);
    result.federation_time_ms = completion_time;
  }
  return result;
}

}  // namespace sflow::core
