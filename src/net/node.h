#pragma once
// Base class for anything attached to the network graph (hosts, switches).

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/logger.h"
#include "sim/simulator.h"

namespace dcp {

/// Concrete datapath type of a Node, cached by Channel at connect() time
/// so delivery static-dispatches to Switch/Host::receive_fast; only kOther
/// endpoints (test sinks, tools) are reached through the virtual receive.
enum class NodeKind : std::uint8_t { kOther = 0, kHost = 1, kSwitch = 2 };

class Node {
 public:
  Node(Simulator& sim, Logger& log, NodeId id, std::string name)
      : Node(sim, log, id, std::move(name), NodeKind::kOther) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  NodeKind kind() const { return kind_; }
  /// The simulator driving this node — in a sharded run, the node's shard.
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// Delivery of a pooled packet arriving on `in_port`.  The node owns the
  /// handle from here on: forwarding moves it onward, dropping just lets
  /// it die (the slot returns to the pool).
  virtual void receive(PacketPtr pkt, std::uint32_t in_port) = 0;

  /// Convenience for tests and tools that build packets by value: pools
  /// the packet and forwards to the virtual overload.  Subclasses pull
  /// both into scope with `using Node::receive;`.
  void receive(Packet pkt, std::uint32_t in_port) {
    receive(PacketPtr::make(std::move(pkt)), in_port);
  }

  /// Optional per-node observation hook, invoked for every packet the node
  /// receives (before processing).  Installed by diagnostic tooling such
  /// as PacketTracer; nullptr in normal operation.
  std::function<void(const Node&, const Packet&, std::uint32_t)> trace_hook;

 protected:
  Node(Simulator& sim, Logger& log, NodeId id, std::string name, NodeKind kind)
      : sim_(sim), log_(log), id_(id), name_(std::move(name)), kind_(kind) {
    sim.reserve_origin(id);  // the node's tie-break key counter
  }

  void maybe_trace(const Packet& pkt, std::uint32_t in_port) const {
    if (trace_hook) trace_hook(*this, pkt, in_port);
  }
  /// Hot-path variant: the flat gather happens only once a hook is
  /// actually installed.
  void maybe_trace(const PacketHot& pkt, std::uint32_t in_port) const {
    if (trace_hook) trace_hook(*this, Packet(pkt), in_port);
  }

  Simulator& sim_;
  Logger& log_;

 private:
  NodeId id_;
  std::string name_;
  NodeKind kind_ = NodeKind::kOther;
};

}  // namespace dcp
