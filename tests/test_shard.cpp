// Space-parallel sharding mechanics: the ShardGroup window/barrier
// coordinator, per-origin tie-break keys, the cross-shard channel mailbox
// and what a sharded network refuses.  End-to-end digest equality against
// the serial path lives in test_shard_digest.cpp; this file pins down the
// moving parts in isolation.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/observer.h"
#include "harness/scheme.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "topo/clos.h"
#include "topo/network.h"

namespace dcp {
namespace {

class SinkNode final : public Node {
 public:
  SinkNode(Simulator& sim, Logger& log, NodeId id = 0) : Node(sim, log, id, "sink") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t in_port) override {
    arrivals.push_back({sim_.now(), std::move(*pkt), in_port});
  }
  struct Arrival {
    Time t;
    Packet pkt;
    std::uint32_t port;
  };
  std::vector<Arrival> arrivals;
};

/// Records the drop sites a simulator's check observer is told about.
class DropRecorder final : public CheckObserver {
 public:
  void on_drop(DropSite site, NodeId node, const Packet& pkt) override {
    (void)node;
    (void)pkt;
    sites.push_back(site);
  }
  std::vector<DropSite> sites;
};

Packet data_packet(std::uint32_t bytes, std::uint32_t psn = 0) {
  Packet p;
  p.type = PktType::kData;
  p.wire_bytes = bytes;
  p.payload_bytes = bytes;
  p.psn = psn;
  return p;
}

// ---------------------------------------------------------------------------
// Group basics
// ---------------------------------------------------------------------------

TEST(ShardGroup, SizeOneIsThePlainSerialPath) {
  ShardGroup g(1);
  EXPECT_EQ(g.size(), 1);
  EXPECT_FALSE(g.sharded());
  EXPECT_TRUE(g.idle());

  std::vector<Time> fired;
  g.sim(0).schedule_at(microseconds(3), [&] { fired.push_back(g.sim(0).now()); });
  g.sim(0).schedule_at(microseconds(1), [&] { fired.push_back(g.sim(0).now()); });
  // A window on an unsharded group is just Simulator::run(cap).
  g.run_window_adaptive(microseconds(10));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], microseconds(1));
  EXPECT_EQ(fired[1], microseconds(3));
  EXPECT_EQ(g.events_processed(), 2u);
}

/// Records the key of every event it runs: each arrival, and a follow-up
/// one-shot the arrival schedules (a draw on this node's own counter).
class KeyRecorder final : public Node {
 public:
  KeyRecorder(Simulator& sim, Logger& log, NodeId id) : Node(sim, log, id, "keys") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t in_port) override {
    (void)pkt;
    (void)in_port;
    keys.push_back(sim_.current_event_seq());
    sim_.schedule(nanoseconds(300), [this] { keys.push_back(sim_.current_event_seq()); });
  }
  std::vector<std::uint64_t> keys;
};

/// Two nodes exchanging same-instant packet trains over a 1 us link, on one
/// simulator (n == 1) or on two shards with the link as a cut edge.
/// Returns every event key each node ran, in execution order.
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> exchange_keys(int n) {
  ShardGroup g(n);
  Logger log{LogLevel::kOff};
  Simulator& sa = g.sim(0);
  Simulator& sb = g.sim(n - 1);
  KeyRecorder a(sa, log, 0);
  KeyRecorder b(sb, log, 1);
  Channel ab(sa, Bandwidth::gbps(100), microseconds(1));
  Channel ba(sb, Bandwidth::gbps(100), microseconds(1));
  ab.connect(&b, 0);
  ba.connect(&a, 0);
  if (n > 1) {
    g.set_lookahead(microseconds(1));
    ab.enable_shard_mode(sb);
    ba.enable_shard_mode(sa);
    g.add_cross_drain(0, [&ab] { return ab.drain_cross(); });
    g.add_cross_drain(1, [&ba] { return ba.drain_cross(); });
  }
  // A node-less setup draw between the nodes' own, on each simulator.
  sb.schedule_at(0, [] {});
  for (int i = 0; i < 3; ++i) {
    const Time at = i * nanoseconds(500);
    {
      OriginScope as_a(sa, a.id());
      sa.schedule_at(at, [&ab] {
        for (int k = 0; k < 2; ++k) ab.deliver(data_packet(64), 0);
      });
    }
    OriginScope as_b(sb, b.id());
    sb.schedule_at(at, [&ba] { ba.deliver(data_packet(64), 0); });
  }
  sa.schedule_at(0, [] {});
  while (!g.idle()) g.run_window_adaptive(milliseconds(1));
  return {a.keys, b.keys};
}

TEST(ShardGroup, NodeKeysEqualUnderOneAndTwoShards) {
  // A key packs the node an event runs as with that node's own counter, so
  // one node's keys are a function of its own execution history: the same
  // whether its peer shares its simulator or runs on another shard.
  const auto serial = exchange_keys(1);
  const auto sharded = exchange_keys(2);
  EXPECT_EQ(serial.first.size(), 6u);   // 3 arrivals + 3 follow-ups at a
  EXPECT_EQ(serial.second.size(), 12u);  // 6 arrivals + 6 follow-ups at b
  EXPECT_EQ(serial.first, sharded.first);
  EXPECT_EQ(serial.second, sharded.second);
}

TEST(ShardGroup, ShardedNetworkRefusesFlowListeners) {
  // Listeners mutate shared state from a completing host's event; a
  // sharded run refuses them before its first window.
  for (int which = 0; which < 2; ++which) {
    ShardGroup g(2);
    Logger log{LogLevel::kOff};
    Network net(g, log);
    ClosParams cp;
    cp.spines = 1;
    cp.leaves = 2;
    cp.hosts_per_leaf = 1;
    SchemeSetup setup = make_scheme(SchemeKind::kDcp);
    cp.sw = setup.sw;
    const ClosTopology topo = build_clos(net, cp);
    apply_scheme(net, setup);
    if (which == 0) {
      net.add_tx_listener([](const FlowRecord&) {});
    } else {
      net.add_rx_listener([](const FlowRecord&) {});
    }
    FlowSpec spec;
    spec.src = topo.hosts[0]->id();
    spec.dst = topo.hosts[1]->id();
    spec.bytes = 4096;
    net.start_flow(spec);
    EXPECT_THROW(net.run_until_done(milliseconds(1)), std::logic_error) << "listener " << which;
  }
}

TEST(ShardGroup, WindowBoundIsInclusiveAndStrict) {
  // Lookahead past every event: the window bound is the cap itself.
  ShardGroup g(2);
  g.set_lookahead(microseconds(100));
  std::vector<int> fired0, fired1;
  g.sim(0).schedule_at(microseconds(2), [&] { fired0.push_back(2); });
  g.sim(0).schedule_at(microseconds(7), [&] { fired0.push_back(7); });
  g.sim(1).schedule_at(microseconds(2), [&] { fired1.push_back(2); });
  g.sim(1).schedule_at(microseconds(5), [&] { fired1.push_back(5); });

  EXPECT_EQ(g.next_time(), microseconds(2));
  g.run_window_adaptive(microseconds(5));  // inclusive: the t=5 event runs
  EXPECT_EQ(fired0, (std::vector<int>{2}));
  EXPECT_EQ(fired1, (std::vector<int>{2, 5}));
  EXPECT_EQ(g.next_time(), microseconds(7));

  g.run_window_adaptive(microseconds(7));
  EXPECT_EQ(fired0, (std::vector<int>{2, 7}));
  EXPECT_TRUE(g.idle());
  EXPECT_EQ(g.events_processed(), 4u);
  EXPECT_EQ(g.max_now(), microseconds(7));
}

TEST(ShardGroup, WindowSpansOneLookaheadFromTheEarliestEvent) {
  // One uniform bound, earliest next event + L - 1, for every shard; a
  // shard with nothing inside it is not dispatched and keeps its clock.
  ShardGroup g(2);
  g.set_lookahead(microseconds(1));
  std::vector<int> fired0;
  g.sim(0).schedule_at(microseconds(2), [&] { fired0.push_back(2); });
  g.sim(0).schedule_at(microseconds(3) - 1, [&] { fired0.push_back(3); });
  g.sim(1).schedule_at(microseconds(3), [] {});

  g.run_window_adaptive(microseconds(10));
  EXPECT_EQ(fired0, (std::vector<int>{2, 3}));
  EXPECT_EQ(g.sim(0).now(), microseconds(3) - 1);
  EXPECT_EQ(g.sim(1).now(), 0);
  EXPECT_EQ(g.next_time(), microseconds(3));
  EXPECT_EQ(g.windows(), 1u);
  EXPECT_EQ(g.shard_windows(1), 0u);
}

TEST(ShardGroup, EventsScheduledInsideAWindowRunInsideIt) {
  // A window event scheduling a follow-up still inside the bound must see
  // it fire in the same window (the queue keeps running to the bound).
  ShardGroup g(2);
  g.set_lookahead(microseconds(100));
  std::vector<Time> fired;
  g.sim(0).schedule_at(microseconds(1), [&] {
    g.sim(0).schedule_at(microseconds(2), [&] { fired.push_back(g.sim(0).now()); });
  });
  g.run_window_adaptive(microseconds(3));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], microseconds(2));
}

// ---------------------------------------------------------------------------
// Cross-shard mailbox
// ---------------------------------------------------------------------------

struct CrossFixture {
  ShardGroup g{2};
  Logger log{LogLevel::kOff};
  SinkNode sink{g.sim(1), log};
  Channel ch{g.sim(0), Bandwidth::gbps(100), microseconds(1)};

  CrossFixture() {
    g.set_lookahead(microseconds(1));
    ch.connect(&sink, 4);
    ch.enable_shard_mode(g.sim(1));
    g.add_cross_drain(0, [this] { return ch.drain_cross(); });
  }
};

TEST(ShardCross, DeliversAcrossTheCutAtTheExactSerialInstant) {
  CrossFixture f;
  const Time ser = f.ch.serialization(1000);
  for (int i = 0; i < 3; ++i) {
    f.g.sim(0).schedule_at(i * ser, [&f, i, ser] {
      f.ch.deliver(data_packet(1000, static_cast<std::uint32_t>(i)), ser);
    });
  }
  // Window 1 covers the sends; arrivals land strictly later (t + 1us).
  f.g.run_window_adaptive(2 * ser);
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(f.ch.cross_pending(), 3u);

  f.g.run_window_adaptive(3 * ser + microseconds(1));
  ASSERT_EQ(f.sink.arrivals.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].pkt.psn,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].t, (i + 1) * ser + microseconds(1));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].port, 4u);
  }
  EXPECT_EQ(f.ch.cross_pending(), 0u);
  EXPECT_EQ(f.ch.delivered_packets(), 3u);
}

TEST(ShardCross, SameInstantArrivalsKeepIssueOrder) {
  CrossFixture f;
  f.g.sim(0).schedule_at(0, [&f] {
    for (int i = 0; i < 4; ++i) {
      f.ch.deliver(data_packet(64, static_cast<std::uint32_t>(i)), 0);
    }
  });
  f.g.run_window_adaptive(0);
  f.g.run_window_adaptive(microseconds(1));
  ASSERT_EQ(f.sink.arrivals.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].pkt.psn,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].t, microseconds(1));
  }
  // One event per delivery on the destination shard — the same charge the
  // serial lane makes.
  EXPECT_EQ(f.g.sim(1).events_processed(), 4u);
}

/// Two sources, each sending a same-instant train to one sink: source 0
/// over a 1 us link that is a cut edge when n == 2, source 1 over a local
/// one.  Returns the psn order the sink saw.
std::vector<std::uint32_t> two_source_arrivals(int n) {
  ShardGroup g(n);
  Logger log{LogLevel::kOff};
  Simulator& s0 = g.sim(0);
  Simulator& s1 = g.sim(n - 1);
  SinkNode src0(s0, log, 1);
  SinkNode src1(s1, log, 2);
  SinkNode sink(s1, log, 3);
  Channel c0(s0, Bandwidth::gbps(100), microseconds(1));
  Channel c1(s1, Bandwidth::gbps(100), microseconds(1));
  c0.connect(&sink, 0);
  c1.connect(&sink, 1);
  if (n > 1) {
    g.set_lookahead(microseconds(1));
    c0.enable_shard_mode(s1);
    g.add_cross_drain(0, [&c0] { return c0.drain_cross(); });
  }
  {
    OriginScope as_src0(s0, src0.id());
    s0.schedule_at(0, [&c0] {
      for (std::uint32_t i = 0; i < 4; ++i) c0.deliver(data_packet(64, i), 0);
    });
  }
  {
    OriginScope as_src1(s1, src1.id());
    s1.schedule_at(0, [&c1] {
      for (std::uint32_t i = 0; i < 4; ++i) c1.deliver(data_packet(64, 10 + i), 0);
    });
  }
  while (!g.idle()) g.run_window_adaptive(milliseconds(1));
  std::vector<std::uint32_t> psns;
  for (const auto& a : sink.arrivals) {
    EXPECT_EQ(a.t, microseconds(1));
    psns.push_back(a.pkt.psn);
  }
  return psns;
}

TEST(ShardCross, SameInstantArrivalsFromTwoShardsTieLikeSerial) {
  // All eight packets reach the sink at the same instant, half through the
  // mailbox and half through a local lane: the keys, not the delivery
  // path, break the ties, so the order is the serial run's — and each
  // source's own train stays in issue order.
  const std::vector<std::uint32_t> serial = two_source_arrivals(1);
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_EQ(two_source_arrivals(2), serial);
  std::vector<std::uint32_t> from0, from1;
  for (std::uint32_t psn : serial) (psn < 10 ? from0 : from1).push_back(psn);
  EXPECT_EQ(from0, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(from1, (std::vector<std::uint32_t>{10, 11, 12, 13}));
}

TEST(ShardCross, ArrivalsCountOneEventEachOnTheDestinationShard) {
  CrossFixture f;
  const Time ser = f.ch.serialization(1000);
  f.g.sim(0).schedule_at(0, [&f, ser] { f.ch.deliver(data_packet(1000), ser); });
  f.g.run_window_adaptive(0);
  const std::uint64_t src_events = f.g.sim(0).events_processed();
  f.g.run_window_adaptive(ser + microseconds(1));
  EXPECT_EQ(f.g.sim(0).events_processed(), src_events);  // nothing ran at the source
  EXPECT_EQ(f.g.sim(1).events_processed(), 1u);
}

TEST(ShardCross, DropInFlightCutKillsMailboxPackets) {
  CrossFixture f;
  f.ch.set_drop_in_flight_on_cut(true);
  f.g.sim(0).schedule_at(0, [&f] { f.ch.deliver(data_packet(256), 0); });
  // The cut happens after the send but before the arrival fires.
  f.g.sim(0).schedule_at(0, [&f] { f.ch.set_up(false); });
  f.g.run_window_adaptive(0);
  f.g.run_window_adaptive(microseconds(1));
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(f.ch.in_flight_dropped(), 1u);
}

TEST(ShardCross, MaxNowTracksTheLastExecutedEvent) {
  CrossFixture f;
  const Time ser = f.ch.serialization(500);
  f.g.sim(0).schedule_at(0, [&f, ser] { f.ch.deliver(data_packet(500), ser); });
  f.g.run_window_adaptive(0);
  f.g.run_window_adaptive(ser + microseconds(1));
  EXPECT_TRUE(f.g.idle());
  // The arrival on shard 1 is the globally last event.
  EXPECT_EQ(f.g.max_now(), ser + microseconds(1));
}

TEST(ShardCross, CorruptFramesDieOnTheDestinationShard) {
  // Cross arrivals share the lane's far-end logic: a corrupt frame fails
  // CRC when it arrives, and the drop is reported by the destination
  // shard's observer — the simulator executing the arrival.
  CrossFixture f;
  DropRecorder src_drops, dst_drops;
  f.g.sim(0).set_check_observer(&src_drops);
  f.g.sim(1).set_check_observer(&dst_drops);
  Rng rng(7);
  ChannelFault fault;
  fault.corrupt_rate = 1.0;
  fault.rng = &rng;
  f.ch.set_fault(&fault);
  f.g.sim(0).schedule_at(0, [&f] {
    for (int i = 0; i < 2; ++i) f.ch.deliver(data_packet(256), 0);
  });
  f.g.run_window_adaptive(0);
  f.g.run_window_adaptive(microseconds(1));
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(f.ch.delivered_packets(), 2u);
  EXPECT_EQ(fault.corrupted, 2u);
  EXPECT_TRUE(src_drops.sites.empty());
  EXPECT_EQ(dst_drops.sites, std::vector<DropSite>(2, DropSite::kWireCorrupt));
  EXPECT_EQ(f.g.sim(1).events_processed(), 2u);
}

TEST(ShardCross, InFlightCutDropsReportOnTheDestinationShard) {
  CrossFixture f;
  DropRecorder src_drops, dst_drops;
  f.g.sim(0).set_check_observer(&src_drops);
  f.g.sim(1).set_check_observer(&dst_drops);
  f.ch.set_drop_in_flight_on_cut(true);
  f.g.sim(0).schedule_at(0, [&f] {
    f.ch.deliver(data_packet(256), 0);
    f.ch.set_up(false);
    f.ch.deliver(data_packet(256), 0);  // handed to the dead wire
  });
  f.g.run_window_adaptive(0);
  f.g.run_window_adaptive(microseconds(1));
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(f.ch.discarded_packets(), 1u);
  EXPECT_EQ(f.ch.in_flight_dropped(), 1u);
  EXPECT_EQ(src_drops.sites, std::vector<DropSite>{DropSite::kWireDown});
  EXPECT_EQ(dst_drops.sites, std::vector<DropSite>{DropSite::kWireCutInFlight});
}

TEST(ShardCross, CheckpointCarriesDrainedInboxRecords) {
  // At a barrier the outbox is empty and drained records wait in the
  // destination inbox; the checkpoint carries them, and a restored group
  // delivers them at their stamped instants on the destination shard.
  std::vector<std::uint8_t> image;
  Time ser = 0;
  {
    CrossFixture f;
    ser = f.ch.serialization(1000);
    f.g.sim(0).schedule_at(0, [&f, ser] {
      for (int i = 0; i < 2; ++i) {
        f.ch.deliver(data_packet(1000, static_cast<std::uint32_t>(i)), (i + 1) * ser);
      }
    });
    f.g.run_window_adaptive(0);
    ASSERT_EQ(f.ch.cross_pending(), 2u);
    StateIO io = StateIO::saver(image);
    f.ch.checkpoint(io);
    ASSERT_TRUE(io.ok()) << io.error();
  }

  CrossFixture f;
  StateIO io = StateIO::loader(image);
  f.ch.checkpoint(io);
  ASSERT_TRUE(io.ok()) << io.error();
  EXPECT_EQ(f.ch.cross_pending(), 2u);
  EXPECT_EQ(f.g.next_time(), ser + microseconds(1));
  f.g.run_window_adaptive(2 * ser + microseconds(1));
  ASSERT_EQ(f.sink.arrivals.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].pkt.psn,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].t, (i + 1) * ser + microseconds(1));
  }
  EXPECT_EQ(f.ch.cross_pending(), 0u);
  EXPECT_EQ(f.g.sim(1).events_processed(), 2u);
}

}  // namespace
}  // namespace dcp
