// Space-parallel sharding mechanics: the ShardGroup window/barrier
// coordinator, the shared setup sequence counter, provisional-sequence
// commitment and the cross-shard channel mailbox.  End-to-end digest
// equality against the serial path lives in test_shard_digest.cpp; this
// file pins down the moving parts in isolation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/observer.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

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

TEST(ShardGroup, SetupSequencesComeFromOneSharedCounter) {
  // Before any window runs, both shards must allocate from the same stream
  // so topology construction is bit-identical to a serial build.
  ShardGroup g(2);
  const std::uint64_t a = g.sim(0).alloc_event_seq();
  const std::uint64_t b = g.sim(1).alloc_event_seq();
  const std::uint64_t c = g.sim(0).alloc_event_seq();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
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
    ch.enable_shard_mode(&g.sim(1));
    g.add_cross_drain(0, [this](const SeqRemap& remap) { return ch.drain_cross(remap); });
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
