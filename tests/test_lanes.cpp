// Channel delivery: the two-level scheduler (delivery lanes, deadline-
// class timers, one-shots) and endpoint dispatch.  Mechanism tests pin
// down lane FIFO order, same-time coalescing, lazy dooming on mid-flight
// cuts, the deadline heap's lazy extend (key kept) and eager cancel, the
// key-identity rules (a node's keys ignore other origins and survive a
// snapshot), and the {kind, ptr} static dispatch with its virtual
// fallback for custom nodes.  End-to-end behaviour is pinned by the
// golden-digest corpus (test_golden.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "check/observer.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "switch/switch.h"

namespace dcp {
namespace {

class SinkNode final : public Node {
 public:
  SinkNode(Simulator& sim, Logger& log) : Node(sim, log, 0, "sink") {}
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

Packet data_packet(std::uint32_t bytes) {
  Packet p;
  p.type = PktType::kData;
  p.wire_bytes = bytes;
  p.payload_bytes = bytes;
  return p;
}

struct LaneFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
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

// ---------------------------------------------------------------------------
// Lane mechanics
// ---------------------------------------------------------------------------

TEST(Lane, BackToBackMtuOnSaturatedLink) {
  // The Channel::deliver precondition regression: a saturated 100 Gbps link
  // hands the wire one MTU packet exactly as the previous one finishes
  // serializing (extra == serialization, gap zero).  All three must arrive,
  // in order, spaced exactly one serialization time apart.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 3);
  const Time ser = ch.serialization(1000);
  ASSERT_GT(ser, 0);

  for (int i = 0; i < 3; ++i) {
    f.sim.schedule_at(i * ser, [&ch, i] {
      Packet p = data_packet(1000);
      p.psn = static_cast<std::uint32_t>(i);
      ch.deliver(p, ch.serialization(1000));
    });
  }
  f.sim.run();

  ASSERT_EQ(sink.arrivals.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.psn, static_cast<std::uint32_t>(i));
    EXPECT_EQ(sink.arrivals[i].t, (i + 1) * ser + microseconds(1));
    EXPECT_EQ(sink.arrivals[i].port, 3u);
  }
  EXPECT_EQ(ch.delivered_packets(), 3u);
  EXPECT_EQ(ch.lane_pending(), 0u);
}

TEST(Lane, HoldsFifoWithOnlyHeadInHeap) {
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(5));
  ch.connect(&sink, 0);
  const Time ser = ch.serialization(1000);

  // Queue four packets up front (a port bursting into the wire): they park
  // in the lane, not the heap.
  for (int i = 0; i < 4; ++i) {
    Packet p = data_packet(1000);
    p.psn = static_cast<std::uint32_t>(i);
    ch.deliver(p, (i + 1) * ser);
  }
  EXPECT_EQ(ch.lane_pending(), 4u);

  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.psn, static_cast<std::uint32_t>(i));
    EXPECT_EQ(sink.arrivals[i].t, (i + 1) * ser + microseconds(5));
  }
}

TEST(Lane, SameTimeDeliveriesCoalesceInIssueOrder) {
  // Three deliveries due at the same instant: arrivals keep issue order,
  // and the coalesced run still charges one event per delivery.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  for (int i = 0; i < 3; ++i) {
    Packet p = data_packet(64);
    p.psn = static_cast<std::uint32_t>(i);
    ch.deliver(p, 0);  // all three arrive at exactly propagation time
  }
  f.sim.run();
  std::vector<std::uint32_t> psns;
  for (const auto& a : sink.arrivals) {
    EXPECT_EQ(a.t, microseconds(1));
    psns.push_back(a.pkt.psn);
  }
  EXPECT_EQ(psns, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(f.sim.events_processed(), 3u);
}

TEST(Lane, MidFlightCutDoomsLazily) {
  // Drop-in-flight cut: O(1) epoch bump, no heap surgery.  Parked records
  // are doomed lazily and account as in-flight losses when they surface.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  ch.set_drop_in_flight_on_cut(true);
  const Time ser = ch.serialization(1000);

  ch.deliver(data_packet(1000), ser);
  ch.deliver(data_packet(1000), 2 * ser);
  ASSERT_EQ(ch.lane_pending(), 2u);
  ch.set_up(false);
  EXPECT_EQ(ch.lane_doomed_pending(), 2u);

  f.sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  // delivered_packets counts wire hand-off at deliver() time; the
  // mid-flight kills show up only as in_flight_dropped.
  EXPECT_EQ(ch.delivered_packets(), 2u);
  EXPECT_EQ(ch.in_flight_dropped(), 2u);
  EXPECT_EQ(ch.lane_pending(), 0u);
  EXPECT_EQ(ch.lane_doomed_pending(), 0u);
}

TEST(Lane, DefaultCutPolicyDeliversInFlight) {
  // PR 3's cut semantics through the lane path: without drop-in-flight the
  // photons past the cut still arrive; only subsequent traffic is lost.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);

  ch.deliver(data_packet(1000), 0);  // on the wire...
  ch.set_up(false);                  // ...then the cut
  ch.deliver(data_packet(1000), 0);  // handed to a dead wire
  f.sim.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(ch.delivered_packets(), 1u);
  EXPECT_EQ(ch.in_flight_dropped(), 0u);
  EXPECT_EQ(ch.discarded_packets(), 1u);
}

TEST(Lane, OutOfBandFrameOvertakesTheBacklog) {
  // An earlier-due frame handed to a busy lane (a PFC PAUSE jumping the
  // data backlog) becomes the new head; one landing between parked frames
  // is spliced in after every frame due no later than it.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  const Time ser = ch.serialization(1000);
  const std::uint32_t extras[] = {2, 4, 0, 3, 2};  // in units of ser
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = data_packet(1000);
    p.psn = i;
    ch.deliver(p, extras[i] * ser);
  }
  EXPECT_EQ(ch.lane_pending(), 5u);
  f.sim.run();

  ASSERT_EQ(sink.arrivals.size(), 5u);
  const std::uint32_t order[] = {2, 0, 4, 3, 1};
  for (std::size_t i = 0; i < 5; ++i) {
    const std::uint32_t psn = order[i];
    EXPECT_EQ(sink.arrivals[i].pkt.psn, psn);
    EXPECT_EQ(sink.arrivals[i].t, extras[psn] * ser + microseconds(1));
  }
  EXPECT_EQ(f.sim.events_processed(), 5u);
}

TEST(Lane, CorruptFrameConsumesTheWireAndDiesAtTheFarEnd) {
  // A corrupt draw is made at hand-off, but the frame still occupies the
  // wire: it counts as delivered and fails CRC only when it arrives.
  LaneFixture f;
  DropRecorder drops;
  f.sim.set_check_observer(&drops);
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  Rng rng(7);
  ChannelFault fault;
  fault.corrupt_rate = 1.0;
  fault.rng = &rng;
  ch.set_fault(&fault);

  for (int i = 0; i < 3; ++i) ch.deliver(data_packet(1000), 0);
  EXPECT_EQ(ch.lane_pending(), 3u);
  EXPECT_TRUE(drops.sites.empty());
  f.sim.run();

  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(ch.delivered_packets(), 3u);
  EXPECT_EQ(ch.discarded_packets(), 0u);
  EXPECT_EQ(fault.corrupted, 3u);
  EXPECT_EQ(drops.sites, std::vector<DropSite>(3, DropSite::kWireCorrupt));
  EXPECT_EQ(f.sim.events_processed(), 3u);
}

TEST(Lane, HandOffDropsNeverReachTheWire) {
  // A downed wire, a blackhole and a random wire loss all discard the
  // frame at deliver() time: nothing is parked and nothing fires.
  LaneFixture f;
  DropRecorder drops;
  f.sim.set_check_observer(&drops);
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  Rng rng(7);
  ChannelFault fault;
  fault.rng = &rng;
  ch.set_fault(&fault);

  fault.drop_rate = 1.0;
  ch.deliver(data_packet(1000), 0);
  fault.drop_rate = 0.0;
  fault.blackhole_refs = 1;
  ch.deliver(data_packet(1000), 0);
  fault.blackhole_refs = 0;
  ch.set_up(false);
  ch.deliver(data_packet(1000), 0);
  EXPECT_EQ(ch.lane_pending(), 0u);
  f.sim.run();

  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(ch.delivered_packets(), 0u);
  EXPECT_EQ(ch.discarded_packets(), 3u);
  EXPECT_EQ(fault.dropped, 1u);
  EXPECT_EQ(fault.blackholed, 1u);
  EXPECT_EQ(drops.sites, (std::vector<DropSite>{DropSite::kWireRandom, DropSite::kWireBlackhole,
                                                DropSite::kWireDown}));
  EXPECT_EQ(f.sim.events_processed(), 0u);
}

TEST(Lane, CheckpointRestoresParkedRecordsInOrder) {
  // The lane's checkpoint section carries every parked record with its
  // stamped (t, seq); the restored lane re-arms its head and delivers the
  // same frames at the same instants.  A non-empty target is refused.
  std::vector<std::uint8_t> image;
  Time ser = 0;
  {
    LaneFixture f;
    SinkNode sink(f.sim, f.log);
    Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
    ch.connect(&sink, 0);
    ser = ch.serialization(1000);
    for (int i = 0; i < 3; ++i) {
      Packet p = data_packet(1000);
      p.psn = static_cast<std::uint32_t>(i);
      ch.deliver(p, (i + 1) * ser);
    }
    StateIO io = StateIO::saver(image);
    ch.checkpoint(io);
    ASSERT_TRUE(io.ok()) << io.error();
  }

  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 2);
  StateIO io = StateIO::loader(image);
  ch.checkpoint(io);
  ASSERT_TRUE(io.ok()) << io.error();
  EXPECT_EQ(ch.lane_pending(), 3u);
  EXPECT_EQ(ch.delivered_packets(), 3u);

  StateIO again = StateIO::loader(image);
  ch.checkpoint(again);
  EXPECT_FALSE(again.ok());

  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.psn, static_cast<std::uint32_t>(i));
    EXPECT_EQ(sink.arrivals[i].t, (i + 1) * ser + microseconds(1));
    EXPECT_EQ(sink.arrivals[i].port, 2u);
  }
  EXPECT_EQ(ch.lane_pending(), 0u);
}

// ---------------------------------------------------------------------------
// Deadline-class timers (the second-level heap)
// ---------------------------------------------------------------------------

TEST(DeadlineTimer, LazyExtendFiresOnceAtLatestDeadline) {
  Simulator sim;
  int fires = 0;
  Time fired_at = -1;
  Timer rto(sim, [&] {
    ++fires;
    fired_at = sim.now();
  });
  rto.arm_deadline(microseconds(10));
  // Per-ACK pushes: each re-arm extends the deadline; the parked entry goes
  // stale and must NOT fire at its old key.
  sim.schedule(microseconds(4), [&] { rto.arm_deadline(microseconds(10)); });
  sim.schedule(microseconds(8), [&] { rto.arm_deadline(microseconds(12)); });
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, microseconds(20));
}

TEST(DeadlineTimer, CancelRemovesTheEntryAtOnce) {
  Simulator sim;
  int fires = 0;
  Timer rto(sim, [&] { ++fires; });
  rto.arm_deadline(microseconds(10));
  EXPECT_TRUE(rto.pending());
  rto.cancel();
  EXPECT_FALSE(rto.pending());
  EXPECT_TRUE(sim.idle());  // no stale entry left behind
  rto.cancel();  // double-cancel is harmless
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(DeadlineTimer, ShrinkFiresAtTheEarlierDeadline) {
  Simulator sim;
  Time fired_at = -1;
  Timer rto(sim, [&] { fired_at = sim.now(); });
  rto.arm_deadline(microseconds(50));
  rto.arm_deadline(microseconds(5));  // deadline moves BACK: eager re-key
  sim.run();
  EXPECT_EQ(fired_at, microseconds(5));
}

TEST(DeadlineTimer, DestroyWhileStaleEntryParked) {
  Simulator sim;
  int other_fires = 0;
  Timer survivor(sim, [&] { ++other_fires; });
  survivor.arm_deadline(microseconds(30));
  {
    Timer doomed(sim, [] { FAIL() << "destroyed timer fired"; });
    doomed.arm_deadline(microseconds(10));
    doomed.arm_deadline(microseconds(20));  // parked entry now stale
  }  // destroyed with the stale entry still in the deadline heap
  sim.run();
  EXPECT_EQ(other_fires, 1);
}

TEST(DeadlineTimer, ReArmFromOwnCallbackKeepsRunning) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer self(sim, [&] {
    if (++fires < 3) tp->arm_deadline(microseconds(1));
  });
  tp = &self;
  self.arm_deadline(microseconds(1));
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(self.pending());
}

TEST(DeadlineTimer, EqualTimeOrderAcrossHeapsFollowsAllocation) {
  // A main-heap event and a deadline entry at the same instant fire in
  // key-draw order (one origin here) — the (t, seq) order is heap-blind.
  {
    Simulator sim;
    std::vector<char> order;
    sim.schedule(microseconds(10), [&] { order.push_back('a'); });  // seq first
    Timer t(sim, [&] { order.push_back('b'); });
    t.arm_deadline(microseconds(10));
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  }
  {
    Simulator sim;
    std::vector<char> order;
    Timer t(sim, [&] { order.push_back('b'); });
    t.arm_deadline(microseconds(10));  // seq first this time
    sim.schedule(microseconds(10), [&] { order.push_back('a'); });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  }
}

/// Arms node 1's deadline timer at 10us, cancels it and re-arms it at
/// 20us; with `other_first`, node 2 first parks an earlier deadline in the
/// same queue.  Returns node 1's key and its counter afterwards.
std::pair<std::uint64_t, std::uint64_t> cancel_rearm_key(bool other_first) {
  Simulator sim;
  sim.reserve_origin(1);
  sim.reserve_origin(2);
  Timer other(sim, [] {});
  Timer rto(sim, [] {});
  if (other_first) {
    sim.set_origin(2);
    other.arm_deadline(microseconds(5));
  }
  sim.set_origin(1);
  rto.arm_deadline(microseconds(10));
  rto.cancel();
  rto.arm_deadline(microseconds(20));
  return {rto.arm_state().seq, sim.key_counters()[2]};  // origin = node + 1
}

TEST(DeadlineTimer, CancelReArmKeyIgnoresOtherOrigins) {
  // A node's keys depend on its own history only: whether another node's
  // deadline shares the queue must not decide if the re-arm draws a key.
  const auto alone = cancel_rearm_key(false);
  const auto shared = cancel_rearm_key(true);
  EXPECT_EQ(alone.first, shared.first);
  EXPECT_EQ(alone.second, shared.second);
  EXPECT_EQ(shared.second, 2u);  // the re-arm after a cancel draws
}

TEST(DeadlineTimer, CancelReArmKeyRestoredMatchesUninterrupted) {
  // Snapshot between the cancel and the re-arm: overlaying the saved arm
  // states and counters onto a fresh queue must draw exactly like the
  // queue that ran on.
  Simulator a;
  Timer a_other(a, [] {});
  Timer a_rto(a, [] {});
  a.reserve_origin(1);
  a.reserve_origin(2);
  a.set_origin(2);
  a_other.arm_deadline(microseconds(5));
  a.set_origin(1);
  a_rto.arm_deadline(microseconds(10));
  a_rto.cancel();

  Simulator b;
  b.reserve_origin(1);
  b.reserve_origin(2);
  Timer b_other(b, [] {});
  Timer b_rto(b, [] {});
  b_other.restore_arm(a_other.arm_state());
  b_rto.restore_arm(a_rto.arm_state());
  b.settle_deadline_top();
  ASSERT_TRUE(b.restore_key_counters(a.key_counters()));
  b.set_origin(1);

  a_rto.arm_deadline(microseconds(20));
  b_rto.arm_deadline(microseconds(20));
  EXPECT_EQ(a_rto.arm_state().seq, b_rto.arm_state().seq);
  EXPECT_EQ(a.key_counters(), b.key_counters());
}

// ---------------------------------------------------------------------------
// One-shots
// ---------------------------------------------------------------------------

TEST(OneShot, InterleaveWithTimersInKeyOrder) {
  Simulator sim;
  std::vector<int> order;
  Timer t(sim, [&] { order.push_back(2); });
  t.arm_deadline(microseconds(20));
  sim.schedule_at(microseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(microseconds(30), [&] { order.push_back(4); });
  sim.schedule_at(microseconds(30), [&] { order.push_back(5); });  // later seq, same t
  sim.schedule_at(microseconds(25), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(OneShot, CancelRemovesExactlyOnce) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_at(microseconds(10), [&] { ++fires; });
  const EventId keep = sim.schedule_at(microseconds(20), [&] { ++fires; });
  sim.cancel(id);
  EXPECT_EQ(sim.next_event_time(), microseconds(20));
  sim.cancel(id);  // stale handle: no-op
  sim.run();
  EXPECT_EQ(fires, 1);
  sim.cancel(keep);  // cancel-after-fire: no-op (generation stamped)
}

TEST(OneShot, SlotsRecycleBetweenOneShotsAndTimers) {
  // A slot that held a one-shot comes back as a timer slot (and the
  // reverse) with no residue: every event fires exactly once.
  Simulator sim;
  int fires = 0;
  for (int round = 0; round < 100; ++round) {
    sim.schedule_at(sim.now() + microseconds(1), [&] { ++fires; });
    {
      Timer t(sim, [&] { ++fires; });
      t.arm_deadline(microseconds(2));
      sim.run();
    }
  }
  EXPECT_EQ(fires, 200);
  EXPECT_TRUE(sim.idle());
}

// ---------------------------------------------------------------------------
// Endpoint dispatch: kind tags and the custom-node virtual hop
// ---------------------------------------------------------------------------

TEST(Devirt, ConcreteEndpointsCarryTheirKindTags) {
  LaneFixture f;
  Switch sw(f.sim, f.log, 1, "sw", SwitchConfig{}, /*seed=*/1);
  SinkNode sink(f.sim, f.log);
  EXPECT_EQ(sw.kind(), NodeKind::kSwitch);
  EXPECT_EQ(sink.kind(), NodeKind::kOther);  // test nodes take the virtual hop
}

TEST(Devirt, CustomNodeReceivesThroughTheVirtualHop) {
  // A kOther endpoint is reached through Node::receive: every delivery
  // arrives, in order, at its stamped time and on the connected port.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 7);
  const Time ser = ch.serialization(1000);
  for (int i = 0; i < 4; ++i) {
    Packet p = data_packet(1000);
    p.psn = static_cast<std::uint32_t>(i);
    ch.deliver(p, (i + 1) * ser);
  }
  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.psn, static_cast<std::uint32_t>(i));
    EXPECT_EQ(sink.arrivals[i].t, (i + 1) * ser + microseconds(1));
    EXPECT_EQ(sink.arrivals[i].port, 7u);
  }
  EXPECT_EQ(f.sim.events_processed(), 4u);
}

}  // namespace
}  // namespace dcp
