// Digest equality for space-parallel sharding: DCP_SHARDS=N must be BIT
// FOR BIT identical to DCP_SHARDS=1 (which is exactly the serial code
// path) across the fig-style experiment shapes — same goodputs, same
// FCTs, same retransmit counts, and the same events_processed, since the
// windowed execution reproduces the very same event interleaving.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace dcp {
namespace {

/// Scoped DCP_SHARDS override: the harness runners read the variable when
/// they construct their ShardGroup, so set it before calling them.
class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(int shards) {
    const char* prev = std::getenv("DCP_SHARDS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("DCP_SHARDS", std::to_string(shards).c_str(), 1);
  }
  ~ScopedShardsEnv() {
    if (had_prev_) {
      setenv("DCP_SHARDS", prev_.c_str(), 1);
    } else {
      unsetenv("DCP_SHARDS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

struct TrialDigest {
  double goodput = 0.0;
  Time elapsed = 0;
  bool completed = false;
  std::uint64_t retransmitted = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> key_counters;  // per-origin, websearch only

  bool operator==(const TrialDigest&) const = default;
};

/// Fig 10/17 shape: scheme x injected-loss matrix of long testbed flows
/// (the testbed partitions into two shards, one per switch side).
std::vector<TrialDigest> long_flow_matrix(int shards) {
  ScopedShardsEnv env(shards);
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kRackTlp, SchemeKind::kIrn,
                              SchemeKind::kTimeout};
  const double rates[] = {0.0, 0.005, 0.02};
  std::vector<TrialDigest> out;
  for (double rate : rates) {
    for (SchemeKind k : kinds) {
      LongFlowParams p;
      p.scheme = k;
      p.loss_rate = rate;
      p.flow_bytes = 2ull * 1000 * 1000;
      p.max_time = milliseconds(20);
      const LongFlowResult r = run_long_flow(p);
      TrialDigest d;
      d.goodput = r.goodput_gbps;
      d.elapsed = r.elapsed;
      d.completed = r.completed;
      d.retransmitted = r.sender.retransmitted_packets;
      d.events = r.core.events_processed;
      out.push_back(d);
    }
  }
  return out;
}

TEST(ShardDigest, LongFlowMatrixShardedBitIdenticalToSerial) {
  const std::vector<TrialDigest> serial = long_flow_matrix(1);
  const std::vector<TrialDigest> sharded = long_flow_matrix(2);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
  // The matrix exercised recovery across the cut, not just clean delivery.
  bool any_retx = false;
  for (const TrialDigest& d : sharded) any_retx = any_retx || d.retransmitted > 0;
  EXPECT_TRUE(any_retx);
}

/// Fig 1 shape: WebSearch background load on a 2x2x4 CLOS (one shard per
/// leaf group, spines split between them).
std::vector<TrialDigest> websearch_matrix(int shards) {
  ScopedShardsEnv env(shards);
  const std::uint64_t seeds[] = {11, 23};
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kIrn};
  std::vector<TrialDigest> out;
  for (std::size_t i = 0; i < 4; ++i) {
    WebSearchParams p;
    p.scheme = kinds[i % 2];
    p.seed = seeds[i / 2];
    p.clos.spines = 2;
    p.clos.leaves = 2;
    p.clos.hosts_per_leaf = 4;
    p.load = 0.4;
    p.num_flows = 100;
    WebSearchResult r = run_websearch(p);
    TrialDigest d;
    d.goodput = r.background.overall().percentile(99.0);
    d.completed = r.flows_completed == r.flows_total;
    d.retransmitted = r.timeouts_background;
    d.events = r.core.events_processed;
    d.key_counters = r.key_counters;
    out.push_back(d);
  }
  return out;
}

TEST(ShardDigest, WebsearchShardedBitIdenticalToSerial) {
  // Beyond the digests, every node's final key counter must match: keys
  // are a function of each node's own history.
  const std::vector<TrialDigest> serial = websearch_matrix(1);
  const std::vector<TrialDigest> sharded = websearch_matrix(2);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
}

TEST(ShardDigest, OverAskedShardCountClampsToTopology) {
  // DCP_SHARDS far beyond the partition count must clamp, not crash or
  // diverge: the testbed has two natural shards.
  const std::vector<TrialDigest> serial = long_flow_matrix(1);
  const std::vector<TrialDigest> sharded = long_flow_matrix(16);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
}

TEST(ShardDigest, FaultPlansForceTheSerialPath) {
  // A run with live fault injection ignores DCP_SHARDS (the injector has
  // no shard-ordering story) — digests must match serial exactly.
  auto run = [](int shards) {
    ScopedShardsEnv env(shards);
    LongFlowParams p;
    p.scheme = SchemeKind::kDcp;
    p.flow_bytes = 1ull * 1000 * 1000;
    p.max_time = milliseconds(20);
    FaultAction a;
    a.kind = FaultKind::kLinkFlap;
    a.at = microseconds(200);
    a.duration = microseconds(100);
    a.sw = 0;
    a.port = 0;
    p.faults.actions.push_back(a);
    const LongFlowResult r = run_long_flow(p);
    TrialDigest d;
    d.goodput = r.goodput_gbps;
    d.elapsed = r.elapsed;
    d.completed = r.completed;
    d.retransmitted = r.sender.retransmitted_packets;
    d.events = r.core.events_processed;
    return d;
  };
  EXPECT_EQ(run(1), run(2));
}

}  // namespace
}  // namespace dcp
