// Tests for the fabric telemetry sampler.

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/scheme.h"
#include "sim/shard.h"
#include "stats/telemetry.h"
#include "topo/clos.h"
#include "topo/dumbbell.h"

namespace dcp {
namespace {

struct Fixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  Star star;

  Fixture() {
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    star = build_star(net, 4, s.sw);
    apply_scheme(net, s);
  }
};

TEST(Telemetry, RefusesShardedNetwork) {
  // Sampling runs on shard 0 and reads every switch, which would race the
  // other shards; a sharded network is refused up front.
  ShardGroup g(2);
  Logger log{LogLevel::kOff};
  Network net(g, log);
  ClosParams cp;
  cp.spines = 1;
  cp.leaves = 2;
  cp.hosts_per_leaf = 1;
  build_clos(net, cp);
  EXPECT_THROW(FabricTelemetry(net, microseconds(10)), std::logic_error);
}

TEST(Telemetry, SamplesAtConfiguredInterval) {
  Fixture f;
  FabricTelemetry tel(f.net, microseconds(10));
  FlowSpec spec;
  spec.src = f.star.hosts[0]->id();
  spec.dst = f.star.hosts[1]->id();
  spec.bytes = 1'000'000;
  f.net.start_flow(spec);
  f.net.run_until_done(seconds(1));
  tel.stop();
  // ~1 MB at 100G is ~85 us -> expect several samples, 10 us apart.
  ASSERT_GE(tel.samples().size(), 5u);
  for (std::size_t i = 1; i < tel.samples().size(); ++i) {
    EXPECT_EQ(tel.samples()[i].t - tel.samples()[i - 1].t, microseconds(10));
  }
}

TEST(Telemetry, ObservesQueueBuildUpUnderIncast) {
  Fixture f;
  FabricTelemetry tel(f.net, microseconds(5));
  for (int i = 0; i < 3; ++i) {
    FlowSpec spec;
    spec.src = f.star.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = f.star.hosts[3]->id();
    spec.bytes = 500'000;
    f.net.start_flow(spec);
  }
  f.net.run_until_done(seconds(1));
  tel.stop();
  // 3-to-1 at full windows must queue at the victim's egress.
  EXPECT_GT(tel.peak_data_queue(), 10'000u);
  EXPECT_GT(tel.data_queue_percentile(90), 0.0);
}

TEST(Telemetry, ThroughputTracksOfferedLoad) {
  Fixture f;
  FabricTelemetry tel(f.net, microseconds(10));
  FlowSpec spec;
  spec.src = f.star.hosts[0]->id();
  spec.dst = f.star.hosts[1]->id();
  spec.bytes = 2'000'000;
  const FlowId id = f.net.start_flow(spec);
  f.net.run_until_done(seconds(1));
  tel.stop();
  ASSERT_TRUE(f.net.record(id).complete());
  // The switch transmits data + returning ACK traffic; fabric throughput
  // should be near (a bit above) the flow's goodput.
  EXPECT_GT(tel.mean_throughput_gbps(), 60.0);
  EXPECT_LT(tel.mean_throughput_gbps(), 130.0);
}

TEST(Telemetry, StopEndsSampling) {
  Fixture f;
  FabricTelemetry tel(f.net, microseconds(10));
  f.sim.run(microseconds(45));
  tel.stop();
  const std::size_t n = tel.samples().size();
  f.sim.run(microseconds(200));
  EXPECT_EQ(tel.samples().size(), n);
  EXPECT_TRUE(f.sim.idle());
}

}  // namespace
}  // namespace dcp
