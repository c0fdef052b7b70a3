#pragma once
// Periodic fabric telemetry: samples switch queue depths, shared-buffer
// occupancy and link utilization over time.  Useful for debugging
// experiments ("why did the tail explode at t=4ms?") and for the queue-
// depth columns some ablations report.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/percentile.h"
#include "switch/switch.h"
#include "topo/network.h"

namespace dcp {

struct TelemetrySample {
  Time t = 0;
  std::uint64_t max_data_queue = 0;   // deepest data queue in the fabric
  std::uint64_t max_ctrl_queue = 0;   // deepest control queue
  std::uint64_t total_buffered = 0;   // sum of shared-buffer occupancy
  std::uint64_t tx_bytes_delta = 0;   // bytes transmitted since last sample
};

class FabricTelemetry {
 public:
  /// Starts sampling every `interval` until `stop()` or the sim drains.
  /// Throws std::logic_error on a sharded network (see the constructor).
  FabricTelemetry(Network& net, Time interval = microseconds(10));
  ~FabricTelemetry();
  FabricTelemetry(const FabricTelemetry&) = delete;
  FabricTelemetry& operator=(const FabricTelemetry&) = delete;

  void stop();

  const std::vector<TelemetrySample>& samples() const { return samples_; }

  /// Peak data-queue depth observed across all samples.
  std::uint64_t peak_data_queue() const;
  /// Mean fabric throughput (Gbps) across the sampled window.
  double mean_throughput_gbps() const;
  /// Percentile of the per-sample max data queue depth.
  double data_queue_percentile(double p) const;

 private:
  void sample();
  void arm();

  Network& net_;
  Time interval_;
  EventId ev_ = kInvalidEvent;
  bool stopped_ = false;
  std::uint64_t last_tx_bytes_ = 0;
  std::vector<TelemetrySample> samples_;
};

}  // namespace dcp
