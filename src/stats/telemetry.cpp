#include "stats/telemetry.h"

#include <algorithm>
#include <stdexcept>

namespace dcp {

FabricTelemetry::FabricTelemetry(Network& net, Time interval)
    : net_(net), interval_(interval) {
  // Sampling runs on net.sim() (shard 0) and reads every switch: under
  // sharding that would race the other shards' threads.
  if (net.shard_group() != nullptr && net.shard_group()->sharded()) {
    throw std::logic_error("FabricTelemetry: sharded networks are not supported");
  }
  arm();
}

FabricTelemetry::~FabricTelemetry() { stop(); }

void FabricTelemetry::stop() {
  stopped_ = true;
  if (ev_ != kInvalidEvent) {
    net_.sim().cancel(ev_);
    ev_ = kInvalidEvent;
  }
}

void FabricTelemetry::arm() {
  ev_ = net_.sim().schedule(interval_, [this] {
    ev_ = kInvalidEvent;
    if (stopped_) return;
    sample();
    arm();
  });
}

void FabricTelemetry::sample() {
  TelemetrySample s;
  s.t = net_.sim().now();
  std::uint64_t tx_total = 0;
  for (const auto& sw : net_.switches()) {
    s.total_buffered += sw->buffer().used();
    for (std::uint32_t p = 0; p < sw->num_ports(); ++p) {
      const Port& port = sw->port(p);
      s.max_data_queue =
          std::max(s.max_data_queue, port.queued_bytes(static_cast<int>(QueueClass::kData)));
      s.max_ctrl_queue =
          std::max(s.max_ctrl_queue, port.queued_bytes(static_cast<int>(QueueClass::kControl)));
      tx_total += port.stats().tx_bytes;
    }
  }
  s.tx_bytes_delta = tx_total - last_tx_bytes_;
  last_tx_bytes_ = tx_total;
  samples_.push_back(s);
}

std::uint64_t FabricTelemetry::peak_data_queue() const {
  std::uint64_t peak = 0;
  for (const auto& s : samples_) peak = std::max(peak, s.max_data_queue);
  return peak;
}

double FabricTelemetry::mean_throughput_gbps() const {
  if (samples_.size() < 2) return 0.0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 1; i < samples_.size(); ++i) bytes += samples_[i].tx_bytes_delta;
  const Time span = samples_.back().t - samples_.front().t;
  if (span <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / (static_cast<double>(span) / kSecond) / 1e9;
}

double FabricTelemetry::data_queue_percentile(double p) const {
  PercentileEstimator pe;
  for (const auto& s : samples_) pe.add(static_cast<double>(s.max_data_queue));
  return pe.percentile(p);
}

}  // namespace dcp
