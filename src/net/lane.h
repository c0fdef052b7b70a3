#pragma once
// Delivery-lane records: the per-link FIFO nodes of the two-level scheduler.
//
// A Channel with fixed bandwidth and propagation delivers strictly FIFO, so
// per-packet entries in the global heap are wasted ordering work.  Instead
// each in-flight packet becomes a LaneRecord — stamped at deliver() time
// with its absolute arrival time and the sending node's tie-break key — linked
// into the channel's intrusive FIFO.  Only the lane head occupies the heap
// (via a persistent Timer keyed with the head's exact (t, seq)), so heap
// size tracks active links, not packets in flight.
//
// Records come from a thread-local chunked freelist (same idiom as
// PacketPool): steady-state traffic performs zero heap allocations, and
// simulations on different threads never contend.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace dcp {

/// One in-flight packet parked in a channel's delivery lane.  The record
/// owns its pooled slot (taken from PacketPtr via release_raw) until the
/// lane fires or drains it.
struct LaneRecord {
  Time t = 0;                // absolute delivery time at the far end
  std::uint64_t seq = 0;     // global tie-break, stamped at deliver() time
  PacketHot* pkt = nullptr;  // pooled packet (owned while parked)
  LaneRecord* next = nullptr;
  std::uint32_t epoch = 0;  // channel cut_epoch_ at send; mismatch = doomed
  bool corrupt = false;     // CRC failure decided at send, applied at arrival
};

/// Thread-local freelist of LaneRecords (chunked slabs, never shrink).
/// Like PacketPool, a dying thread's pool donates its slabs to the
/// process-wide retired store (pool_retire.h): records it handed out can
/// still be parked in lanes when a shard worker exits and are released
/// later on the coordinator's thread.
class LanePool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::size_t slots = 0;
    std::size_t in_use = 0;
  };

  /// The calling thread's pool.
  static LanePool& local();

  LanePool() = default;
  ~LanePool();
  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  LaneRecord* acquire() {
    if (free_.empty()) grow();
    LaneRecord* r = free_.back();
    free_.pop_back();
    ++acquires_;
    return r;
  }

  void release(LaneRecord* r) {
    ++releases_;
    free_.push_back(r);
  }

  Stats stats() const {
    // Cross-thread teardown releases can park foreign-slab records here,
    // so clamp rather than underflow.
    return Stats{acquires_, releases_, slots_,
                 free_.size() >= slots_ ? 0 : slots_ - free_.size()};
  }

  /// Slab footprint of every record this pool has ever acquired (including
  /// records adopted from the retired store).
  std::uint64_t arena_bytes() const {
    return static_cast<std::uint64_t>(slots_) * sizeof(LaneRecord);
  }

 private:
  // Geometric chunk growth (512 doubling to 64Ki), same rationale as
  // PacketPool: large fat-trees park hundreds of thousands of records.
  static constexpr std::size_t kChunkRecords = 512;
  static constexpr std::size_t kMaxChunkRecords = 65536;

  void grow();

  std::vector<std::unique_ptr<LaneRecord[]>> chunks_;
  std::vector<LaneRecord*> free_;
  std::size_t slots_ = 0;        // owned + reclaimed (chunk sizes vary)
  std::size_t next_chunk_ = kChunkRecords;
  std::size_t reclaimed_ = 0;  // slots adopted from the retired store
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
};

}  // namespace dcp
