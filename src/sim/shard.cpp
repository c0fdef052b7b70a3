#include "sim/shard.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "net/lane.h"
#include "net/packet_pool.h"

namespace dcp {

namespace {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Thread-local slab footprint of the calling shard's pools.  Must run on
/// the thread that owns the shard (pools are thread-local by design).
inline std::uint64_t local_pool_arena_bytes() {
  return PacketPool::local().arena_bytes() + LanePool::local().arena_bytes();
}

}  // namespace

ShardGroup::ShardGroup(int n) {
  assert(n >= 1);
  sims_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sims_.push_back(std::make_unique<Simulator>());
  cross_drains_.resize(sims_.size());
  dispatch_.resize(sims_.size(), 0);
  if (sharded()) {
    // One counter per origin whichever shard draws for it, so setup-phase
    // draws on any shard's queue match the serial run's.
    for (std::size_t i = 1; i < sims_.size(); ++i) sims_[i]->share_key_counters(*sims_[0]);
    slots_ = std::make_unique<WorkerSlot[]>(sims_.size() - 1);
  }
}

ShardGroup::~ShardGroup() {
  if (!workers_.empty()) {
    exit_.store(true, std::memory_order_relaxed);
    for (std::size_t w = 0; w + 1 < sims_.size(); ++w) {
      slots_[w].go.fetch_add(1, std::memory_order_seq_cst);
      slots_[w].go.notify_one();
    }
    for (std::thread& t : workers_) t.join();
  }
}

void ShardGroup::start_workers() {
  if (!workers_.empty() || !sharded()) return;
  workers_.reserve(sims_.size() - 1);
  for (std::size_t i = 1; i < sims_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ShardGroup::worker_loop(std::size_t i) {
  WorkerSlot& slot = slots_[i - 1];
  std::uint64_t seen = 0;
  for (;;) {
    // Spin a short budget — barriers are usually microseconds apart — then
    // park on the go word's futex.  The sleeping flag is the Dekker half
    // of the wake protocol: the coordinator only pays the notify syscall
    // when it observes the worker asleep.
    std::uint64_t cur;
    int spins = 0;
    while ((cur = slot.go.load(std::memory_order_acquire)) == seen) {
      if (++spins >= kSpinBudget) {
        slot.sleeping.store(true, std::memory_order_seq_cst);
        while ((cur = slot.go.load(std::memory_order_seq_cst)) == seen) slot.go.wait(seen);
        slot.sleeping.store(false, std::memory_order_relaxed);
        break;
      }
    }
    seen = cur;
    if (exit_.load(std::memory_order_relaxed)) return;
    const std::uint64_t t0 = wall_ns();
    sims_[i]->run(bound_);
    slot.busy_ns += wall_ns() - t0;
    slot.windows += 1;
    slot.arena_bytes = local_pool_arena_bytes();
    // seq_cst: publishes the window's writes AND orders the increment
    // against the coordinator's sleeping flag (either we see the flag and
    // notify, or the coordinator's later load sees the increment).
    done_count_.fetch_add(1, std::memory_order_seq_cst);
    if (coord_sleeping_.load(std::memory_order_seq_cst)) done_count_.notify_one();
  }
}

Time ShardGroup::next_time() const {
  Time t = kTimeInfinity;
  for (const auto& s : sims_) t = std::min(t, s->next_event_time());
  return t;
}

Time ShardGroup::max_now() const {
  Time t = 0;
  for (const auto& s : sims_) t = std::max(t, s->now());
  return t;
}

std::uint64_t ShardGroup::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& s : sims_) n += s->events_processed();
  return n;
}

void ShardGroup::sync_now(Time t) {
  for (auto& s : sims_) s->sync_now(t);
}

std::uint64_t ShardGroup::shard_windows(int i) const {
  return i == 0 ? windows0_ : slots_[static_cast<std::size_t>(i) - 1].windows;
}

std::uint64_t ShardGroup::busy_ns(int i) const {
  return i == 0 ? busy0_ns_ : slots_[static_cast<std::size_t>(i) - 1].busy_ns;
}

std::uint64_t ShardGroup::arena_bytes() const {
  // Shard 0's pools are this (the coordinator) thread's thread-locals;
  // worker pools were published to their slots at the last done barrier.
  std::uint64_t total = local_pool_arena_bytes();
  for (std::size_t w = 0; w + 1 < sims_.size(); ++w) total += slots_[w].arena_bytes;
  for (const auto& s : sims_) total += s->event_arena_bytes();
  return total;
}

void ShardGroup::run_window_adaptive(Time cap) {
  if (!sharded()) {
    sims_[0]->run(cap);
    return;
  }
  assert(lookahead_ > 0 && "set_lookahead() before sharded windows");
  start_workers();
  const std::size_t n = sims_.size();
  const Time ahead = std::max<Time>(1, lookahead_ >> window_shift_);

  // One uniform bound for every shard, opening at the globally earliest
  // pending event: barrier finalizations read receiver journals as of the
  // sender's key and then prune them, which is only final once every
  // shard has run to the same bound (file header).  Adaptivity lives in
  // the window LENGTH (`ahead`, shrunk under cross-shard pressure) and in
  // dispatch: shards with nothing due in the window are not dispatched —
  // their workers stay parked on the futex and they skip mailbox drains.
  const Time min1 = next_time();
  bound_ = min1 >= cap ? cap : std::min(cap, min1 + ahead - 1);
  for (std::size_t i = 0; i < n; ++i) {
    dispatch_[i] = sims_[i]->next_event_time() <= bound_ ? 1 : 0;
  }

  // Dispatch the marked shards, run shard 0 inline, wait for the done
  // barrier, then drain mailboxes.
  ++windows_;
  int need = 0;
  done_count_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 1; i < n; ++i) {
    if (dispatch_[i] == 0) continue;
    ++need;
    WorkerSlot& slot = slots_[i - 1];
    slot.go.fetch_add(1, std::memory_order_seq_cst);
    if (slot.sleeping.load(std::memory_order_seq_cst)) slot.go.notify_one();
  }
  if (dispatch_[0] != 0) {
    const std::uint64_t t0 = wall_ns();
    sims_[0]->run(bound_);
    busy0_ns_ += wall_ns() - t0;
    ++windows0_;
  }
  if (need > 0) {
    int d;
    int spins = 0;
    while ((d = done_count_.load(std::memory_order_acquire)) != need) {
      if (++spins >= kSpinBudget) {
        coord_sleeping_.store(true, std::memory_order_seq_cst);
        while ((d = done_count_.load(std::memory_order_seq_cst)) != need) done_count_.wait(d);
        coord_sleeping_.store(false, std::memory_order_relaxed);
        break;
      }
    }
  }
  commit_window();
}

void ShardGroup::commit_window() {
  // Cut-channel mailbox drains, with the window's cross-record total fed
  // back into the adaptive window size: heavy mailbox traffic means the
  // windows admitted more cross-shard skew than the drains absorb cheaply
  // (shrink the effective lookahead); light windows grow it back.
  std::size_t cross = 0;
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    if (dispatch_[i] == 0) continue;  // a parked shard sent nothing
    for (auto& drain : cross_drains_[i]) cross += drain();
  }
  cross_records_ += cross;
  if (cross > kShrinkAt && window_shift_ < kMaxShift) {
    ++window_shift_;
  } else if (cross < kGrowAt && window_shift_ > 0) {
    --window_shift_;
  }
}

}  // namespace dcp
