#pragma once
// The allocation-free event queue at the bottom of every simulation.
//
// Design (rebuilt for throughput — see docs/architecture.md, "Simulator
// core performance model" and "Two-level scheduler"):
//
//   * Callbacks live in a chunked slab with a freelist.  Slots are
//     recycled, never freed, so the steady-state schedule->fire path does
//     not touch the allocator.  Chunks are stable in memory (no callback
//     ever moves), which lets the heap refer to events by 32-bit slot
//     index.
//   * Callbacks are EventCallback (small-buffer optimized, move-only) —
//     no per-event std::function heap allocation.
//   * Ordering uses THREE 4-ary min-heaps sharing one global (time,
//     sequence) key space, so the merged firing order is exactly that of a
//     single heap:
//       - heap_  : persistent timers (index-tracked via a flat per-slot
//         position array, so timer_cancel / re-arm removes an entry in
//         place in O(log n)).
//       - dheap_ : DEADLINE-class timers (retransmission timeouts,
//         keepalives) — re-armed far more often than they fire.  Pushing a
//         deadline forward is O(1): the parked entry goes stale and the
//         true deadline is stored beside the slot; a stale entry is
//         re-keyed, keeping its key, when it surfaces at this heap's top.
//         Cancel removes the entry at once, so whether a re-arm draws a
//         key never depends on when a stale entry happens to surface
//         (which depends on other origins' entries).
//       - oheap_ : ONE-SHOT events (push()).
//         One-shots are fire-and-forget: they are never re-keyed and
//         almost never cancelled, so this heap is NON-TRACKING — sifting
//         moves 24-byte records without maintaining any position array
//         (one fewer store per level, and cancel() degrades to an O(1)
//         lazy tombstone reclaimed when the entry surfaces).
//     The key preserves each origin's FIFO order among simultaneous events;
//     each heap's top is kept accurate so next_time() stays O(1).
//   * EventIds are generation-stamped handles: (generation << 32) | slot+1.
//     Firing or cancelling a slot bumps its generation, so double-cancel
//     and cancel-after-fire are provably harmless no-ops — a stale handle
//     can never hit a recycled slot.
//   * Two-level scheduling support: components that own a naturally
//     ordered stream of events (a Channel's delivery lane, a periodic
//     timer) keep only ONE entry in the heap.  alloc_seq()/push_keyed()
//     let them stamp each logical event with a tie-break key at
//     creation and enter the heap with that exact (time, seq) key later,
//     so the merged firing order is identical to scheduling every logical
//     event individually.  Persistent timer slots (timer_create /
//     timer_arm / timer_cancel) hold their callback across fires: arming
//     again after a fire is a heap insert only — no slot churn, no
//     callback reconstruction.
//   * Tie-break keys are derived locally, per origin: a key packs the
//     node that executes the allocating event (its "origin") with that
//     origin's own monotone counter, so each node's keys are a function of
//     its own execution history alone.  A sharded run (sim/shard.h) gives
//     every shard its own EventQueue but one shared per-origin counter
//     table; a node's counter is only ever advanced by the thread running
//     that node's events, so serial and sharded runs compute the same keys
//     with no merge.  Setup-phase and node-less draws use the reserved
//     origin kSetupOrigin.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_callback.h"
#include "sim/time.h"

namespace dcp {

/// Handle for a scheduled event; used to cancel it.  Encodes the slot and
/// its generation so stale handles are always detected.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  // --- Tie-break keys -------------------------------------------------------
  // key = counter << kOriginBits | (origin ^ mix(counter)).  Counter-major,
  // so one origin's keys ascend in draw order (per-origin FIFO, which lane
  // coalescing relies on); among different origins at one instant the
  // per-counter XOR mask re-permutes the order at every counter value,
  // so no node wins same-instant ties systematically (plain low bits would
  // always favour low node ids when synchronized senders' counters match).

  /// Reserved origin of setup-phase and node-less draws (node ids map to
  /// origin id + 1, so kInvalidNode lands here too).
  static constexpr std::uint32_t kSetupOrigin = 0;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to fire at absolute time `t`.  Events scheduled for the
  /// same instant fire in the order they were scheduled.  Templated on the
  /// callable so the closure is constructed directly in its slab slot —
  /// passing a prebuilt EventCallback still works (one move), but a lambda
  /// at the call site skips the temporary + relocate entirely.
  template <typename F>
  EventId push(Time t, F&& fn) {
    return push_keyed(t, take_seq(), std::forward<F>(fn));
  }

  /// Draws the next tie-break key for the current origin.  A caller that
  /// manages its own ordered event stream stamps each logical event with
  /// one of these at creation time; entering the heap later via
  /// push_keyed() or timer_arm_keyed() with the stamped value reproduces
  /// exactly the firing order push() would have produced.
  std::uint64_t alloc_seq() { return take_seq(); }

  /// push() with an explicit tie-break key (from alloc_seq()).
  template <typename F>
  EventId push_keyed(Time t, std::uint64_t seq, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    fn_of(idx).emplace(std::forward<F>(fn));
    pos_[idx] = kOneshotLive;
    opush(HeapEntry{t, seq, idx});
    return (static_cast<EventId>(gen_[idx]) << 32) | (idx + 1);
  }

  /// Cancels a pending event.  For one-shots this is an O(1) lazy
  /// tombstone (the callback is destroyed now; the heap entry evaporates
  /// when it surfaces).  Cancelling an already-fired, already-cancelled,
  /// or invalid id is a harmless no-op: the generation stamp in the handle
  /// no longer matches the slot.
  void cancel(EventId id);

  bool empty() const { return heap_.empty() && dheap_.empty() && olive_ == 0; }
  std::size_t size() const { return heap_.size() + dheap_.size() + olive_; }

  /// Time of the earliest pending event; kTimeInfinity when empty.  O(1).
  /// (Each heap's top is kept accurate — see settle_dtop / drain_otop.)
  Time next_time() const {
    Time m = heap_.empty() ? kTimeInfinity : heap_[0].t;
    if (!dheap_.empty() && dheap_[0].t < m) m = dheap_[0].t;
    if (!oheap_.empty() && oheap_[0].t < m) m = oheap_[0].t;
    return m;
  }

  /// True when an event keyed (t, seq) would fire before everything
  /// currently pending — the coalescing probe of the two-level scheduler.
  bool before_top(Time t, std::uint64_t seq) const {
    if (!heap_.empty() &&
        !(t < heap_[0].t || (t == heap_[0].t && seq < heap_[0].seq))) {
      return false;
    }
    if (!dheap_.empty() &&
        !(t < dheap_[0].t || (t == dheap_[0].t && seq < dheap_[0].seq))) {
      return false;
    }
    if (!oheap_.empty() &&
        !(t < oheap_[0].t || (t == oheap_[0].t && seq < oheap_[0].seq))) {
      return false;
    }
    return true;
  }

  /// Pops the earliest event and runs it, setting `now` to its time first.
  /// Returns false if the queue is empty.  One-shot slots are recycled
  /// (generation bumped) before the callback runs, so the callback may
  /// freely schedule and cancel — including its own, now stale, id.
  /// Persistent timer slots keep their callback and may re-arm themselves.
  bool pop_and_run(Time& now);

  /// Fused next_time() + pop_and_run(): the run loop's one call per event.
  /// Selects the earliest of the three heap tops ONCE, and runs it only if
  /// its time is <= `until`.  kBeyond leaves the event in place (its time
  /// was finite but past the bound); kEmpty means nothing is pending.
  enum class PopResult : std::uint8_t { kRan, kEmpty, kBeyond };
  PopResult pop_and_run_bounded(Time until, Time& now);

  // --- Persistent timers ----------------------------------------------------
  // A timer is a slot whose callback survives firing: high-frequency
  // self-rescheduling events (port serialization-done, pacing wakeups,
  // RetransQ drains, lane heads) re-arm the same slot instead of paying
  // slot release/acquire and callback destroy/reconstruct per fire.
  // Handles are plain slot indices; the owner must destroy the timer
  // before the EventQueue goes away (components already outlive neither
  // their Simulator nor the reverse).

  /// Registers `fn` in a persistent slot; the timer starts un-armed.
  std::uint32_t timer_create(EventCallback fn);
  /// Cancels and releases the slot (the callback is destroyed).
  void timer_destroy(std::uint32_t timer);
  /// (Re-)arms the timer at absolute time `t` with a fresh sequence number
  /// — equivalent in firing order to cancel + push().
  void timer_arm(std::uint32_t timer, Time t) { timer_arm_keyed(timer, t, take_seq()); }
  /// (Re-)arms with an explicit (t, seq) key stamped via alloc_seq().
  void timer_arm_keyed(std::uint32_t timer, Time t, std::uint64_t seq);
  /// (Re-)arms in the DEADLINE class: the timer fires at absolute time `t`
  /// unless pushed further first.  Extending a pending deadline is O(1);
  /// use this for timers that are re-armed per-ACK but fire per-timeout.
  void timer_arm_deadline(std::uint32_t timer, Time t);
  /// Removes the timer's entry from its heap if pending, in O(log n); the
  /// callback is retained.
  void timer_cancel(std::uint32_t timer);
  bool timer_pending(std::uint32_t timer) const { return pos_[timer] != kNoPos; }

  /// Total event slots ever allocated (capacity, not live events) — lets
  /// tests assert the slab stops growing under steady-state churn.
  std::size_t slots_allocated() const { return gen_.size(); }

  /// Slab footprint: callback chunks plus the per-slot metadata arrays and
  /// the three heaps' storage.  Counts capacity (slabs never shrink), so
  /// it tracks the queue's real high-water memory.
  std::uint64_t arena_bytes() const {
    const std::uint64_t slots = gen_.size();
    const std::uint64_t per_slot =
        sizeof(EventCallback) + 2 * sizeof(std::uint32_t)  // gen_, pos_
        + 2 * sizeof(std::uint8_t)                         // persistent_, in_dheap_
        + sizeof(Time) + sizeof(std::uint32_t);            // deadline_, free_
    return slots * per_slot +
           static_cast<std::uint64_t>(heap_.capacity() + dheap_.capacity() +
                                      oheap_.capacity()) *
               sizeof(HeapEntry);
  }

  // --- Origins (see the tie-break key helpers above) ------------------------

  /// Points this queue at another queue's per-origin counter table (every
  /// shard of a ShardGroup shares shard 0's), so a node's counter is the
  /// same object whichever shard's queue draws for it.
  void share_counters(EventQueue& owner) { counters_ = owner.counters_; }
  /// Makes sure `origin` has a counter.  Called while the topology is
  /// built (Node's constructor), never from a run: the table must not
  /// grow while shard threads index it.
  void reserve_origin(std::uint32_t origin) {
    if (origin >= counters_->size()) counters_->resize(origin + std::size_t{1});
  }
  /// The origin subsequent draws are made for.  Every pop sets it to the
  /// popped key's origin (an event runs as the node that scheduled it);
  /// a delivery lane then switches it to the receiving node.
  void set_origin(std::uint32_t origin) { cur_origin_ = origin; }
  std::uint32_t origin() const { return cur_origin_; }

  /// (time, key) of the event currently executing — stamps receiver stat
  /// journals and deferred flow finalizations.  Valid during pop_and_run
  /// (and lane coalescing, which refreshes it via set_current_event).
  Time current_event_time() const { return cur_time_; }
  std::uint64_t current_event_seq() const { return cur_seq_; }
  /// Lane coalescing runs a logical event without a pop; the lane refreshes
  /// the current-event key itself.
  void set_current_event(Time t, std::uint64_t seq) {
    cur_time_ = t;
    cur_seq_ = seq;
  }

  // --- Checkpoint/restore hooks (see sim/snapshot.h) ------------------------
  // Pending one-shots are never serialized (their owners re-push them via
  // push_keyed with saved keys); persistent timers ARE, as (heap, key)
  // tuples.  Heap *arrangement* is not observable — pop order is fully
  // determined by the globally unique (t, seq) keys — so restoring by
  // reinsertion reproduces execution bit-exactly even though the internal
  // array layout may differ from the uninterrupted run.

  /// Arm state of a persistent timer, as serialized by a snapshot.
  struct TimerArm {
    std::uint8_t kind = 0;  // 0 = unarmed, 1 = main heap, 2 = deadline class
    Time t = 0;             // parked heap key time (kind != 0)
    std::uint64_t seq = 0;  // parked heap key sequence (kind != 0)
    Time deadline = 0;      // true deadline (kind == 2; >= t when lazily extended)
  };

  TimerArm timer_arm_state(std::uint32_t timer) const {
    TimerArm a;
    if (pos_[timer] == kNoPos) return a;
    if (in_dheap_[timer]) {
      const HeapEntry& e = dheap_[pos_[timer]];
      a.kind = 2;
      a.t = e.t;
      a.seq = e.seq;
      a.deadline = deadline_[timer];
      return a;
    }
    const HeapEntry& e = heap_[pos_[timer]];
    a.kind = 1;
    a.t = e.t;
    a.seq = e.seq;
    return a;
  }

  /// Re-arms a timer with an exact saved key — the restore-side counterpart
  /// of timer_arm_state().  Call settle_deadline_top() once after a restore
  /// batch to re-establish the deadline heap's top-accuracy invariant.
  void timer_restore(std::uint32_t timer, const TimerArm& a) {
    timer_cancel(timer);
    in_dheap_[timer] = 0;
    if (a.kind == 0) return;
    if (a.kind == 1) {
      insert_main(HeapEntry{a.t, a.seq, timer});
      return;
    }
    in_dheap_[timer] = 1;
    deadline_[timer] = a.deadline;
    dheap_.emplace_back();
    sift_up(dheap_, dheap_.size() - 1, HeapEntry{a.t, a.seq, timer});
  }

  /// Re-establishes "the deadline heap's top matches its slot's true
  /// deadline" after a batch of timer_restore() calls.
  void settle_deadline_top() { settle_dtop(); }

  /// Every origin's next counter value, indexed by origin.
  std::vector<std::uint64_t> key_counters() const {
    std::vector<std::uint64_t> out;
    out.reserve(counters_->size());
    for (const OriginCounter& c : *counters_) out.push_back(c.next);
    return out;
  }
  /// Overwrites the counters from key_counters() output; the table must
  /// already hold that many origins (the rebuild reserved them).
  bool restore_key_counters(const std::vector<std::uint64_t>& v) {
    if (v.size() != counters_->size()) return false;
    for (std::size_t i = 0; i < v.size(); ++i) (*counters_)[i].next = v[i];
    return true;
  }

 private:
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // 512 events
  static constexpr std::uint32_t kNoPos = UINT32_MAX;
  // pos_[] sentinels for slots parked in the non-tracking one-shot heap:
  // membership is tracked, position is not.
  static constexpr std::uint32_t kOneshotLive = UINT32_MAX - 1;
  static constexpr std::uint32_t kOneshotDead = UINT32_MAX - 2;

  /// Heap entries carry the full ordering key inline so sifting compares
  /// contiguous records; only the per-slot position array is written while
  /// entries move (one store per level) — and not at all in the one-shot
  /// heap.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;  // FIFO tie-break among equal times
    std::uint32_t slot;
  };

  EventCallback& fn_of(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  static constexpr unsigned kOriginBits = 24;
  static constexpr std::uint64_t kOriginMask = (1ull << kOriginBits) - 1;
  /// Fibonacci-hash mask of a counter value (see the key layout above).
  static std::uint64_t key_mix(std::uint64_t counter) {
    return (counter * 0x9E3779B97F4A7C15ull) >> (64 - kOriginBits);
  }
  static std::uint64_t make_key(std::uint32_t origin, std::uint64_t counter) {
    return (counter << kOriginBits) | ((origin ^ key_mix(counter)) & kOriginMask);
  }
  static std::uint32_t key_origin(std::uint64_t key) {
    return static_cast<std::uint32_t>((key ^ key_mix(key >> kOriginBits)) & kOriginMask);
  }

  std::uint64_t take_seq() {
    assert(cur_origin_ < counters_->size() && "origin drawn before reserve_origin()");
    return make_key(cur_origin_, (*counters_)[cur_origin_].next++);
  }
  /// One popped event's bookkeeping: clock, current key and origin.
  void begin_event(const HeapEntry& e, Time& now) {
    now = e.t;
    cur_time_ = e.t;
    cur_seq_ = e.seq;
    cur_origin_ = key_origin(e.seq);
  }

  void grow();
  std::uint32_t alloc_slot() {
    if (free_.empty()) grow();
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  void insert_main(const HeapEntry& e) {
    heap_.emplace_back();  // placeholder; sift_up writes the entry in place
    sift_up(heap_, heap_.size() - 1, e);
  }
  void place(std::vector<HeapEntry>& h, std::size_t pos, const HeapEntry& e) {
    h[pos] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  // recycle a slot (bumps generation)
  void release(std::uint32_t idx) {
    pos_[idx] = kNoPos;
    ++gen_[idx];  // invalidates every outstanding handle to this slot
    free_.push_back(idx);
  }
  void remove_from_heap(std::vector<HeapEntry>& h, std::size_t pos);
  void sift_up(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e);
  void sift_down(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e);
  void sift_root_to_bottom(std::vector<HeapEntry>& h, HeapEntry e);
  /// Earliest of the three heap tops under the global (t, seq) order
  /// (sequences are globally unique, so cross-heap ties cannot occur).
  /// 0 = main (timers), 1 = deadline, 2 = one-shot, -1 = all empty.
  int select_top() const {
    int which = -1;
    const HeapEntry* top = nullptr;
    if (!heap_.empty()) {
      which = 0;
      top = &heap_[0];
    }
    if (!dheap_.empty() && (top == nullptr || earlier(dheap_[0], *top))) {
      which = 1;
      top = &dheap_[0];
    }
    if (!oheap_.empty() && (top == nullptr || earlier(oheap_[0], *top))) {
      which = 2;
    }
    return which;
  }
  void run_top(int which, Time& now);
  /// Restores the invariant "the deadline heap's top entry matches its
  /// slot's true deadline": re-keys lazily-extended tops (their key only
  /// grows, so an in-place sift_down; the entry keeps its original
  /// sequence, so re-keying never consumes one).
  void settle_dtop();

  // --- Non-tracking one-shot heap helpers ----------------------------------
  void opush(const HeapEntry& e);
  void opop_root();
  /// Drops tombstoned entries off the one-shot heap's top so it is always
  /// live (next_time()'s O(1) contract).
  void drain_otop();
  /// Rebuilds oheap_ without tombstones once they outnumber live entries.
  void compact_oheap();
  void osift_up(std::size_t pos, HeapEntry e);
  void osift_down(std::size_t pos, HeapEntry e);

  std::vector<std::unique_ptr<EventCallback[]>> chunks_;  // stable storage
  std::vector<std::uint32_t> gen_;   // per-slot generation stamp
  std::vector<std::uint32_t> pos_;   // per-slot heap position (kNoPos = free)
  std::vector<std::uint8_t> persistent_;  // slot is a timer (callback survives fire)
  std::vector<std::uint8_t> in_dheap_;    // pending entry lives in the deadline heap
  std::vector<Time> deadline_;       // true deadline of a deadline-class timer
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::vector<HeapEntry> heap_;      // persistent timers (index-tracked)
  std::vector<HeapEntry> dheap_;     // deadline class: rarely-firing deadlines
  std::vector<HeapEntry> oheap_;     // one-shots (non-tracking)
  std::size_t olive_ = 0;            // live (non-tombstoned) one-shot entries
  std::size_t odead_ = 0;            // tombstones still parked in oheap_
  // One counter per origin, a cache line each: under sharding neighbouring
  // node ids often live on different shards (round-robin core switches),
  // and every draw writes its origin's counter.
  struct alignas(64) OriginCounter {
    std::uint64_t next = 0;
  };
  std::vector<OriginCounter> own_counters_{1};  // kSetupOrigin only, until nodes reserve
  std::vector<OriginCounter>* counters_ = &own_counters_;
  std::uint32_t cur_origin_ = kSetupOrigin;
  Time cur_time_ = 0;
  std::uint64_t cur_seq_ = 0;  // key of the event currently executing
  // Fused pop+re-arm: while a persistent timer's callback runs, its spent
  // root entry stays parked at heap_[0].  If the callback re-arms the same
  // slot — the self-rescheduling pattern of lane heads and port
  // serialization timers, i.e. nearly every pop — the root is re-keyed in
  // place with a single sift_down instead of a full remove + insert.
  // Otherwise the spent root is removed after the callback returns.  Keys
  // drawn during the callback may be smaller than the spent root's (a
  // same-instant arm for another origin), so sift_up never moves a
  // main-heap entry into the root while one is deferred: the root is
  // pinned, and the children below it stay a valid heap for the sift that
  // replaces it.
  std::uint32_t deferred_root_ = kNoPos;
};

// --- Inline hot path ---------------------------------------------------------
// Everything below runs per event or per packet-hop; keeping the bodies
// header-visible lets the run loop (simulator.cpp), the delivery lanes
// (channel.cpp) and the port serialization timers (port.cpp) inline the
// whole schedule->fire machinery without LTO.  Cold maintenance (grow,
// timer_create/destroy, one-shot compaction) stays in event_queue.cpp.

inline void EventQueue::cancel(EventId id) {
  const std::uint64_t slot_part = id & 0xFFFFFFFFull;
  if (slot_part == 0) return;  // kInvalidEvent or malformed
  const auto idx = static_cast<std::uint32_t>(slot_part - 1);
  if (idx >= gen_.size()) return;  // never allocated

  if (gen_[idx] != static_cast<std::uint32_t>(id >> 32)) return;  // stale handle
  if (persistent_[idx]) return;  // timers are managed via timer_* only
  if (pos_[idx] != kOneshotLive) return;  // not pending (or already tombstoned)

  // Lazy cancel: destroy the callback now (releasing captured resources),
  // leave a tombstone the heap reclaims when the entry surfaces.
  fn_of(idx).reset();
  pos_[idx] = kOneshotDead;
  ++gen_[idx];  // invalidates every outstanding handle to this slot
  --olive_;
  ++odead_;
  drain_otop();
  if (odead_ > 64 && odead_ > olive_) compact_oheap();
}

inline void EventQueue::timer_arm_keyed(std::uint32_t timer, Time t, std::uint64_t seq) {
  if (timer == deferred_root_) {
    // Self re-arm from the slot's own callback: re-key the spent root in
    // place.  The new key can only be later, so one sift_down suffices —
    // and it usually terminates at the root (the next lane head / next
    // serialization-done is still among the earliest events pending).
    deferred_root_ = kNoPos;
    sift_down(heap_, 0, HeapEntry{t, seq, timer});
    return;
  }
  if (pos_[timer] != kNoPos) {
    if (in_dheap_[timer]) {
      // Switching discipline mid-life (rare): vacate the deadline heap.
      remove_from_heap(dheap_, pos_[timer]);
      settle_dtop();
    } else {
      remove_from_heap(heap_, pos_[timer]);
    }
    pos_[timer] = kNoPos;
  }
  in_dheap_[timer] = 0;
  insert_main(HeapEntry{t, seq, timer});
}

inline void EventQueue::timer_arm_deadline(std::uint32_t timer, Time t) {
  if (pos_[timer] != kNoPos) {
    if (!in_dheap_[timer]) {
      // Switching discipline mid-life (rare): vacate the first level.
      remove_from_heap(heap_, pos_[timer]);
      pos_[timer] = kNoPos;
    } else {
      const std::size_t p = pos_[timer];
      const bool later = deadline_[timer] <= t;
      deadline_[timer] = t;
      if (later) {
        // The common case — the deadline moves forward (per-ACK RTO
        // pushes): O(1), keeping the key.  The parked entry goes stale; it
        // is re-keyed only if it ever surfaces at the top.
        if (p == 0 && dheap_[0].t < t) settle_dtop();
        return;
      }
      // Pulled before the pending deadline: a fresh key, re-keyed eagerly.
      // The test is against the true deadline, never the parked entry, so
      // whether this draws does not depend on whether a stale entry has
      // surfaced yet (which depends on other origins' entries).
      const HeapEntry e{t, take_seq(), timer};
      if (earlier(e, dheap_[p])) {
        sift_up(dheap_, p, e);
      } else {
        sift_down(dheap_, p, e);
      }
      settle_dtop();
      return;
    }
  }
  deadline_[timer] = t;
  in_dheap_[timer] = 1;
  dheap_.emplace_back();
  sift_up(dheap_, dheap_.size() - 1, HeapEntry{t, take_seq(), timer});
}

inline void EventQueue::timer_cancel(std::uint32_t timer) {
  deadline_[timer] = kTimeInfinity;
  if (pos_[timer] == kNoPos) return;
  if (in_dheap_[timer]) {
    remove_from_heap(dheap_, pos_[timer]);
    pos_[timer] = kNoPos;
    settle_dtop();  // the entry moved into the hole may be a stale one
    return;
  }
  remove_from_heap(heap_, pos_[timer]);
  pos_[timer] = kNoPos;
}

inline void EventQueue::settle_dtop() {
  while (!dheap_.empty()) {
    HeapEntry top = dheap_[0];
    const Time dl = deadline_[top.slot];
    if (dl == top.t) return;  // accurate: this deadline is real
    // Lazily extended: re-key at the true deadline (later, so sift down).
    // The entry keeps its original key — re-keying draws nothing, so a
    // node's key stream is independent of WHEN stale entries happen to
    // surface (which depends on what else shares this queue).
    top.t = dl;
    sift_down(dheap_, 0, top);
  }
}

inline void EventQueue::run_top(int which, Time& now) {
  if (which == 2) {
    // One-shot: pop, invalidate, run IN PLACE.  drain_otop() afterwards
    // keeps the top live so next_time() stays O(1)-accurate.
    const HeapEntry top = oheap_[0];
    begin_event(top, now);
    opop_root();
    --olive_;
    // Handles die here (cancel of the running event's own id is a stale
    // no-op), but the slot joins the free list only AFTER the callback
    // returns: a reentrant push can then never reuse this storage, which
    // makes running the callback in place safe — skipping the relocate
    // (a kInlineSize-byte move through an indirect call) that popping
    // by-move paid on every event.
    pos_[top.slot] = kNoPos;
    ++gen_[top.slot];
    EventCallback& fn = fn_of(top.slot);
    fn();
    fn.reset();
    free_.push_back(top.slot);
    drain_otop();
    return;
  }

  if (which == 0) {
    const std::uint32_t idx = heap_[0].slot;
    begin_event(heap_[0], now);

    if (persistent_[idx]) {
      // Timer: the callback stays in place and may re-arm its own slot.
      // Root removal is DEFERRED: the spent entry's key precedes every
      // other main-heap key that can exist during the callback, so it pins
      // the root and timer_arm_keyed can fuse a self re-arm into one
      // sift_down.
      pos_[idx] = kNoPos;
      deferred_root_ = idx;
      fn_of(idx)();
      if (deferred_root_ == idx) {
        // Not re-armed (or re-armed into the deadline class): physically
        // remove the spent root now.
        deferred_root_ = kNoPos;
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) sift_root_to_bottom(heap_, last);
      }
      return;
    }
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_root_to_bottom(heap_, last);

    EventCallback fn = std::move(fn_of(idx));
    release(idx);  // recycled before running: reentrant schedule/cancel is safe
    fn();
    return;
  }

  // Deadline heap fires: the top is accurate by the settle_dtop invariant.
  const HeapEntry top = dheap_[0];
  const HeapEntry last = dheap_.back();
  dheap_.pop_back();
  if (!dheap_.empty()) sift_root_to_bottom(dheap_, last);
  settle_dtop();
  pos_[top.slot] = kNoPos;
  deadline_[top.slot] = kTimeInfinity;
  begin_event(top, now);
  if (!persistent_[top.slot]) {
    in_dheap_[top.slot] = 0;
    EventCallback fn = std::move(fn_of(top.slot));
    release(top.slot);  // recycled before running, same as the main path
    fn();
    return;
  }
  fn_of(top.slot)();
}

inline bool EventQueue::pop_and_run(Time& now) {
  const int which = select_top();
  if (which < 0) return false;
  run_top(which, now);
  return true;
}

inline EventQueue::PopResult EventQueue::pop_and_run_bounded(Time until, Time& now) {
  const int which = select_top();
  if (which < 0) return PopResult::kEmpty;
  const Time t = which == 0 ? heap_[0].t : which == 1 ? dheap_[0].t : oheap_[0].t;
  if (t > until) return PopResult::kBeyond;
  run_top(which, now);
  return PopResult::kRan;
}

// --- Non-tracking one-shot heap ---------------------------------------------

inline void EventQueue::opush(const HeapEntry& e) {
  ++olive_;
  oheap_.emplace_back();  // placeholder; osift_up writes the entry in place
  osift_up(oheap_.size() - 1, e);
}

inline void EventQueue::opop_root() {
  const HeapEntry last = oheap_.back();
  oheap_.pop_back();
  if (oheap_.empty()) return;
  // Bottom-up pop, same scheme as sift_root_to_bottom but without position
  // maintenance: promote the minimum child down to a leaf, then bubble the
  // (late) replacement up from there — it rarely moves.
  const std::size_t n = oheap_.size();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(oheap_[c], oheap_[best])) best = c;
    }
    oheap_[pos] = oheap_[best];
    pos = best;
  }
  osift_up(pos, last);
}

inline void EventQueue::drain_otop() {
  while (!oheap_.empty() && pos_[oheap_[0].slot] == kOneshotDead) {
    release(oheap_[0].slot);  // the tombstoned slot finally returns to the pool
    --odead_;
    opop_root();
  }
}

inline void EventQueue::osift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    const HeapEntry& p = oheap_[parent];
    if (!earlier(e, p)) break;
    oheap_[pos] = p;
    pos = parent;
  }
  oheap_[pos] = e;
}

inline void EventQueue::osift_down(std::size_t pos, HeapEntry e) {
  const std::size_t n = oheap_.size();
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(oheap_[c], oheap_[best])) best = c;
    }
    if (!earlier(oheap_[best], e)) break;
    oheap_[pos] = oheap_[best];
    pos = best;
  }
  oheap_[pos] = e;
}

// --- Index-tracked heaps (timers + deadlines) --------------------------------

inline void EventQueue::remove_from_heap(std::vector<HeapEntry>& h, std::size_t pos) {
  const HeapEntry last = h.back();
  h.pop_back();
  if (pos < h.size()) {
    // Moving the last entry into the hole: it can only need to travel one
    // direction.  Try down; if it did not move, try up.
    sift_down(h, pos, last);
    if (pos_[last.slot] == pos) sift_up(h, pos, last);
  }
}

inline void EventQueue::sift_up(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e) {
  // Positions 1..4 are the root's children: while a spent main-heap root
  // is deferred, nothing rises past them.
  const std::size_t stop = deferred_root_ != kNoPos && &h == &heap_ ? 4 : 0;
  while (pos > stop) {
    const std::size_t parent = (pos - 1) >> 2;
    const HeapEntry& p = h[parent];
    if (!earlier(e, p)) break;
    place(h, pos, p);
    pos = parent;
  }
  place(h, pos, e);
}

inline void EventQueue::sift_down(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e) {
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    if (!earlier(h[best], e)) break;
    place(h, pos, h[best]);
    pos = best;
  }
  place(h, pos, e);
}

inline void EventQueue::sift_root_to_bottom(std::vector<HeapEntry>& h, HeapEntry e) {
  // Bottom-up pop: the hole's replacement is the heap's last (i.e. a late)
  // entry, so instead of comparing it at every level, promote the minimum
  // child all the way down and then bubble the replacement up from the
  // bottom — it rarely moves.  ~25% fewer comparisons than a plain sift.
  const std::size_t n = h.size();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    place(h, pos, h[best]);
    pos = best;
  }
  sift_up(h, pos, e);
}

}  // namespace dcp
