// Deterministic discrete-event simulator.
//
// The ordering contract is unchanged from day one: events are keyed by
// (time, seq), so two events at the same virtual instant fire in
// scheduling order and runs stay bit-reproducible regardless of container
// iteration order.  What changed for the scale arc (DESIGN.md §5h) is the
// machinery behind that contract:
//
//   * Scheduling structure.  The default QueueKind::Calendar engine is a
//     bucketed calendar queue: a cursor walks 1 ms buckets across a
//     4096-slot wheel (~4.1 s horizon) that covers the short-horizon
//     common case (WiFi/LAN RTTs, service times, timeouts), with a small
//     "near" heap ordering the current bucket and a "far" heap holding
//     events beyond the horizon (DHCP-lease-style timers).  Pushes into
//     the wheel are O(1) vector appends instead of O(log n) heap sifts.
//     QueueKind::BinaryHeap keeps the original single-heap engine alive —
//     it is the reference implementation the scheduler-equivalence
//     property test replays against (tests/test_sim_equivalence.cpp).
//
//   * Event storage.  Callbacks live in a slot arena indexed by EventId =
//     (generation << 32) | slot, not in an unordered_map: scheduling
//     recycles a freelist slot, cancel/fire bump the slot generation so
//     stale ids fail the liveness check in O(1), and SmallFn keeps the
//     captured state inline (no per-event heap allocation).
//
// Cancellation is lazy: cancel() releases the slot and leaves a
// tombstoned queue entry behind.  Tombstones are counted explicitly, so
// pending() always reports live (non-cancelled) events, and when dead
// slots reach half the queue it is compacted in O(n) — a workload that
// schedules-and-cancels forever (timeout patterns) runs in bounded
// memory.
//
// Usage:
//   Simulator sim;
//   sim.schedule_in(milliseconds(5), []{ ... });
//   sim.run();                       // drain all events
//   sim.run_until(Time{seconds(3600)});
// ape-lint: hot-path
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_kind.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace ape::sim {

class ProfileSink;

// Which scheduling structure backs the event queue.  Both honour the
// identical (time, seq) ordering contract; Calendar is the fast default,
// BinaryHeap the reference the property test diffs against.
enum class QueueKind {
  Calendar,
  BinaryHeap,
};

class Simulator {
 public:
  using Callback = SmallFn;
  using EventId = std::uint64_t;

  explicit Simulator(QueueKind kind = QueueKind::Calendar);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  // Schedules `fn` at absolute time `at`; times in the past are clamped to
  // "now" (the event still fires, after currently queued same-time events).
  // `kind` is the event's profiling tag (APE_EVT, sim/event_kind.hpp);
  // untagged calls compile unchanged and land in the "(untagged)" bucket.
  EventId schedule_at(Time at, Callback fn, KindId kind = kKindUntagged);
  EventId schedule_in(Duration delay, Callback fn, KindId kind = kKindUntagged);

  // Mounts (or clears, with nullptr) the per-kind profiling sink.  Counting
  // is observational only: event order, ids and the RNG stream are
  // untouched, so stable exports stay byte-identical with a sink attached.
  void set_profile_sink(ProfileSink* sink) noexcept { profile_ = sink; }

  // Best-effort cancellation (lazy: the slot is tombstoned, popped later).
  // Returns false when the event already fired or was never scheduled.
  bool cancel(EventId id);

  // Runs until the queue drains. Returns the number of events fired.
  std::size_t run();
  // Runs events with time <= deadline; clock lands exactly on `deadline`.
  std::size_t run_until(Time deadline);
  // Fires at most `n` events.
  std::size_t step(std::size_t n = 1);

  // Live (non-cancelled) scheduled events.
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::size_t events_fired() const noexcept { return fired_; }

  // --- queue introspection (feeds the obs queue-depth gauges) -------------
  // Raw queue entries, live + tombstoned.
  [[nodiscard]] std::size_t queue_size() const noexcept { return queue_size_; }
  // Cancelled-but-unpopped entries currently queued.
  [[nodiscard]] std::size_t tombstones() const noexcept { return tombstones_; }
  // Tombstoned fraction of the queue; 0 when the queue is empty.
  [[nodiscard]] double tombstone_ratio() const noexcept {
    return queue_size_ == 0 ? 0.0
                            : static_cast<double>(tombstones_) /
                                  static_cast<double>(queue_size_);
  }
  // Total cancel() calls that actually cancelled something.
  [[nodiscard]] std::size_t events_cancelled() const noexcept { return cancelled_; }
  // Highest live pending() ever observed.
  [[nodiscard]] std::size_t queue_high_water() const noexcept { return high_water_; }
  // Times the queue was rebuilt to shed tombstones.
  [[nodiscard]] std::size_t compactions() const noexcept { return compactions_; }

  // --- engine introspection (always on; feeds the profile export) ---------
  // Arena slots ever allocated (the arena never shrinks, so this is the
  // event high-water mark) and freelist reuses of a released slot.
  [[nodiscard]] std::size_t arena_slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t arena_slot_reuse() const noexcept { return slot_reuse_; }
  // Slot generations that wrapped past 2^32-1 (skipping 0) on release.
  [[nodiscard]] std::size_t generation_wraps() const noexcept { return generation_wraps_; }
  // Scheduled callables too big for SmallFn's inline buffer.
  [[nodiscard]] std::size_t smallfn_heap_fallbacks() const noexcept {
    return heap_fallbacks_;
  }
  // Far-heap events promoted into the wheel/near structures as the cursor
  // advanced, and wheel-bucket entries re-bucketed into the near heap.
  [[nodiscard]] std::size_t far_migrations() const noexcept { return far_migrations_; }
  [[nodiscard]] std::size_t wheel_rebuckets() const noexcept { return wheel_rebuckets_; }
  // Current calendar-wheel occupancy (BinaryHeap runs report zeros).
  [[nodiscard]] std::size_t wheel_events() const noexcept { return wheel_count_; }
  [[nodiscard]] std::size_t wheel_occupied_buckets() const noexcept;

  // Test-only: overwrite a slot's generation so wraparound paths are
  // reachable without 2^32 schedule/release cycles (tests/test_sim.cpp).
  void debug_warp_generation(std::uint32_t slot, std::uint32_t generation) {
    slots_.at(slot).generation = generation;
  }

 private:
  // Calendar geometry: ~1 ms buckets, 4096-slot wheel → ~4.19 s horizon.
  // Tuned on bench_engine at both 100k and 1M clients: finer buckets blow
  // up cursor-advance overhead, coarser ones grow the near heap's log
  // factor; this middle point wins at both scales.
  static constexpr std::uint64_t kBucketShift = 10;
  static constexpr std::uint64_t kWheelBits = 12;
  static constexpr std::uint64_t kWheelSlots = std::uint64_t{1} << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSlots - 1;
  static constexpr std::uint32_t kNoFreeSlot = ~std::uint32_t{0};

  struct Event {
    Time at;
    std::uint64_t seq;
    EventId id;
    // Ordering for a max-heap front: invert so the earliest (then lowest
    // seq) event is on top.
    friend bool operator<(const Event& a, const Event& b) noexcept {
      if (a.at != b.at) return b.at < a.at;
      return b.seq < a.seq;
    }
  };

  // One arena slot: the callback plus the generation that validates ids.
  // Slots are recycled through a freelist; the generation bumps on every
  // release, so a queue entry whose generation no longer matches is a
  // tombstone.
  struct Slot {
    // Generation first: the liveness check and a small callback's inline
    // state land on the same cache line.
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoFreeSlot;
    // Profiling tag; rides in what was alignment padding before the
    // 16-aligned SmallFn, so the slot stays the same size.
    KindId kind = kKindUntagged;
    SmallFn fn;
  };

  static constexpr std::uint64_t bucket_of(Time t) noexcept {
    return static_cast<std::uint64_t>(t.since_epoch.count()) >> kBucketShift;
  }
  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  [[nodiscard]] bool is_live(EventId id) const noexcept {
    return slots_[slot_of(id)].generation == generation_of(id);
  }

  EventId arena_acquire(Callback fn);
  void arena_release(std::uint32_t slot) noexcept;

  // --- queue primitives; every path maintains queue_size_ -----------------
  void queue_push(Event ev);
  // Global-minimum entry; precondition queue_size_ > 0.  May advance the
  // calendar cursor (not an observable state change).
  const Event& queue_peek();
  Event queue_pop();
  // Drops every tombstoned entry and rebuilds; resets tombstones_.
  void compact();

  // Calendar internals.
  void advance_cursor();
  [[nodiscard]] std::uint64_t next_occupied_bucket() const noexcept;
  void wheel_insert(const Event& ev);
  void near_push(const Event& ev);

  // Pops queue entries until one with a live slot fires; returns false
  // when only tombstones (or nothing) remained.
  bool fire_next();
  // Releases the slot, advances the clock and invokes the callback —
  // bracketed by the profiler's clock when wallclock profiling is on.
  void fire_event(const Event& ev);

  QueueKind kind_;
  Time now_{};
  std::uint64_t next_seq_ = 0;

  // Event arena.
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::size_t live_ = 0;

  // QueueKind::BinaryHeap: the original single (time, seq) heap.
  std::vector<Event> heap_;

  // QueueKind::Calendar: near heap (buckets <= cursor), wheel (next
  // kWheelSlots buckets, unsorted), far heap (beyond the horizon), plus an
  // occupancy bitmap so cursor advances skip empty buckets in O(words).
  std::vector<Event> near_;
  std::vector<std::vector<Event>> wheel_;
  std::vector<std::uint64_t> wheel_occupancy_;
  std::vector<Event> far_;
  std::uint64_t cursor_bucket_ = 0;
  std::size_t wheel_count_ = 0;

  std::size_t queue_size_ = 0;
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t high_water_ = 0;
  std::size_t compactions_ = 0;

  // Engine-mechanics tallies (cheap increments on paths that already touch
  // the counted structure; maintained whether or not a sink is mounted).
  std::size_t slot_reuse_ = 0;
  std::size_t generation_wraps_ = 0;
  std::size_t heap_fallbacks_ = 0;
  std::size_t far_migrations_ = 0;
  std::size_t wheel_rebuckets_ = 0;

  ProfileSink* profile_ = nullptr;
};

}  // namespace ape::sim
