// ape-lint: hot-path
#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "sim/profile_sink.hpp"

namespace ape::sim {

namespace {
// Compaction only pays for itself once a meaningful number of slots are
// dead; below this the queue is left alone regardless of the ratio.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

Simulator::Simulator(QueueKind kind) : kind_(kind) {
  if (kind_ == QueueKind::Calendar) {
    wheel_.resize(kWheelSlots);
    wheel_occupancy_.resize(kWheelSlots / 64, 0);
  }
}

// --- event arena ----------------------------------------------------------

Simulator::EventId Simulator::arena_acquire(Callback fn) {
  std::uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoFreeSlot;
    ++slot_reuse_;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // ape-lint: allow(hot-alloc) — amortised arena growth
  }
  slots_[slot].fn = std::move(fn);
  ++live_;
  return (std::uint64_t{slots_[slot].generation} << 32) | slot;
}

void Simulator::arena_release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn.reset();
  // Bumping the generation is what tombstones every queue entry still
  // pointing at this slot; generation 0 is skipped so no EventId is ever
  // 0 (callers use 0 as a "nothing scheduled" sentinel).
  if (++s.generation == 0) {
    s.generation = 1;
    ++generation_wraps_;
  }
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

// --- queue primitives -----------------------------------------------------

void Simulator::near_push(const Event& ev) {
  near_.push_back(ev);
  std::push_heap(near_.begin(), near_.end());
}

void Simulator::wheel_insert(const Event& ev) {
  const std::uint64_t idx = bucket_of(ev.at) & kWheelMask;
  wheel_[idx].push_back(ev);
  wheel_occupancy_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  ++wheel_count_;
}

void Simulator::queue_push(Event ev) {
  if (kind_ == QueueKind::BinaryHeap) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end());
  } else {
    const std::uint64_t b = bucket_of(ev.at);
    if (b <= cursor_bucket_) {
      // At or behind the cursor (same-bucket follow-ups, past-clamped
      // events, a clock pushed ahead by run_until): the near heap orders
      // them — every wheel/far event lives in a strictly later bucket, so
      // the near minimum stays the global minimum.
      near_push(ev);
    } else if (b - cursor_bucket_ < kWheelSlots) {
      // Strictly less than kWheelSlots: bucket cursor + kWheelSlots would
      // alias the cursor's own wheel index and contaminate the slot being
      // drained, so the horizon's boundary bucket stays in the far heap.
      wheel_insert(ev);
    } else {
      far_.push_back(ev);
      std::push_heap(far_.begin(), far_.end());
    }
  }
  ++queue_size_;
}

std::uint64_t Simulator::next_occupied_bucket() const noexcept {
  // Cyclic scan of the occupancy bitmap starting one past the cursor; the
  // window (cursor, cursor + kWheelSlots) maps injectively onto wheel
  // indices, so the first set bit is the next non-empty bucket.
  const std::uint64_t start_idx = (cursor_bucket_ + 1) & kWheelMask;
  std::uint64_t step = 0;
  while (step < kWheelSlots) {
    const std::uint64_t idx = (start_idx + step) & kWheelMask;
    const std::uint64_t bit = idx & 63;
    const std::uint64_t word = wheel_occupancy_[idx >> 6] >> bit;
    if (word != 0) {
      return cursor_bucket_ + 1 + step +
             static_cast<std::uint64_t>(std::countr_zero(word));
    }
    step += 64 - bit;  // next word boundary
  }
  assert(false && "next_occupied_bucket called with an empty wheel");
  return cursor_bucket_ + 1;
}

void Simulator::advance_cursor() {
  // Precondition: near_ is empty and the wheel or the far heap is not.
  while (near_.empty()) {
    assert(wheel_count_ + far_.size() > 0);
    cursor_bucket_ = wheel_count_ > 0 ? next_occupied_bucket()
                                      : bucket_of(far_.front().at);
    // Far events whose bucket fell inside the new horizon move up.  When
    // the cursor jumped straight to the far minimum, that event's bucket
    // equals the cursor and it lands in the near heap directly.
    while (!far_.empty() &&
           bucket_of(far_.front().at) - cursor_bucket_ < kWheelSlots) {
      std::pop_heap(far_.begin(), far_.end());
      const Event ev = far_.back();
      far_.pop_back();
      ++far_migrations_;
      if (bucket_of(ev.at) <= cursor_bucket_) {
        near_push(ev);
      } else {
        wheel_insert(ev);
      }
    }
    const std::uint64_t idx = cursor_bucket_ & kWheelMask;
    auto& bucket_vec = wheel_[idx];
    if (!bucket_vec.empty()) {
      for (const Event& ev : bucket_vec) near_push(ev);
      wheel_rebuckets_ += bucket_vec.size();
      wheel_count_ -= bucket_vec.size();
      bucket_vec.clear();  // keeps capacity — the slot's vector is recycled
      wheel_occupancy_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
  }
}

const Simulator::Event& Simulator::queue_peek() {
  assert(queue_size_ > 0);
  if (kind_ == QueueKind::BinaryHeap) return heap_.front();
  if (near_.empty()) advance_cursor();
  return near_.front();
}

Simulator::Event Simulator::queue_pop() {
  assert(queue_size_ > 0);
  Event ev;
  if (kind_ == QueueKind::BinaryHeap) {
    std::pop_heap(heap_.begin(), heap_.end());
    ev = heap_.back();
    heap_.pop_back();
  } else {
    if (near_.empty()) advance_cursor();
    std::pop_heap(near_.begin(), near_.end());
    ev = near_.back();
    near_.pop_back();
  }
  --queue_size_;
  return ev;
}

void Simulator::compact() {
  const auto dead = [this](const Event& ev) { return !is_live(ev.id); };
  if (kind_ == QueueKind::BinaryHeap) {
    std::erase_if(heap_, dead);
    std::make_heap(heap_.begin(), heap_.end());
    queue_size_ = heap_.size();
  } else {
    std::erase_if(near_, dead);
    std::make_heap(near_.begin(), near_.end());
    std::erase_if(far_, dead);
    std::make_heap(far_.begin(), far_.end());
    wheel_count_ = 0;
    for (std::size_t w = 0; w < wheel_occupancy_.size(); ++w) {
      std::uint64_t bits = wheel_occupancy_[w];
      while (bits != 0) {
        const auto bit = static_cast<std::uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        auto& vec = wheel_[(w << 6) | bit];
        std::erase_if(vec, dead);
        if (vec.empty()) wheel_occupancy_[w] &= ~(std::uint64_t{1} << bit);
        wheel_count_ += vec.size();
      }
    }
    queue_size_ = near_.size() + wheel_count_ + far_.size();
  }
  tombstones_ = 0;
  ++compactions_;
}

// --- public API -----------------------------------------------------------

std::size_t Simulator::wheel_occupied_buckets() const noexcept {
  std::size_t occupied = 0;
  for (const std::uint64_t word : wheel_occupancy_) {
    occupied += static_cast<std::size_t>(std::popcount(word));
  }
  return occupied;
}

Simulator::EventId Simulator::schedule_at(Time at, Callback fn, KindId kind) {
  assert(fn && "scheduling an empty callback");
  if (at < now_) at = now_;
  const bool heap_fallback = fn.uses_heap();
  if (heap_fallback) ++heap_fallbacks_;
  const EventId id = arena_acquire(std::move(fn));
  slots_[slot_of(id)].kind = kind;
  if (profile_ != nullptr) profile_->on_schedule(kind, heap_fallback);
  queue_push(Event{at, next_seq_++, id});
  high_water_ = std::max(high_water_, live_);
  return id;
}

Simulator::EventId Simulator::schedule_in(Duration delay, Callback fn, KindId kind) {
  return schedule_at(now_ + delay, std::move(fn), kind);
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || !is_live(id)) return false;
  if (profile_ != nullptr) profile_->on_cancel(slots_[slot].kind);
  arena_release(slot);
  ++cancelled_;
  ++tombstones_;
  // Once dead slots reach half the queue, rebuild: keeps schedule-then-
  // cancel loops (timeouts that almost never fire) in O(live) memory.
  // `>=`, not `>`: at exactly 50% dead the rebuild must still happen,
  // otherwise a queue whose live half subsequently fires is left 100%
  // tombstoned with no cancel() call remaining to re-trigger this check.
  if (tombstones_ >= kCompactionFloor && tombstones_ * 2 >= queue_size_) compact();
  return true;
}

void Simulator::fire_event(const Event& ev) {
  const std::uint32_t slot = slot_of(ev.id);
  // Move the callback out *before* releasing the slot so a callback
  // that schedules new events (almost all do) never invalidates our
  // state.  Kind is read here too: the slot may be re-acquired inside fn().
  const KindId kind = slots_[slot].kind;
  Callback fn = std::move(slots_[slot].fn);
  arena_release(slot);
  now_ = ev.at;
  ++fired_;
  if (profile_ != nullptr) {
    if (ProfileSink::ClockFn clock = profile_->clock(); clock != nullptr) {
      const std::uint64_t start_ns = clock();
      fn();
      profile_->on_fire(kind, clock() - start_ns);
    } else {
      fn();
      profile_->on_fire(kind, 0);
    }
  } else {
    fn();
  }
}

bool Simulator::fire_next() {
  while (queue_size_ > 0) {
    const Event ev = queue_pop();
    if (!is_live(ev.id)) {
      assert(tombstones_ > 0);
      --tombstones_;  // tombstone from cancel()
      continue;
    }
    fire_event(ev);
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (fire_next()) ++n;
  return n;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t n = 0;
  while (queue_size_ > 0) {
    // Skip tombstones at the head so their timestamps don't stall us.
    const Event& top = queue_peek();
    if (!is_live(top.id)) {
      queue_pop();
      assert(tombstones_ > 0);
      --tombstones_;
      continue;
    }
    if (deadline < top.at) break;
    // Head is live and due: pop and fire it directly (one pop, no second
    // peek through fire_next).
    const Event ev = queue_pop();
    fire_event(ev);
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Simulator::step(std::size_t n) {
  std::size_t fired = 0;
  while (fired < n && fire_next()) ++fired;
  return fired;
}

}  // namespace ape::sim
