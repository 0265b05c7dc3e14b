// Write-ahead journal for the flash tier, and the FlashMedia handle that
// makes it persistent across AP restarts.
//
// The flash tier never mutates segments in place: every state change —
// an object appended to a segment (demotion or compaction move), an
// object invalidated, a segment sealed or dropped — is first recorded
// here.  Replaying the record sequence from an empty tier reconstructs
// the exact segment table and object index, which is what turns an AP
// reboot from a cold cache into a warm one (store/flash_tier.hpp,
// DESIGN.md §"Storage tiers & recovery").
//
// Records carry object *metadata* only; bodies are opaque simulated
// bytes living in segments.  That keeps replay O(records) and matches
// the hardware story: the index is a RAM structure rebuilt at mount
// time, the journal and segments are what flash actually stores.
//
// The journal grows with write traffic, so the tier periodically rewrites
// it (a checkpoint): the record sequence is replaced by the shortest
// sequence that reproduces the current live state.  Rewrites are counted
// and journal byte-size is tracked so the device model can charge them.
//
// Durability model: appends are write-through (a record is on flash the
// instant append() returns; the device cost is metered asynchronously).
// A "crash" therefore loses RAM state only — deliberate, deterministic,
// and the property the recovery tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/entry.hpp"
#include "sim/time.hpp"

namespace ape::store {

using SegmentId = std::uint32_t;

// Flash-resident copy of an object: the CacheEntry metadata frozen at
// demotion time.  Flash copies are immutable (segments are logs), so no
// access-time bookkeeping — promotion back to RAM restarts history.
struct ObjectMeta {
  UrlHash key = 0;
  std::size_t size_bytes = 0;
  std::uint32_t app_id = 0;
  int priority = 1;
  sim::Time expires{};
  sim::Duration fetch_latency{0};
  std::string etag;

  [[nodiscard]] bool expired_at(sim::Time now) const noexcept { return expires <= now; }

  [[nodiscard]] static ObjectMeta from_entry(const cache::CacheEntry& entry);
  [[nodiscard]] cache::CacheEntry to_entry() const;

  friend bool operator==(const ObjectMeta&, const ObjectMeta&) = default;
};

struct JournalRecord {
  enum class Kind : std::uint8_t {
    Append,       // object written into `segment` (demotion or compaction move)
    Invalidate,   // object at `key` is dead (promotion, overwrite, eviction, expiry)
    Seal,         // `segment` is full and immutable
    DropSegment,  // `segment` fully reclaimed by compaction
    DeadSpace,    // checkpoint only: `segment` carries meta.size_bytes dead bytes
  };

  Kind kind = Kind::Append;
  SegmentId segment = 0;
  ObjectMeta meta;  // Append: full metadata; Invalidate: key only

  // On-flash footprint estimate, charged to the device on append.  An
  // Append or Invalidate record names its object by the key's hex text.
  [[nodiscard]] std::size_t encoded_bytes() const noexcept {
    const bool keyed = kind == Kind::Append || kind == Kind::Invalidate;
    return 32 + (keyed ? kUrlHashTextBytes : 0) + meta.etag.size();
  }

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

class Journal {
 public:
  void append(JournalRecord record);

  // Checkpoint: replace the record sequence wholesale (flash_tier rewrites
  // the journal as the shortest sequence reproducing live state).
  void rewrite(std::vector<JournalRecord> records);

  void clear();

  [[nodiscard]] const std::vector<JournalRecord>& records() const noexcept { return log_; }
  [[nodiscard]] bool empty() const noexcept { return log_.empty(); }
  [[nodiscard]] std::size_t record_count() const noexcept { return log_.size(); }
  [[nodiscard]] std::size_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::size_t rewrites() const noexcept { return rewrites_; }

 private:
  std::vector<JournalRecord> log_;
  std::size_t total_bytes_ = 0;
  std::size_t rewrites_ = 0;
};

// The durable half of the AP: survives ApRuntime teardown/reconstruction.
// A testbed (or bench) owns one and hands it to every ApRuntime incarnation;
// clear() models replacing the flash part (a true cold restart).
struct FlashMedia {
  Journal journal;

  void clear() { journal.clear(); }
  [[nodiscard]] bool formatted() const noexcept { return !journal.empty(); }
};

}  // namespace ape::store
