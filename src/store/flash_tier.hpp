// The flash tier: an LSM-style object store over the simulated device.
//
// Layout (leiyx LSM-KVStore / Ceph journaling, adapted to whole objects):
//
//   * immutable log *segments* hold object bodies append-only; the active
//     segment receives new demotions and seals at `segment_bytes`,
//   * a RAM-resident *index* (std::map — canonical iteration order, see
//     tools/lint) maps key -> (segment, metadata),
//   * every mutation is journaled (store/journal.hpp) before it is
//     applied, so replaying the journal from an empty tier reconstructs
//     the exact index and segment table,
//   * invalidation only marks bytes dead; *compaction* rewrites a sealed
//     segment's live objects into the active segment and drops it,
//     reclaiming the dead bytes.
//
// Capacity is enforced on *physical* bytes (live + dead): dead bytes
// occupy flash until compaction, which is what makes compaction a real
// resource decision rather than bookkeeping.  When space runs out the
// tier first compacts the dirtiest sealed segment, then evicts live
// objects soonest-to-expire-first (deterministic: ties break on append
// sequence).
//
// All state transitions are synchronous; device time (reads, segment
// writes, journal appends) is metered through FlashDevice so it shows up
// in sim-time latency and the ap.flash.* metrics without reordering
// events.  The exception is fetch(), whose completion waits for the
// device — a flash hit must actually cost flash latency.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "store/flash_device.hpp"
#include "store/journal.hpp"

namespace ape::store {

struct FlashTierParams {
  std::size_t capacity_bytes = 64 * 1000 * 1000;
  std::size_t segment_bytes = 1 * 1000 * 1000;
  // Sealed segments at or above this dead fraction are compacted eagerly
  // (below it, only under space pressure).
  double compact_dead_ratio = 0.5;
  // Journal checkpoint trigger: rewrite when records exceed
  // factor * live_entries + slack (keeps replay O(live state)).
  std::size_t journal_rewrite_factor = 8;
  std::size_t journal_rewrite_slack = 64;
};

struct Segment {
  std::size_t total_bytes = 0;  // appended payload, live + dead
  std::size_t dead_bytes = 0;
  bool sealed = false;

  [[nodiscard]] std::size_t live_bytes() const noexcept { return total_bytes - dead_bytes; }
  [[nodiscard]] double dead_ratio() const noexcept {
    return total_bytes == 0 ? 0.0
                            : static_cast<double>(dead_bytes) / static_cast<double>(total_bytes);
  }

  friend bool operator==(const Segment&, const Segment&) = default;
};

struct FlashLocation {
  SegmentId segment = 0;
  std::uint64_t seq = 0;  // append order; eviction tie-break
  ObjectMeta meta;

  friend bool operator==(const FlashLocation&, const FlashLocation&) = default;
};

class FlashTier {
 public:
  // `media` outlives the tier (it is the persistent half of the AP).
  FlashTier(FlashDevice& device, FlashMedia& media, FlashTierParams params);

  // Mount-time recovery: rebuild index + segment table by replaying the
  // journal.  Charges a device read of the journal's footprint.
  void recover();

  enum class PutOutcome { Stored, Rejected };

  // Stores (or overwrites) an object; evicts/compacts for space as needed.
  PutOutcome put(const cache::CacheEntry& entry, sim::Time now);

  // Valid (unexpired) metadata lookup; no device cost (index is in RAM).
  [[nodiscard]] const ObjectMeta* peek(UrlHash key, sim::Time now) const;

  // Async object read: pays the device read for the body, then hands the
  // metadata to `done` (nullopt when the object vanished or expired in
  // the meantime).
  void fetch(UrlHash key, sim::Time now,
             std::function<void(std::optional<ObjectMeta>)> done);

  // Marks the object dead (promotion to RAM, overwrite, explicit drop).
  bool invalidate(UrlHash key);

  // Drops every expired object; returns live bytes reclaimed.
  std::size_t sweep_expired(sim::Time now);

  // Wipes tier state *and* the journal (reset between experiment runs).
  void reset();

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t capacity_bytes() const noexcept { return params_.capacity_bytes; }
  [[nodiscard]] std::size_t live_bytes() const noexcept { return live_bytes_; }
  [[nodiscard]] std::size_t physical_bytes() const noexcept { return physical_bytes_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t segment_count() const noexcept { return segments_.size(); }
  [[nodiscard]] const std::map<UrlHash, FlashLocation>& index() const noexcept {
    return entries_;
  }
  [[nodiscard]] const std::map<SegmentId, Segment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] const Journal& journal() const noexcept { return media_.journal; }
  [[nodiscard]] FlashDevice& device() noexcept { return device_; }

  [[nodiscard]] std::size_t puts() const noexcept { return puts_; }
  [[nodiscard]] std::size_t rejections() const noexcept { return rejections_; }
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t compactions() const noexcept { return compactions_; }
  [[nodiscard]] std::size_t recoveries() const noexcept { return recoveries_; }
  [[nodiscard]] std::size_t expired_reclaimed_bytes() const noexcept {
    return expired_reclaimed_bytes_;
  }

 private:
  // Journals a record and charges its device write.
  void journal_append(JournalRecord record);
  Segment& active_segment();
  void seal_active();
  void append_object(ObjectMeta meta);
  void mark_dead(UrlHash key);
  // Compacts every sealed segment at or above compact_dead_ratio.
  void compact_eager();
  // Frees space until `needed` fits; false when impossible.
  bool make_room(std::size_t needed, sim::Time now);
  // Sealed segment with the most dead bytes (ties: lowest id); nullopt
  // when no sealed segment has any dead bytes.
  [[nodiscard]] std::optional<SegmentId> dirtiest_sealed() const;
  void compact(SegmentId victim);
  // Soonest-to-expire live object (ties: lowest seq).
  [[nodiscard]] const UrlHash* eviction_victim() const;
  void maybe_rewrite_journal();

  FlashDevice& device_;
  FlashMedia& media_;
  FlashTierParams params_;

  // Ordered containers throughout: eviction scans, compaction moves and
  // metric exports iterate these, and iteration order must be canonical
  // (ape-lint: unordered-iter).
  std::map<UrlHash, FlashLocation> entries_;
  std::map<SegmentId, Segment> segments_;
  SegmentId active_ = 0;
  bool has_active_ = false;
  SegmentId next_segment_id_ = 0;
  std::uint64_t next_seq_ = 0;

  std::size_t live_bytes_ = 0;
  std::size_t physical_bytes_ = 0;

  std::size_t puts_ = 0;
  std::size_t rejections_ = 0;
  std::size_t evictions_ = 0;
  std::size_t compactions_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t expired_reclaimed_bytes_ = 0;
};

}  // namespace ape::store
