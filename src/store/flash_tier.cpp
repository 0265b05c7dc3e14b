#include "store/flash_tier.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace ape::store {

FlashTier::FlashTier(FlashDevice& device, FlashMedia& media, FlashTierParams params)
    : device_(device), media_(media), params_(params) {}

void FlashTier::journal_append(JournalRecord record) {
  device_.write_async(record.encoded_bytes());
  media_.journal.append(std::move(record));
}

Segment& FlashTier::active_segment() {
  if (!has_active_) {
    active_ = next_segment_id_++;
    segments_[active_] = Segment{};
    has_active_ = true;
  }
  return segments_[active_];
}

void FlashTier::seal_active() {
  if (!has_active_) return;
  segments_[active_].sealed = true;
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::Seal;
  rec.segment = active_;
  journal_append(std::move(rec));
  has_active_ = false;
}

void FlashTier::append_object(ObjectMeta meta) {
  if (has_active_) {
    const Segment& cur = segments_[active_];
    if (cur.total_bytes > 0 && cur.total_bytes + meta.size_bytes > params_.segment_bytes) {
      seal_active();
    }
  }
  Segment& seg = active_segment();
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::Append;
  rec.segment = active_;
  rec.meta = meta;
  // One device write covers body + journal record: they land together.
  device_.write_async(meta.size_bytes + rec.encoded_bytes());
  media_.journal.append(std::move(rec));
  seg.total_bytes += meta.size_bytes;
  physical_bytes_ += meta.size_bytes;
  live_bytes_ += meta.size_bytes;
  const UrlHash key = meta.key;
  entries_[key] = FlashLocation{active_, next_seq_++, std::move(meta)};
}

void FlashTier::mark_dead(UrlHash key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  const std::size_t size = it->second.meta.size_bytes;
  segments_.at(it->second.segment).dead_bytes += size;
  live_bytes_ -= size;
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::Invalidate;
  rec.segment = it->second.segment;
  rec.meta.key = key;
  journal_append(std::move(rec));
  entries_.erase(it);
}

FlashTier::PutOutcome FlashTier::put(const cache::CacheEntry& entry, sim::Time now) {
  if (entry.size_bytes > params_.capacity_bytes || entry.expires <= now) {
    ++rejections_;
    return PutOutcome::Rejected;
  }
  mark_dead(entry.key);  // overwrite: the old copy dies first
  if (!make_room(entry.size_bytes, now)) {
    ++rejections_;
    return PutOutcome::Rejected;
  }
  append_object(ObjectMeta::from_entry(entry));
  ++puts_;
  compact_eager();
  maybe_rewrite_journal();
  return PutOutcome::Stored;
}

const ObjectMeta* FlashTier::peek(UrlHash key, sim::Time now) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.meta.expired_at(now)) return nullptr;
  return &it->second.meta;
}

void FlashTier::fetch(UrlHash key, sim::Time now,
                      std::function<void(std::optional<ObjectMeta>)> done) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    done(std::nullopt);
    return;
  }
  if (it->second.meta.expired_at(now)) {
    mark_dead(key);  // lazy expiry, mirroring CacheStore::get
    done(std::nullopt);
    return;
  }
  ObjectMeta meta = it->second.meta;
  const std::size_t bytes = meta.size_bytes;
  device_.read(bytes, [done = std::move(done), meta = std::move(meta)]() mutable {
    // The index may have changed while the device was busy; the copy read
    // off flash was valid when the read was issued, so serve it.
    done(std::move(meta));
  });
}

bool FlashTier::invalidate(UrlHash key) {
  if (entries_.find(key) == entries_.end()) return false;
  mark_dead(key);
  maybe_rewrite_journal();
  return true;
}

std::size_t FlashTier::sweep_expired(sim::Time now) {
  std::vector<UrlHash> dead_keys;
  for (const auto& [key, loc] : entries_) {
    if (loc.meta.expired_at(now)) dead_keys.push_back(key);
  }
  std::size_t reclaimed = 0;
  for (const UrlHash key : dead_keys) {
    reclaimed += entries_.at(key).meta.size_bytes;
    mark_dead(key);
  }
  expired_reclaimed_bytes_ += reclaimed;
  if (!dead_keys.empty()) {
    compact_eager();
    maybe_rewrite_journal();
  }
  return reclaimed;
}

void FlashTier::reset() {
  entries_.clear();
  segments_.clear();
  has_active_ = false;
  active_ = 0;
  next_segment_id_ = 0;
  next_seq_ = 0;
  live_bytes_ = 0;
  physical_bytes_ = 0;
  puts_ = 0;
  rejections_ = 0;
  evictions_ = 0;
  compactions_ = 0;
  recoveries_ = 0;
  expired_reclaimed_bytes_ = 0;
  media_.journal.clear();
}

bool FlashTier::make_room(std::size_t needed, sim::Time now) {
  if (physical_bytes_ + needed <= params_.capacity_bytes) return true;
  sweep_expired(now);  // cheapest reclamation first
  // Each round either compacts a segment away, kills a live object, or
  // seals the active segment; the guard bounds the loop regardless.
  std::size_t guard = 2 * (entries_.size() + segments_.size()) + 8;
  while (physical_bytes_ + needed > params_.capacity_bytes && guard-- > 0) {
    if (const auto victim = dirtiest_sealed(); victim.has_value()) {
      compact(*victim);
      continue;
    }
    if (has_active_ && segments_.at(active_).dead_bytes > 0) {
      // Dead bytes are stuck in the (unsealed) active segment: seal it so
      // compaction can reclaim them before any live object is sacrificed.
      seal_active();
      continue;
    }
    if (const UrlHash* key = eviction_victim(); key != nullptr) {
      ++evictions_;
      mark_dead(*key);
      continue;
    }
    return false;
  }
  return physical_bytes_ + needed <= params_.capacity_bytes;
}

std::optional<SegmentId> FlashTier::dirtiest_sealed() const {
  std::optional<SegmentId> best;
  std::size_t best_dead = 0;
  for (const auto& [id, seg] : segments_) {
    if (seg.sealed && seg.dead_bytes > best_dead) {
      best = id;
      best_dead = seg.dead_bytes;
    }
  }
  return best;
}

void FlashTier::compact_eager() {
  for (;;) {
    std::optional<SegmentId> victim;
    std::size_t worst_dead = 0;
    for (const auto& [id, seg] : segments_) {
      if (!seg.sealed || seg.dead_bytes == 0) continue;
      if (seg.dead_ratio() >= params_.compact_dead_ratio && seg.dead_bytes > worst_dead) {
        victim = id;
        worst_dead = seg.dead_bytes;
      }
    }
    if (!victim.has_value()) return;
    compact(*victim);
  }
}

void FlashTier::compact(SegmentId victim) {
  assert(segments_.at(victim).sealed);
  // Live objects still in the victim, in original append order.
  std::vector<std::pair<std::uint64_t, UrlHash>> movers;
  for (const auto& [key, loc] : entries_) {
    if (loc.segment == victim) movers.emplace_back(loc.seq, key);
  }
  std::sort(movers.begin(), movers.end());
  std::size_t moved_bytes = 0;
  for (const auto& [seq, key] : movers) moved_bytes += entries_.at(key).meta.size_bytes;
  device_.read_async(moved_bytes);  // read live bodies out of the old segment
  for (const auto& [seq, key] : movers) {
    ObjectMeta meta = entries_.at(key).meta;
    live_bytes_ -= meta.size_bytes;  // append_object re-adds
    entries_.erase(key);
    append_object(std::move(meta));
  }
  physical_bytes_ -= segments_.at(victim).total_bytes;
  segments_.erase(victim);
  JournalRecord rec;
  rec.kind = JournalRecord::Kind::DropSegment;
  rec.segment = victim;
  journal_append(std::move(rec));
  ++compactions_;
}

const UrlHash* FlashTier::eviction_victim() const {
  const UrlHash* victim = nullptr;
  const FlashLocation* best = nullptr;
  for (const auto& [key, loc] : entries_) {
    if (best == nullptr || loc.meta.expires < best->meta.expires ||
        (loc.meta.expires == best->meta.expires && loc.seq < best->seq)) {
      victim = &key;
      best = &loc;
    }
  }
  return victim;
}

void FlashTier::recover() {
  entries_.clear();
  segments_.clear();
  has_active_ = false;
  active_ = 0;
  next_segment_id_ = 0;
  next_seq_ = 0;
  live_bytes_ = 0;
  physical_bytes_ = 0;

  device_.read_async(media_.journal.total_bytes());  // replay scans the journal
  for (const auto& rec : media_.journal.records()) {
    switch (rec.kind) {
      case JournalRecord::Kind::Append: {
        auto old = entries_.find(rec.meta.key);
        if (old != entries_.end()) {
          segments_[old->second.segment].dead_bytes += old->second.meta.size_bytes;
          live_bytes_ -= old->second.meta.size_bytes;
          entries_.erase(old);
        }
        Segment& seg = segments_[rec.segment];
        seg.total_bytes += rec.meta.size_bytes;
        physical_bytes_ += rec.meta.size_bytes;
        live_bytes_ += rec.meta.size_bytes;
        entries_[rec.meta.key] = FlashLocation{rec.segment, next_seq_++, rec.meta};
        if (rec.segment >= next_segment_id_) next_segment_id_ = rec.segment + 1;
        break;
      }
      case JournalRecord::Kind::Invalidate: {
        auto it = entries_.find(rec.meta.key);
        if (it == entries_.end()) break;
        segments_[it->second.segment].dead_bytes += it->second.meta.size_bytes;
        live_bytes_ -= it->second.meta.size_bytes;
        entries_.erase(it);
        break;
      }
      case JournalRecord::Kind::Seal: {
        segments_[rec.segment].sealed = true;
        if (rec.segment >= next_segment_id_) next_segment_id_ = rec.segment + 1;
        break;
      }
      case JournalRecord::Kind::DropSegment: {
        auto seg_it = segments_.find(rec.segment);
        if (seg_it == segments_.end()) break;
        physical_bytes_ -= seg_it->second.total_bytes;
        // Compaction moves every live object out before dropping, so no
        // index entry should still point here; guard against a malformed
        // journal anyway.
        for (auto it = entries_.begin(); it != entries_.end();) {
          if (it->second.segment == rec.segment) {
            live_bytes_ -= it->second.meta.size_bytes;
            it = entries_.erase(it);
          } else {
            ++it;
          }
        }
        segments_.erase(seg_it);
        break;
      }
      case JournalRecord::Kind::DeadSpace: {
        Segment& seg = segments_[rec.segment];
        seg.total_bytes += rec.meta.size_bytes;
        seg.dead_bytes += rec.meta.size_bytes;
        physical_bytes_ += rec.meta.size_bytes;
        if (rec.segment >= next_segment_id_) next_segment_id_ = rec.segment + 1;
        break;
      }
    }
  }
  // At most one segment is ever unsealed (the pre-crash active one);
  // re-adopt it so post-recovery state matches pre-crash state exactly.
  for (const auto& [id, seg] : segments_) {
    if (!seg.sealed) {
      active_ = id;
      has_active_ = true;
    }
  }
  ++recoveries_;
}

void FlashTier::maybe_rewrite_journal() {
  const std::size_t budget =
      params_.journal_rewrite_factor * (entries_.size() + segments_.size()) +
      params_.journal_rewrite_slack;
  if (media_.journal.record_count() <= budget) return;

  // Checkpoint: the shortest record sequence reproducing live state.
  // Appends go in global seq order so a replay assigns the same relative
  // order — the eviction tie-break survives the checkpoint.
  std::vector<std::pair<std::uint64_t, const UrlHash*>> order;
  order.reserve(entries_.size());
  for (const auto& [key, loc] : entries_) order.emplace_back(loc.seq, &key);
  std::sort(order.begin(), order.end());

  // Renumber live seqs to what replaying the rewritten journal will
  // assign (0..N-1 in emission order): post-checkpoint in-memory state
  // and its replay stay *identical*, not merely order-equivalent.
  std::uint64_t renumbered = 0;
  for (const auto& [old_seq, key] : order) entries_.at(*key).seq = renumbered++;
  next_seq_ = renumbered;

  std::vector<JournalRecord> fresh;
  fresh.reserve(entries_.size() + 2 * segments_.size());
  for (const auto& [seq, key] : order) {
    const FlashLocation& loc = entries_.at(*key);
    JournalRecord rec;
    rec.kind = JournalRecord::Kind::Append;
    rec.segment = loc.segment;
    rec.meta = loc.meta;
    fresh.push_back(std::move(rec));
  }
  for (const auto& [id, seg] : segments_) {
    if (seg.dead_bytes > 0) {
      JournalRecord rec;
      rec.kind = JournalRecord::Kind::DeadSpace;
      rec.segment = id;
      rec.meta.size_bytes = seg.dead_bytes;
      fresh.push_back(std::move(rec));
    }
    if (seg.sealed) {
      JournalRecord rec;
      rec.kind = JournalRecord::Kind::Seal;
      rec.segment = id;
      fresh.push_back(std::move(rec));
    }
  }
  media_.journal.rewrite(std::move(fresh));
  device_.write_async(media_.journal.total_bytes());
}

}  // namespace ape::store
