#include "obs/mrc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ape::obs {

namespace {

constexpr std::size_t kInitialSlots = 1024;

std::uint64_t threshold_for(double rate) {
  if (rate >= 1.0) return MrcProfiler::kHashModulus;
  if (rate <= 0.0) return 0;
  return static_cast<std::uint64_t>(rate * static_cast<double>(MrcProfiler::kHashModulus));
}

}  // namespace

MrcProfiler::MrcProfiler(MrcConfig config)
    : config_(std::move(config)),
      threshold_(threshold_for(config_.sample_rate)),
      tree_(kInitialSlots + 1, 0),
      bucket_weights_(config_.max_buckets, 0.0) {
  if (config_.bucket_bytes == 0) config_.bucket_bytes = 64 * 1024;
  if (config_.max_buckets == 0) {
    config_.max_buckets = 1;
    bucket_weights_.assign(1, 0.0);
  }
}

double MrcProfiler::current_rate() const noexcept {
  return static_cast<double>(threshold_) / static_cast<double>(kHashModulus);
}

void MrcProfiler::fenwick_add(std::size_t slot, std::int64_t delta) {
  for (; slot < tree_.size(); slot += slot & (~slot + 1)) {
    tree_[slot] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tree_[slot]) + delta);
  }
}

std::uint64_t MrcProfiler::fenwick_prefix(std::size_t slot) const {
  std::uint64_t sum = 0;
  for (; slot > 0; slot -= slot & (~slot + 1)) sum += tree_[slot];
  return sum;
}

std::size_t MrcProfiler::take_slot() {
  if (next_slot_ >= tree_.size()) {
    // Out of slots.  If at least half the array is dead (vacated by
    // re-accesses), re-packing in place is enough; otherwise double first.
    const std::size_t capacity = tree_.size() - 1;
    compact(keys_.size() + 1 > capacity / 2 ? capacity * 2 : capacity);
  }
  return next_slot_++;
}

void MrcProfiler::vacate(Tracked& t) {
  fenwick_add(t.slot, -static_cast<std::int64_t>(t.bytes));
  t.slot = 0;
}

void MrcProfiler::compact(std::size_t min_capacity) {
  // Reassign live slots 1..N in ascending order of their old positions —
  // relative recency is all the distance computation needs.
  std::vector<std::pair<std::size_t, UrlHash>> live;
  live.reserve(keys_.size());
  for (const auto& [key, t] : keys_) live.emplace_back(t.slot, key);
  std::sort(live.begin(), live.end());

  const std::size_t capacity = std::max(min_capacity, std::max(kInitialSlots, live.size() * 2));
  tree_.assign(capacity + 1, 0);
  next_slot_ = 1;
  for (const auto& [old_slot, key] : live) {
    Tracked& t = keys_.at(key);
    t.slot = next_slot_++;
    fenwick_add(t.slot, static_cast<std::int64_t>(t.bytes));
  }
}

void MrcProfiler::enforce_s_max() {
  // Adaptive SHARDS: shrink the sample by dropping the max-hash keys, then
  // lower the threshold to that hash so the future stream matches.  Already
  // recorded contributions keep the weight they were sampled at.
  while (config_.s_max != 0 && keys_.size() > config_.s_max) {
    const auto last = std::prev(by_hash_.end());
    const std::uint64_t hmax = last->first;
    // Drop *every* key at hmax: the new threshold excludes the whole value.
    for (auto it = by_hash_.lower_bound(hmax); it != by_hash_.end();) {
      auto kit = keys_.find(it->second);
      assert(kit != keys_.end());
      vacate(kit->second);
      keys_.erase(kit);
      it = by_hash_.erase(it);
    }
    threshold_ = hmax;  // sample iff hash_mod < hmax from now on
  }
}

void MrcProfiler::record_access(UrlHash key, std::uint64_t size_bytes) {
  ++accesses_;
  if (threshold_ == 0) return;
  const std::uint64_t hash_mod = key % kHashModulus;
  if (hash_mod >= threshold_) return;
  const double weight = static_cast<double>(kHashModulus) / static_cast<double>(threshold_);
  ++sampled_;
  total_weight_ += weight;

  auto it = keys_.find(key);
  if (it == keys_.end()) {
    // First touch: compulsory miss at any capacity.
    cold_weight_ += weight;
    Tracked t;
    t.bytes = size_bytes;
    t.slot = take_slot();
    fenwick_add(t.slot, static_cast<std::int64_t>(t.bytes));
    keys_.emplace(key, t);
    by_hash_.emplace(hash_mod, key);
    enforce_s_max();
    return;
  }

  Tracked& t = it->second;
  if (size_bytes != 0 && size_bytes != t.bytes) {
    fenwick_add(t.slot, static_cast<std::int64_t>(size_bytes) - static_cast<std::int64_t>(t.bytes));
    t.bytes = size_bytes;
  }
  // Inclusive byte stack distance: bytes of keys touched since the previous
  // access (slots above t.slot) plus the key's own footprint.  Within the
  // sample only ~rate of the distinct keys are seen, so the *above* bytes
  // are an unbiased 1/weight fraction of the true ones — scale them back
  // up.  The key's own bytes are known exactly and stay unscaled.
  const std::uint64_t above = fenwick_prefix(tree_.size() - 1) - fenwick_prefix(t.slot);
  const double distance = static_cast<double>(above) * weight + static_cast<double>(t.bytes);
  const double bucket = distance / static_cast<double>(config_.bucket_bytes);
  if (bucket >= static_cast<double>(config_.max_buckets)) {
    overflow_weight_ += weight;
  } else {
    bucket_weights_[static_cast<std::size_t>(bucket)] += weight;
  }
  // Move to the top of the stack.
  vacate(t);
  t.slot = take_slot();
  fenwick_add(t.slot, static_cast<std::int64_t>(t.bytes));
}

void MrcProfiler::update_size(UrlHash key, std::uint64_t size_bytes) {
  auto it = keys_.find(key);
  if (it == keys_.end()) return;
  Tracked& t = it->second;
  if (size_bytes == t.bytes) return;
  fenwick_add(t.slot, static_cast<std::int64_t>(size_bytes) - static_cast<std::int64_t>(t.bytes));
  t.bytes = size_bytes;
}

std::vector<MrcPoint> MrcProfiler::curve() const {
  std::vector<MrcPoint> points;
  if (total_weight_ <= 0.0) return points;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < bucket_weights_.size(); ++b) {
    if (bucket_weights_[b] == 0.0) continue;
    cumulative += bucket_weights_[b];
    MrcPoint p;
    // A distance in bucket b is <= (b + 1) * bucket_bytes, so a cache of
    // that capacity captures every reuse accumulated so far.
    p.capacity_bytes = static_cast<std::uint64_t>(b + 1) * config_.bucket_bytes;
    p.hit_weight = cumulative;
    p.miss_ratio = 1.0 - cumulative / total_weight_;
    points.push_back(p);
  }
  return points;
}

double MrcProfiler::miss_ratio_at(std::uint64_t capacity_bytes) const {
  if (total_weight_ <= 0.0) return 1.0;
  double cumulative = 0.0;
  const std::size_t limit =
      std::min(static_cast<std::size_t>(capacity_bytes / config_.bucket_bytes),
               bucket_weights_.size());
  for (std::size_t b = 0; b < limit; ++b) cumulative += bucket_weights_[b];
  return 1.0 - cumulative / total_weight_;
}

}  // namespace ape::obs
