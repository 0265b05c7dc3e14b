// MrcProfiler — miss-ratio-curve estimation over a cache access stream
// (DESIGN.md §5l).
//
// One class, two operating points:
//
//   * sample_rate == 1.0 (default): an exact Mattson stack-distance oracle.
//     Every access is tracked; the reuse distance is the *byte-weighted*
//     stack distance (bytes of distinct objects touched since the key's
//     previous access, inclusive of the key itself), so the resulting curve
//     is directly comparable to PACM's byte-denominated capacity knobs.
//     A Fenwick tree over access-recency slots makes each access O(log n).
//
//   * sample_rate < 1.0: a SHARDS-style spatially-hashed sampler
//     (Waldspurger et al., FAST'15).  A key is sampled iff
//     key mod 2^24 < threshold, where the key is FNV-1a-64 of the key's
//     text (hash_key); sampling is a pure function of the key, so every
//     access to a sampled key is seen and reuse distances within the
//     sample are exact.  Each sampled access carries
//     weight 1/rate and its raw distance is scaled by 1/rate — the curve
//     is an unbiased estimate of the full-stream curve at ~rate of the
//     bookkeeping.  The adaptive variant (s_max > 0) bounds tracked keys:
//     when the working set exceeds s_max the max-hash keys are dropped and
//     the threshold lowers to that hash, so future accesses sample at the
//     reduced rate (weights use the rate in effect at access time).
//
// The cache analytics plane hands in hash_key of a cache key's 16-digit
// hex text.
//
// Everything is deterministic: the hash is fixed, no RNG, no wall clock.
// The profiler observes keys and sizes only — it deliberately knows nothing
// about cache contents, eviction, or layers above obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/url_hash.hpp"

namespace ape::obs {

struct MrcConfig {
  std::string label = "oracle";
  // Fraction of the key space sampled; 1.0 is the exact oracle.  Quantized
  // onto the 2^24 hash modulus, so e.g. 0.01 means floor(0.01 * 2^24) / 2^24.
  double sample_rate = 1.0;
  // Adaptive SHARDS: cap on simultaneously tracked keys (0 = fixed-rate).
  // When exceeded, max-hash keys are evicted and the rate self-lowers.
  std::size_t s_max = 0;
  // Curve resolution: reuse distances land in buckets of this many bytes.
  std::uint64_t bucket_bytes = 64 * 1024;
  // Distances at or beyond max_buckets * bucket_bytes fold into a single
  // overflow bucket (they miss at every plotted capacity).
  std::size_t max_buckets = 4096;
};

// One point of the cumulative curve: at an LRU cache of `capacity_bytes`,
// accesses with reuse distance <= capacity hit.
struct MrcPoint {
  std::uint64_t capacity_bytes = 0;
  double hit_weight = 0.0;  // cumulative sampled hit weight up to here
  double miss_ratio = 1.0;  // 1 - hit_weight / total_weight
};

class MrcProfiler {
 public:
  explicit MrcProfiler(MrcConfig config = {});

  // Feed one lookup from the access stream; `key` is hash_key(key text).
  // `size_bytes` may be 0 when the caller does not yet know the object size
  // (a miss before fetch); update_size() corrects the tracked footprint once
  // the object lands.
  void record_access(UrlHash key, std::uint64_t size_bytes);

  // Correct the byte footprint of a tracked key (no-op when the key is not
  // sampled or unseen).  Does not count as an access.
  void update_size(UrlHash key, std::uint64_t size_bytes);

  // Cumulative curve over the non-empty buckets, monotone nonincreasing in
  // miss_ratio by construction.  Empty when nothing was sampled.
  [[nodiscard]] std::vector<MrcPoint> curve() const;

  // Estimated miss ratio of an LRU cache of `capacity_bytes` (1.0 when
  // nothing was sampled).
  [[nodiscard]] double miss_ratio_at(std::uint64_t capacity_bytes) const;

  [[nodiscard]] const MrcConfig& config() const noexcept { return config_; }
  // Sampling rate currently in effect (== config rate unless adaptive
  // eviction lowered it).
  [[nodiscard]] double current_rate() const noexcept;
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t sampled() const noexcept { return sampled_; }
  [[nodiscard]] std::size_t tracked() const noexcept { return keys_.size(); }
  // Sum of weights of all sampled accesses (the curve's denominator).
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }
  // Weight of first-touch (compulsory miss) accesses.
  [[nodiscard]] double cold_weight() const noexcept { return cold_weight_; }
  // Weight of reuses beyond the last bucket (miss at every plotted size).
  [[nodiscard]] double overflow_weight() const noexcept { return overflow_weight_; }
  // Raw per-bucket reuse weights (index b covers distances in
  // [b, b+1) * bucket_bytes) — what the fleet rollup sums across APs.
  [[nodiscard]] const std::vector<double>& bucket_weights() const noexcept {
    return bucket_weights_;
  }

  // FNV-1a 64-bit over a key's text — the (fixed, documented) spatial
  // hash, and the profiler's key.  Public so tests and sibling tools can
  // reproduce sampling decisions.
  [[nodiscard]] static constexpr UrlHash hash_key(std::string_view key) noexcept {
    return hash_url(key);
  }
  static constexpr std::uint64_t kHashModulus = std::uint64_t{1} << 24;

 private:
  struct Tracked {
    std::size_t slot = 0;     // Fenwick position; larger = more recent
    std::uint64_t bytes = 0;  // current size charged to the slot
  };

  void fenwick_add(std::size_t slot, std::int64_t delta);
  [[nodiscard]] std::uint64_t fenwick_prefix(std::size_t slot) const;
  std::size_t take_slot();
  void vacate(Tracked& t);
  void compact(std::size_t min_capacity);
  void enforce_s_max();

  MrcConfig config_;
  std::uint64_t threshold_;  // sample iff hash_mod < threshold_

  // Access-recency slots.  slot 1..capacity; tree_ is 1-based Fenwick over
  // per-slot byte sizes.
  std::vector<std::uint64_t> tree_;
  std::size_t next_slot_ = 1;

  // Tracked (sampled, live) keys.  Ordered map: deterministic iteration for
  // compaction and export paths.
  std::map<UrlHash, Tracked> keys_;
  // key mod 2^24 -> key, ordered so adaptive eviction pops the max hash
  // cheaply.
  std::multimap<std::uint64_t, UrlHash> by_hash_;

  std::vector<double> bucket_weights_;
  double cold_weight_ = 0.0;
  double overflow_weight_ = 0.0;
  double total_weight_ = 0.0;
  std::uint64_t accesses_ = 0;
  std::uint64_t sampled_ = 0;
};

}  // namespace ape::obs
