// PACM as a cache::EvictionPolicy, pluggable into cache::CacheStore —
// swapping this for cache::LruPolicy turns APE-CACHE into the paper's
// APE-CACHE-LRU ablation.
#pragma once

#include <functional>

#include "cache/object_store.hpp"
#include "common/shard.hpp"
#include "core/frequency_tracker.hpp"
#include "core/pacm.hpp"
#include "sim/simulator.hpp"

namespace ape::core {

class PacmPolicy final : public cache::EvictionPolicy {
  APE_SHARD_CONTEXT(ap);

 public:
  // `clock` supplies virtual "now" (remaining TTLs feed e_d); `frequencies`
  // is the AP's live per-app tracker; `observer` (nullable) receives solver
  // metrics and per-solve trace events.
  PacmPolicy(const ApeConfig& config, const sim::Simulator& clock,
             const FrequencyTracker& frequencies, obs::Observer* observer = nullptr);

  void on_insert(const cache::CacheEntry& /*entry*/) override {}
  void on_access(const cache::CacheEntry& /*entry*/) override {}
  void on_erase(UrlHash /*key*/) override {}

  [[nodiscard]] std::optional<std::vector<UrlHash>> select_victims(
      const cache::CacheStore& store, const cache::CacheEntry& incoming,
      std::size_t bytes_needed) override;

  [[nodiscard]] std::string name() const override { return "PACM"; }

  // Tier awareness: when the AP has a flash tier, evicting an object only
  // demotes it — a later hit costs a flash read, not an edge round trip.
  // The callback returns that flash read cost in milliseconds; PACM then
  // clamps the latency-saved term l_d to min(l_edge, l_flash), deflating
  // the utility of objects that are cheap to bring back.  Unset (the
  // default) keeps the single-tier formula.
  void set_demotion_latency(std::function<double(const cache::CacheEntry&)> fn) {
    demotion_latency_ms_ = std::move(fn);
  }

  [[nodiscard]] std::size_t invocations() const noexcept { return invocations_; }

 private:
  APE_SHARD_LOCAL(ap) ApeConfig config_;
  APE_SHARD_SHARED const sim::Simulator& clock_;
  APE_SHARD_LOCAL(ap) const FrequencyTracker& frequencies_;
  APE_SHARD_SHARED obs::Observer* observer_ = nullptr;
  APE_SHARD_LOCAL(ap) std::function<double(const cache::CacheEntry&)> demotion_latency_ms_;
  APE_SHARD_LOCAL(ap) PacmSolver solver_;
  APE_SHARD_LOCAL(ap) std::size_t invocations_ = 0;
  // The solver's inputs, rebuilt in place on every solve.
  APE_SHARD_LOCAL(ap) std::vector<PacmObject> candidates_;
  APE_SHARD_LOCAL(ap) std::vector<std::pair<AppId, double>> app_frequencies_;
};

}  // namespace ape::core
