// CacheAnalytics — default-off, report-only cache analytics plane
// (DESIGN.md §5l): miss-ratio curves, an eviction-cause ledger and per-app
// hit attribution for one AP's object store.
//
// The plane observes three taps and mutates nothing it observes:
//
//   * on_lookup  — every cache decision (hit / miss / delegation) from the
//     AP's request path, feeding the MRC profilers and the per-app
//     attribution counters;
//   * on_insert  — the store's insert listener, correcting profiler byte
//     footprints once an object's real size is known;
//   * on_removal — the store's removal listener, feeding the eviction-cause
//     ledger (per-cause × per-app counters, object-lifetime and reuse-gap
//     histograms, dead-on-arrival accounting).
//
// Attribution carries an exact partition invariant, same contract style as
// the Timeline's delta-sum identity: sum over apps of hits/misses/
// delegations equals the plane's totals equals CacheStatistics' totals —
// reconcile() re-checks it and `tools/obs_report.py mrc --validate`
// re-checks it again offline.
//
// Keys arrive as the cache's UrlHash and apps as plain strings, because obs
// sits *below* cache in the layer map; the key type and the removal cause
// (the cache's own RemovalCause) both live in common/.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/removal_cause.hpp"
#include "common/url_hash.hpp"
#include "obs/metrics.hpp"
#include "obs/mrc.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace ape::obs {

// Export/registry name of a cause: the ledger calls an Evicted entry a
// "capacity" eviction and an Erased one "invalidated".
[[nodiscard]] const char* to_string(RemovalCause cause) noexcept;

enum class LookupOutcome : std::uint8_t { Hit, Miss, Delegation };

struct CacheAnalyticsConfig {
  // Profilers run side by side over the same stream (e.g. an exact oracle
  // next to a SHARDS sampler, for error gating).  Empty = one exact oracle.
  std::vector<MrcConfig> profilers;
};

class CacheAnalytics {
 public:
  struct AppTally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t delegations = 0;
    std::array<std::uint64_t, kRemovalCauseCount> removals{};
  };

  explicit CacheAnalytics(CacheAnalyticsConfig config = {});

  void on_lookup(UrlHash key, std::uint64_t size_bytes, const std::string& app,
                 LookupOutcome outcome);
  void on_insert(UrlHash key, std::uint64_t size_bytes);
  void on_removal(UrlHash key, std::uint64_t size_bytes, const std::string& app,
                  RemovalCause cause, std::uint64_t access_count, sim::Time inserted,
                  sim::Time last_access, sim::Time now);

  // Exact partition invariant against CacheStatistics totals.  Returns one
  // human-readable line per violated identity (empty = reconciled).
  [[nodiscard]] std::vector<std::string> reconcile(std::uint64_t hits, std::uint64_t misses,
                                                   std::uint64_t delegations) const;

  // Ledger + attribution as gated metrics (deterministic: ordered maps
  // only).  Called from ApRuntime::snapshot_metrics when the plane is on.
  void record_metrics(MetricsRegistry& metrics, const std::string& prefix) const;

  [[nodiscard]] const std::vector<MrcProfiler>& profilers() const noexcept { return profilers_; }
  [[nodiscard]] const std::map<std::string, AppTally>& apps() const noexcept { return app_tallies_; }
  [[nodiscard]] std::uint64_t removals(RemovalCause cause) const noexcept {
    return cause_counts_[static_cast<std::size_t>(cause)];
  }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t delegations() const noexcept { return delegations_; }
  // Capacity evictions of objects that were never re-hit after insert.
  [[nodiscard]] std::uint64_t dead_on_arrival() const noexcept { return dead_on_arrival_; }
  [[nodiscard]] double dead_on_arrival_ratio() const noexcept;
  [[nodiscard]] const stats::Histogram& lifetime_ms() const noexcept { return lifetime_ms_; }
  [[nodiscard]] const stats::Histogram& reuse_gap_ms() const noexcept { return reuse_gap_ms_; }

 private:
  CacheAnalyticsConfig config_;
  std::vector<MrcProfiler> profilers_;

  // Attribution (ordered by app id: canonical iteration).
  std::map<std::string, AppTally> app_tallies_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t delegations_ = 0;

  // Eviction-cause ledger.
  std::array<std::uint64_t, kRemovalCauseCount> cause_counts_{};
  std::uint64_t dead_on_arrival_ = 0;
  stats::Histogram lifetime_ms_{"ms"};
  stats::Histogram reuse_gap_ms_{"ms"};
};

}  // namespace ape::obs
