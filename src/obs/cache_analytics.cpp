#include "obs/cache_analytics.hpp"

#include <utility>

namespace ape::obs {

namespace {

// Registry/export names per cause — fixed order matches the enum.
constexpr std::array<const char*, kRemovalCauseCount> kCauseNames = {
    "capacity", "expired", "replaced", "invalidated", "cleared"};

}  // namespace

const char* to_string(RemovalCause cause) noexcept {
  return kCauseNames[static_cast<std::size_t>(cause)];
}

CacheAnalytics::CacheAnalytics(CacheAnalyticsConfig config) : config_(std::move(config)) {
  if (config_.profilers.empty()) config_.profilers.emplace_back();  // exact oracle
  profilers_.reserve(config_.profilers.size());
  for (const MrcConfig& c : config_.profilers) profilers_.emplace_back(c);
}

void CacheAnalytics::on_lookup(const std::string& key, std::uint64_t size_bytes,
                               const std::string& app, LookupOutcome outcome) {
  for (MrcProfiler& p : profilers_) p.record_access(key, size_bytes);
  AppTally& tally = app_tallies_[app];
  switch (outcome) {
    case LookupOutcome::Hit:
      ++tally.hits;
      ++hits_;
      break;
    case LookupOutcome::Miss:
      ++tally.misses;
      ++misses_;
      break;
    case LookupOutcome::Delegation:
      ++tally.delegations;
      ++delegations_;
      break;
  }
}

void CacheAnalytics::on_insert(const std::string& key, std::uint64_t size_bytes) {
  // The miss that triggered the fetch entered the profilers with a 0-byte
  // hint; charge the real footprint now that the object landed.
  for (MrcProfiler& p : profilers_) p.update_size(key, size_bytes);
}

void CacheAnalytics::on_removal(const std::string& key, std::uint64_t size_bytes,
                                const std::string& app, RemovalCause cause,
                                std::uint64_t access_count, sim::Time inserted,
                                sim::Time last_access, sim::Time now) {
  (void)key;
  (void)size_bytes;
  ++cause_counts_[static_cast<std::size_t>(cause)];
  ++app_tallies_[app].removals[static_cast<std::size_t>(cause)];
  lifetime_ms_.record(sim::to_millis(now - inserted));
  reuse_gap_ms_.record(sim::to_millis(now - last_access));
  if (cause == RemovalCause::Evicted && access_count == 0) ++dead_on_arrival_;
}

double CacheAnalytics::dead_on_arrival_ratio() const noexcept {
  const std::uint64_t evicted = cause_counts_[static_cast<std::size_t>(RemovalCause::Evicted)];
  return evicted == 0 ? 0.0
                      : static_cast<double>(dead_on_arrival_) / static_cast<double>(evicted);
}

std::vector<std::string> CacheAnalytics::reconcile(std::uint64_t hits, std::uint64_t misses,
                                                   std::uint64_t delegations) const {
  std::vector<std::string> errors;
  std::uint64_t app_hits = 0;
  std::uint64_t app_misses = 0;
  std::uint64_t app_delegations = 0;
  for (const auto& [app, tally] : app_tallies_) {
    app_hits += tally.hits;
    app_misses += tally.misses;
    app_delegations += tally.delegations;
  }
  const auto check = [&errors](const char* what, std::uint64_t per_app, std::uint64_t plane,
                               std::uint64_t stats) {
    if (per_app != plane) {
      errors.push_back(std::string("per-app ") + what + " sum " + std::to_string(per_app) +
                       " != plane total " + std::to_string(plane));
    }
    if (plane != stats) {
      errors.push_back(std::string("plane ") + what + " total " + std::to_string(plane) +
                       " != CacheStatistics " + std::to_string(stats));
    }
  };
  check("hit", app_hits, hits_, hits);
  check("miss", app_misses, misses_, misses);
  check("delegation", app_delegations, delegations_, delegations);
  return errors;
}

void CacheAnalytics::record_metrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.counter(prefix + "cache.evict.doa").set(dead_on_arrival_);
  metrics.gauge(prefix + "cache.evict.doa_ratio").set(dead_on_arrival_ratio());
  if (!lifetime_ms_.empty()) {
    metrics.histogram(prefix + "cache.lifetime_ms", "ms").merge(lifetime_ms_);
  }
  if (!reuse_gap_ms_.empty()) {
    metrics.histogram(prefix + "cache.reuse_gap_ms", "ms").merge(reuse_gap_ms_);
  }
  for (const auto& [app, tally] : app_tallies_) {
    const std::string base = prefix + "cache.app." + app + ".";
    metrics.counter(base + "hits").set(tally.hits);
    metrics.counter(base + "misses").set(tally.misses);
    metrics.counter(base + "delegations").set(tally.delegations);
  }
  for (const MrcProfiler& p : profilers_) {
    const std::string base = prefix + "cache.mrc." + p.config().label + ".";
    metrics.counter(base + "sampled").set(p.sampled());
    metrics.counter(base + "accesses").set(p.accesses());
    metrics.gauge(base + "rate").set(p.current_rate());
  }
}

}  // namespace ape::obs
