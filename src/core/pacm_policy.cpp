// ape-lint: hot-path
#include "core/pacm_policy.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/observer.hpp"

namespace ape::core {

PacmPolicy::PacmPolicy(const ApeConfig& config, const sim::Simulator& clock,
                       const FrequencyTracker& frequencies, obs::Observer* observer)
    : config_(config),
      clock_(clock),
      frequencies_(frequencies),
      observer_(observer),
      solver_(config_) {
  solver_.set_observer(observer_);
}

std::optional<std::vector<UrlHash>> PacmPolicy::select_victims(
    const cache::CacheStore& store, const cache::CacheEntry& incoming,
    std::size_t /*bytes_needed*/) {
  ++invocations_;
  const sim::Time now = clock_.now();

  // Causal tracing: the solve runs synchronously inside an insert, so the
  // inserting hop's span is on the ambient stack.  Zero sim-time duration —
  // the span marks *where* on the critical path the solve happened.
  obs::SpanLog* log = obs::tracing(observer_);
  obs::TraceContext solve_span;
  if (log != nullptr) {
    // ape-lint: allow(hot-alloc) -- a span key, in traced runs only
    std::string text = hash_to_string(incoming.key);
    solve_span = log->open(log->current_context(), "pacm.solve", "pacm", std::move(text), now);
  }

  candidates_.clear();
  store.for_each([&](const cache::CacheEntry& entry) {
    PacmObject& obj = candidates_.emplace_back();
    obj.key = entry.key;
    obj.app = entry.app_id;
    obj.size_bytes = entry.size_bytes;
    obj.priority = entry.priority;
    obj.remaining_ttl_s = sim::to_seconds(entry.remaining_ttl(now));
    obj.fetch_latency_ms = sim::to_millis(entry.fetch_latency);
    if (demotion_latency_ms_) {
      // Tiered AP: eviction demotes to flash, so the latency a resident
      // copy saves is only the cheaper of edge refetch and flash read.
      obj.fetch_latency_ms =
          std::min(obj.fetch_latency_ms, std::max(0.01, demotion_latency_ms_(entry)));
    }
  });

  // The frequency vector goes to the solver in AppId order, one entry per
  // app with a cached object or the incoming one.  A few dozen apps share
  // the candidates, so each lands by binary search in the short list.
  app_frequencies_.clear();
  const auto add_app = [this](AppId app) {
    const auto it = std::lower_bound(
        app_frequencies_.begin(), app_frequencies_.end(), app,
        [](const std::pair<AppId, double>& entry, AppId id) { return entry.first < id; });
    if (it == app_frequencies_.end() || it->first != app) {
      app_frequencies_.emplace(it, app, 0.0);
    }
  };
  for (const PacmObject& obj : candidates_) add_app(obj.app);
  add_app(incoming.app_id);
  for (auto& [app, frequency] : app_frequencies_) frequency = frequencies_.frequency(app, now);

  // The solver caps the kept set at (C - S), so evicting its complement
  // always frees at least `bytes_needed`.
  PacmDecision decision =
      solver_.select_evictions(candidates_, incoming.size_bytes, app_frequencies_);
  if (log != nullptr) log->close(solve_span, now);
  return std::move(decision.evict);
}

}  // namespace ape::core
