#include "core/pacm_policy.hpp"

#include <algorithm>
#include <set>

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

std::optional<std::vector<std::string>> PacmPolicy::select_victims(
    const cache::CacheStore& store, const cache::CacheEntry& incoming,
    std::size_t /*bytes_needed*/) {
  ++invocations_;
  const sim::Time now = clock_.now();

  // Causal tracing: the solve runs synchronously inside an insert, so the
  // inserting hop's span is on the ambient stack.  Zero sim-time duration —
  // the span marks *where* on the critical path the solve happened.
  obs::TraceContext solve_span;
  if (observer_ != nullptr) {
    obs::SpanLog& log = observer_->spans();
    solve_span = log.open(log.current_context(), "pacm.solve", "pacm", incoming.key, now);
  }

  std::vector<PacmObject> cached;
  // Ordered: the frequency vector below is handed to the solver, and its
  // order must not depend on hash-set iteration.
  std::set<AppId> apps;
  cached.reserve(store.entry_count());
  store.for_each([&](const cache::CacheEntry& entry) {
    PacmObject obj;
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
    cached.push_back(std::move(obj));
    apps.insert(entry.app_id);
  });
  apps.insert(incoming.app_id);

  std::vector<std::pair<AppId, double>> frequencies;
  frequencies.reserve(apps.size());
  for (AppId app : apps) frequencies.emplace_back(app, frequencies_.frequency(app, now));

  // The solver caps the kept set at (C - S), so evicting its complement
  // always frees at least `bytes_needed`.
  PacmDecision decision = solver_.select_evictions(cached, incoming.size_bytes, frequencies);
  if (observer_ != nullptr) observer_->spans().close(solve_span, now);
  return std::move(decision.evict);
}

}  // namespace ape::core
