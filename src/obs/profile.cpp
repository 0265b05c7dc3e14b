#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>

namespace ape::obs {

namespace {

// The wallclock stratum's clock.  Host-time reads live here, in the obs
// layer next to WallClockTimer (the sanctioned wallclock site), and reach
// the simulator only as a function pointer: sim stays chrono-free, and the
// clock is never consulted unless a profiler explicitly enabled wallclock.
// Readings feed exclusively the volatile "wallclock" export subsection.
std::uint64_t host_clock_ns() {
  const auto now = std::chrono::steady_clock::now();  // ape-lint: allow(wallclock)
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(  // ape-lint: allow(wallclock)
          now.time_since_epoch())
          .count());
}

}  // namespace

EngineProfiler::EngineProfiler(sim::Simulator& sim) : sim_(sim) {
  sim_.set_profile_sink(&sink_);
}

EngineProfiler::~EngineProfiler() { sim_.set_profile_sink(nullptr); }

void EngineProfiler::enable_wallclock(bool on) {
  wallclock_ = on;
  sink_.set_clock(on ? &host_clock_ns : nullptr);
}

std::vector<EngineProfiler::KindRow> EngineProfiler::rows() const {
  const sim::EventKindTable& table = sim::EventKindTable::instance();
  std::vector<KindRow> rows;
  const std::vector<sim::KindProfile>& kinds = sink_.kinds();
  rows.reserve(kinds.size());
  for (sim::KindId id = 0; id < kinds.size(); ++id) {
    const sim::KindProfile& p = kinds[id];
    if (p.scheduled == 0 && p.cancelled == 0 && p.fired == 0) continue;
    rows.push_back(KindRow{table.name_of(id), p});
  }
  std::sort(rows.begin(), rows.end(),
            [](const KindRow& a, const KindRow& b) { return a.name < b.name; });
  return rows;
}

void EngineProfiler::record_metrics(MetricsRegistry& registry) const {
  for (const KindRow& row : rows()) {
    const std::string base = "profile.kind." + row.name;
    registry.counter(base + ".scheduled").set(row.profile.scheduled);
    registry.counter(base + ".cancelled").set(row.profile.cancelled);
    registry.counter(base + ".fired").set(row.profile.fired);
    registry.counter(base + ".smallfn_heap").set(row.profile.smallfn_heap);
  }
  registry.counter("profile.engine.events_fired").set(sim_.events_fired());
  registry.counter("profile.engine.events_cancelled").set(sim_.events_cancelled());
  registry.counter("profile.engine.compactions").set(sim_.compactions());
  registry.counter("profile.engine.queue_high_water").set(sim_.queue_high_water());
  registry.counter("profile.engine.far_migrations").set(sim_.far_migrations());
  registry.counter("profile.engine.wheel_rebuckets").set(sim_.wheel_rebuckets());
  registry.counter("profile.engine.arena_slots").set(sim_.arena_slots());
  registry.counter("profile.engine.arena_slot_reuse").set(sim_.arena_slot_reuse());
  registry.counter("profile.engine.generation_wraps").set(sim_.generation_wraps());
  registry.counter("profile.engine.smallfn_heap_fallbacks")
      .set(sim_.smallfn_heap_fallbacks());
  registry.counter("profile.engine.pending_at_end").set(sim_.pending());
}

}  // namespace ape::obs
