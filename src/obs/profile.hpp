// EngineProfiler — per-event-kind cost attribution for the simulation
// engine itself (DESIGN.md §5k).
//
// The profiler mounts a sim::ProfileSink on a Simulator and turns the raw
// per-KindId tallies into named, export-ready data.  Two strata:
//
//   * Stable counters (always on while mounted): per-kind schedule/cancel/
//     fire counts and SmallFn heap fallbacks, and the simulator's engine
//     mechanics (far-heap migrations, wheel re-bucketing, arena high-water
//     and slot reuse, generation wraps).  Pure simulation facts: byte-
//     identical run to run, mirrored into `profile.*` counters so
//     check_bench_regression.py can gate them at 0 tolerance.
//
//   * Wallclock (opt-in via the same Observer::enable_wallclock contract as
//     WallClockTimer): host nanoseconds spent inside each kind's callbacks.
//     Exported only in the "wallclock" subsection of the "profile" export
//     section, never in a stable section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/profile_sink.hpp"
#include "sim/simulator.hpp"

namespace ape::obs {

class EngineProfiler {
 public:
  // Mounts on `sim` for the profiler's lifetime.  One profiler per
  // simulator: mounting replaces any previously attached sink.
  explicit EngineProfiler(sim::Simulator& sim);
  ~EngineProfiler();
  EngineProfiler(const EngineProfiler&) = delete;
  EngineProfiler& operator=(const EngineProfiler&) = delete;

  // Opt into host-time bracketing of every fired callback, under the same
  // contract as Observer::enable_wallclock.
  void enable_wallclock(bool on);
  [[nodiscard]] bool wallclock_enabled() const noexcept { return wallclock_; }

  struct KindRow {
    std::string name;
    sim::KindProfile profile;
  };
  // One row per kind with any activity, sorted by kind name — the
  // deterministic order every consumer (export, report tool) relies on.
  [[nodiscard]] std::vector<KindRow> rows() const;

  [[nodiscard]] const sim::Simulator& simulator() const noexcept { return sim_; }

  // Mirrors the stable stratum into `profile.*` counters (per-kind counts
  // under profile.kind.<name>.*, engine mechanics under profile.engine.*).
  // Never touches wallclock data.
  void record_metrics(MetricsRegistry& registry) const;

 private:
  sim::Simulator& sim_;
  sim::ProfileSink sink_;
  bool wallclock_ = false;
};

}  // namespace ape::obs
