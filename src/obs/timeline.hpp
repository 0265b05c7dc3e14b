// Timeline — windowed time-series telemetry over a MetricsRegistry
// (DESIGN.md §5g).
//
// The end-of-run `ape.obs.v1` snapshot answers "what happened by the end";
// the Timeline answers "how did it evolve": on a configurable sim-time
// interval it captures one TimelineWindow holding
//
//   * per-counter *deltas* since the previous capture (signed — set-style
//     counters such as cache sizes may shrink between windows),
//   * the last written value of every stable gauge, and
//   * a summary (count/sum/mean/min/max/p50/p95/p99) of exactly the
//     histogram samples recorded *inside* the window.
//
// Every read of the registry in the capture path goes through the
// DeltaCursor — the cursor is what makes the windows *partition* the run:
// summing a counter's deltas over all windows reproduces the end-of-run
// total exactly, and summing histogram window counts reproduces the final
// sample count.  reconcile() checks that identity (plus window
// monotonicity) and is asserted by `bench_smoke --timeline-out`, re-checked
// offline by `tools/obs_report.py timeline --validate`.  Bypassing the cursor
// with a direct registry read would double-count — the `cursor-bypass`
// ape-lint check forbids it statically.
//
// Disabled by default; like spans (§5f), nothing in a default run calls
// capture(), so default exports stay byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace ape::obs {

// Summary of one histogram's samples recorded within one window.  Only
// histograms with new samples appear in a window.
struct WindowHistogramSummary {
  std::string unit;
  std::size_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct TimelineWindow {
  std::uint64_t index = 0;  // consecutive from 0; deterministic under a seed
  sim::Time start{};        // previous capture instant (0 for the first)
  sim::Time end{};          // this capture instant
  // Zero deltas are omitted (absent == 0), keeping windows sparse.
  std::map<std::string, std::int64_t> counter_deltas;
  std::map<std::string, double> gauges;  // stable gauges only, last value
  std::map<std::string, WindowHistogramSummary> histograms;
};

class Timeline {
 public:
  explicit Timeline(sim::Duration interval = sim::seconds(30.0)) : interval_(interval) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_interval(sim::Duration interval) noexcept { interval_ = interval; }
  [[nodiscard]] sim::Duration interval() const noexcept { return interval_; }

  // Captures the window ending at `now`.  Returns the captured window, or
  // nullptr when disabled.  `now` must not precede the previous capture.
  const TimelineWindow* capture(const MetricsRegistry& registry, sim::Time now);

  [[nodiscard]] const std::vector<TimelineWindow>& windows() const noexcept {
    return windows_;
  }

  // Delta-sum reconciliation + window monotonicity against the registry the
  // windows were captured from.  Empty result == the windows partition the
  // run exactly.  Only exact when nothing mutated the registry after the
  // last capture — flush (capture once more) before validating/exporting.
  [[nodiscard]] std::vector<std::string> reconcile(const MetricsRegistry& registry) const;

  void clear();

 private:
  // The sole reader of the registry on the capture path: remembers, per
  // instrument, how much of it previous windows already consumed, so each
  // sample and each counted increment lands in exactly one window.
  class DeltaCursor {
   public:
    [[nodiscard]] TimelineWindow advance(const MetricsRegistry& registry);
    void reset();

   private:
    std::map<std::string, std::uint64_t> last_counters_;
    std::map<std::string, std::size_t> consumed_samples_;
  };

  sim::Duration interval_;
  bool enabled_ = false;
  DeltaCursor cursor_;
  std::vector<TimelineWindow> windows_;
};

}  // namespace ape::obs
