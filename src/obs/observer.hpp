// Observer — the per-run observability bundle (metrics + spans + timeline)
// that instrumented components share.
//
// One Observer lives for one run (each testbed owns one; benches own one
// per binary).  Components hold a nullable `obs::Observer*`: a null
// pointer means "not observed" and every hook degrades to a branch, so
// un-instrumented unit tests and the hot loops of uninterested callers pay
// nothing.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "obs/timeline.hpp"

namespace ape::obs {

class Observer {
 public:
  explicit Observer(std::size_t span_capacity = SpanLog::kDefaultCapacity)
      : spans_(span_capacity) {}

  // Opt-in for wall-clock measurement (obs::WallClockTimer).  Off by
  // default: solver/host timing only runs when a bench or experiment that
  // wants the volatile section asks for it, so deterministic runs never
  // even sample the clock.
  void enable_wallclock(bool on = true) noexcept { wallclock_ = on; }
  [[nodiscard]] bool wallclock_enabled() const noexcept { return wallclock_; }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

  // Causal request spans (DESIGN.md §5f).  Default-disabled: components
  // must check spans_enabled() before injecting trace context into wire
  // messages, so untraced runs keep byte-identical simulated traffic.
  [[nodiscard]] SpanLog& spans() noexcept { return spans_; }
  [[nodiscard]] const SpanLog& spans() const noexcept { return spans_; }
  [[nodiscard]] bool spans_enabled() const noexcept { return spans_.enabled(); }

  // Windowed time-series telemetry (DESIGN.md §5g).  Default-disabled:
  // nothing captures windows unless a run opts in, so default runs stay
  // byte-identical.
  [[nodiscard]] Timeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const Timeline& timeline() const noexcept { return timeline_; }
  [[nodiscard]] bool timeline_enabled() const noexcept { return timeline_.enabled(); }

  // Shorthand for the most common hook.
  void count(const std::string& name, std::uint64_t n = 1) { metrics_.counter(name).add(n); }

 private:
  MetricsRegistry metrics_;
  SpanLog spans_;
  Timeline timeline_;
  bool wallclock_ = false;
};

}  // namespace ape::obs
