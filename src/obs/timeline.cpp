#include "obs/timeline.hpp"

#include <algorithm>
#include <cassert>

namespace ape::obs {

TimelineWindow Timeline::DeltaCursor::advance(const MetricsRegistry& registry) {
  TimelineWindow window;

  for (const auto& [name, counter] : registry.counters()) {
    const std::uint64_t current = counter.value();
    const std::uint64_t previous = last_counters_[name];
    if (current != previous) {
      window.counter_deltas[name] =
          static_cast<std::int64_t>(current) - static_cast<std::int64_t>(previous);
      last_counters_[name] = current;
    }
  }

  for (const auto& [name, entry] : registry.gauges()) {
    if (entry.volatility != Volatility::Stable) continue;
    window.gauges[name] = entry.gauge.value();
  }

  for (const auto& [name, entry] : registry.histograms()) {
    if (entry.volatility != Volatility::Stable) continue;
    const stats::Histogram& h = entry.histogram;
    const std::vector<double>& samples = h.samples();
    std::size_t& consumed = consumed_samples_[name];
    assert(consumed <= samples.size() && "histogram shrank mid-run (clear between captures?)");
    if (consumed >= samples.size()) continue;

    // Summary over exactly the window's slice; sorted locally so the
    // registry's own lazily-sorted cache is untouched.
    std::vector<double> slice(samples.begin() + static_cast<std::ptrdiff_t>(consumed),
                              samples.end());
    consumed = samples.size();
    std::sort(slice.begin(), slice.end());
    const auto n = slice.size();
    const auto pct = [&slice, n](double q) {
      const double pos = q * static_cast<double>(n - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const auto hi = std::min(lo + 1, n - 1);
      const double frac = pos - static_cast<double>(lo);
      return slice[lo] * (1.0 - frac) + slice[hi] * frac;
    };

    WindowHistogramSummary summary;
    summary.unit = h.unit();
    summary.count = n;
    for (double v : slice) summary.sum += v;
    summary.mean = summary.sum / static_cast<double>(n);
    summary.min = slice.front();
    summary.max = slice.back();
    summary.p50 = pct(0.50);
    summary.p95 = pct(0.95);
    summary.p99 = pct(0.99);
    window.histograms.emplace(name, std::move(summary));
  }

  return window;
}

void Timeline::DeltaCursor::reset() {
  last_counters_.clear();
  consumed_samples_.clear();
}

const TimelineWindow* Timeline::capture(const MetricsRegistry& registry, sim::Time now) {
  if (!enabled_) return nullptr;
  TimelineWindow window = cursor_.advance(registry);
  window.index = windows_.size();
  window.start = windows_.empty() ? sim::Time{} : windows_.back().end;
  window.end = now;
  assert(window.start <= window.end && "capture instants must be monotone");
  windows_.push_back(std::move(window));
  return &windows_.back();
}

std::vector<std::string> Timeline::reconcile(const MetricsRegistry& registry) const {
  std::vector<std::string> errors;

  const TimelineWindow* prev = nullptr;
  for (const TimelineWindow& w : windows_) {
    if (w.index != static_cast<std::uint64_t>(&w - windows_.data())) {
      errors.push_back("window " + std::to_string(w.index) + ": non-consecutive index");
    }
    if (w.end < w.start) {
      errors.push_back("window " + std::to_string(w.index) + ": end precedes start");
    }
    if (prev != nullptr && w.start != prev->end) {
      errors.push_back("window " + std::to_string(w.index) +
                       ": start does not meet previous window's end");
    }
    prev = &w;
  }

  // Every counter's deltas must sum exactly to its end-of-run value, and
  // every counter with a nonzero total must have shown up in some window.
  std::map<std::string, std::int64_t> sums;
  for (const TimelineWindow& w : windows_) {
    for (const auto& [name, delta] : w.counter_deltas) sums[name] += delta;
  }
  for (const auto& [name, counter] : registry.counters()) {
    const auto it = sums.find(name);
    const std::int64_t sum = it == sums.end() ? 0 : it->second;
    if (sum != static_cast<std::int64_t>(counter.value())) {
      errors.push_back("counter " + name + ": window deltas sum to " + std::to_string(sum) +
                       " but snapshot total is " + std::to_string(counter.value()));
    }
    if (it != sums.end()) sums.erase(it);
  }
  for (const auto& [name, sum] : sums) {
    errors.push_back("counter " + name + ": windows carry " + std::to_string(sum) +
                     " but the counter is missing from the registry");
  }

  // Histogram window counts must sum to the final sample count.
  std::map<std::string, std::size_t> counts;
  for (const TimelineWindow& w : windows_) {
    for (const auto& [name, summary] : w.histograms) counts[name] += summary.count;
  }
  for (const auto& [name, entry] : registry.histograms()) {
    if (entry.volatility != Volatility::Stable) continue;
    const auto it = counts.find(name);
    const std::size_t count = it == counts.end() ? 0 : it->second;
    if (count != entry.histogram.count()) {
      errors.push_back("histogram " + name + ": window counts sum to " +
                       std::to_string(count) + " but snapshot holds " +
                       std::to_string(entry.histogram.count()) + " samples");
    }
  }

  return errors;
}

void Timeline::clear() {
  windows_.clear();
  cursor_.reset();
}

}  // namespace ape::obs
