#include "obs/export.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/cache_analytics.hpp"
#include "obs/profile.hpp"

namespace ape::obs {

namespace {

void append_mrc_points(std::ostream& out, const std::vector<MrcPoint>& points) {
  out << "[";
  bool first = true;
  for (const MrcPoint& p : points) {
    if (!first) out << ",";
    first = false;
    out << "{\"capacity_bytes\":" << p.capacity_bytes
        << ",\"hit_weight\":" << format_double(p.hit_weight)
        << ",\"miss_ratio\":" << format_double(p.miss_ratio) << "}";
  }
  out << "]";
}

void append_analytics_body(std::ostream& out, const CacheAnalytics& plane) {
  out << "\"profilers\":{";
  bool first = true;
  for (const MrcProfiler& p : plane.profilers()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(p.config().label)
        << "\":{\"sample_rate\":" << format_double(p.config().sample_rate)
        << ",\"current_rate\":" << format_double(p.current_rate())
        << ",\"accesses\":" << p.accesses() << ",\"sampled\":" << p.sampled()
        << ",\"total_weight\":" << format_double(p.total_weight())
        << ",\"cold_weight\":" << format_double(p.cold_weight())
        << ",\"overflow_weight\":" << format_double(p.overflow_weight())
        << ",\"bucket_bytes\":" << p.config().bucket_bytes << ",\"points\":";
    append_mrc_points(out, p.curve());
    out << "}";
  }
  out << "},\"evict\":{";
  first = true;
  // All five causes, in enum order: consumers never have to probe for keys.
  for (std::size_t i = 0; i < kRemovalCauseCount; ++i) {
    if (!first) out << ",";
    first = false;
    const auto cause = static_cast<RemovalCause>(i);
    out << "\"" << to_string(cause) << "\":" << plane.removals(cause);
  }
  out << ",\"doa\":" << plane.dead_on_arrival() << "}";
  out << ",\"doa_ratio\":" << format_double(plane.dead_on_arrival_ratio());
  out << ",\"apps\":{";
  first = true;
  for (const auto& [app, tally] : plane.apps()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(app) << "\":{\"hits\":" << tally.hits
        << ",\"misses\":" << tally.misses << ",\"delegations\":" << tally.delegations << "}";
  }
  out << "},\"totals\":{\"hits\":" << plane.hits() << ",\"misses\":" << plane.misses()
      << ",\"delegations\":" << plane.delegations() << "}";
}

// Fleet rollup: bucket weights merged per profiler label (identical
// MrcConfig across APs is the deployment contract; mismatched bucket sizes
// make a merged curve meaningless, so such labels are skipped).
struct MrcRollup {
  std::uint64_t accesses = 0;
  std::uint64_t sampled = 0;
  double total_weight = 0.0;
  double cold_weight = 0.0;
  double overflow_weight = 0.0;
  std::uint64_t bucket_bytes = 0;
  std::vector<double> weights;
  bool mismatched = false;
};

void append_mrc_section(std::ostream& out, const std::vector<AnalyticsExportEntry>& entries) {
  out << ",\"mrc\":{\"aps\":[";
  bool first = true;
  for (const AnalyticsExportEntry& entry : entries) {
    if (entry.analytics == nullptr) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(entry.name)
        << "\",\"capacity_bytes\":" << entry.capacity_bytes << ",";
    append_analytics_body(out, *entry.analytics);
    out << "}";
  }
  out << "],\"rollup\":{\"profilers\":{";

  std::map<std::string, MrcRollup> rollups;
  std::array<std::uint64_t, kRemovalCauseCount> causes{};
  std::uint64_t doa = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t delegations = 0;
  for (const AnalyticsExportEntry& entry : entries) {
    if (entry.analytics == nullptr) continue;
    const CacheAnalytics& plane = *entry.analytics;
    for (const MrcProfiler& p : plane.profilers()) {
      MrcRollup& r = rollups[p.config().label];
      if (r.bucket_bytes == 0) r.bucket_bytes = p.config().bucket_bytes;
      if (r.bucket_bytes != p.config().bucket_bytes) {
        r.mismatched = true;
        continue;
      }
      r.accesses += p.accesses();
      r.sampled += p.sampled();
      r.total_weight += p.total_weight();
      r.cold_weight += p.cold_weight();
      r.overflow_weight += p.overflow_weight();
      const std::vector<double>& w = p.bucket_weights();
      if (r.weights.size() < w.size()) r.weights.resize(w.size(), 0.0);
      for (std::size_t b = 0; b < w.size(); ++b) r.weights[b] += w[b];
    }
    for (std::size_t i = 0; i < kRemovalCauseCount; ++i) {
      causes[i] += plane.removals(static_cast<RemovalCause>(i));
    }
    doa += plane.dead_on_arrival();
    hits += plane.hits();
    misses += plane.misses();
    delegations += plane.delegations();
  }

  first = true;
  for (const auto& [label, r] : rollups) {
    if (r.mismatched) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(label) << "\":{\"accesses\":" << r.accesses
        << ",\"sampled\":" << r.sampled
        << ",\"total_weight\":" << format_double(r.total_weight)
        << ",\"cold_weight\":" << format_double(r.cold_weight)
        << ",\"overflow_weight\":" << format_double(r.overflow_weight)
        << ",\"bucket_bytes\":" << r.bucket_bytes << ",\"points\":[";
    double cumulative = 0.0;
    bool first_point = true;
    for (std::size_t b = 0; b < r.weights.size(); ++b) {
      if (r.weights[b] == 0.0) continue;
      cumulative += r.weights[b];
      if (!first_point) out << ",";
      first_point = false;
      out << "{\"capacity_bytes\":" << static_cast<std::uint64_t>(b + 1) * r.bucket_bytes
          << ",\"hit_weight\":" << format_double(cumulative) << ",\"miss_ratio\":"
          << format_double(r.total_weight <= 0.0 ? 1.0 : 1.0 - cumulative / r.total_weight)
          << "}";
    }
    out << "]}";
  }
  out << "},\"evict\":{";
  first = true;
  for (std::size_t i = 0; i < kRemovalCauseCount; ++i) {
    if (!first) out << ",";
    first = false;
    out << "\"" << to_string(static_cast<RemovalCause>(i)) << "\":" << causes[i];
  }
  out << ",\"doa\":" << doa << "},\"totals\":{\"hits\":" << hits << ",\"misses\":" << misses
      << ",\"delegations\":" << delegations << "}}}";
}

void append_histogram_json(std::ostream& out, const MetricsRegistry::HistogramEntry& entry) {
  const stats::Histogram& h = entry.histogram;
  out << "{\"unit\":\"" << json_escape(h.unit()) << "\",\"count\":" << h.count()
      << ",\"sum\":" << format_double(h.sum()) << ",\"mean\":" << format_double(h.mean())
      << ",\"min\":" << format_double(h.empty() ? 0.0 : h.min())
      << ",\"max\":" << format_double(h.empty() ? 0.0 : h.max())
      << ",\"stddev\":" << format_double(h.stddev())
      << ",\"p50\":" << format_double(h.percentile(0.50))
      << ",\"p90\":" << format_double(h.percentile(0.90))
      << ",\"p95\":" << format_double(h.percentile(0.95))
      << ",\"p99\":" << format_double(h.percentile(0.99)) << "}";
}

void append_gauge_json(std::ostream& out, const Gauge& gauge) {
  out << "{\"value\":" << format_double(gauge.value())
      << ",\"max\":" << format_double(gauge.max()) << "}";
}

template <typename Map, typename Pred, typename Emit>
void append_object(std::ostream& out, const Map& map, Pred include, Emit emit) {
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : map) {
    if (!include(entry)) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":";
    emit(out, entry);
  }
  out << "}";
}

}  // namespace

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_json(std::ostream& out, const MetricsRegistry& registry,
                const ExportOptions& options) {
  const auto stable = [](const auto& entry) {
    return entry.volatility == Volatility::Stable;
  };
  const auto is_volatile = [](const auto& entry) {
    return entry.volatility == Volatility::Volatile;
  };

  out << "{\"schema\":\"ape.obs.v1\"";

  out << ",\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : options.meta) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  out << "}";

  out << ",\"counters\":{";
  first = true;
  for (const auto& [name, counter] : registry.counters()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << counter.value();
  }
  out << "}";

  out << ",\"gauges\":";
  append_object(out, registry.gauges(), stable,
                [](std::ostream& os, const MetricsRegistry::GaugeEntry& e) {
                  append_gauge_json(os, e.gauge);
                });

  out << ",\"histograms\":";
  append_object(out, registry.histograms(), stable, append_histogram_json);

  if (options.include_volatile) {
    out << ",\"volatile\":{\"gauges\":";
    append_object(out, registry.gauges(), is_volatile,
                  [](std::ostream& os, const MetricsRegistry::GaugeEntry& e) {
                    append_gauge_json(os, e.gauge);
                  });
    out << ",\"histograms\":";
    append_object(out, registry.histograms(), is_volatile, append_histogram_json);
    out << "}";
  }

  if (options.profile != nullptr) {
    const EngineProfiler& prof = *options.profile;
    const std::vector<EngineProfiler::KindRow> rows = prof.rows();
    out << ",\"profile\":{\"kinds\":{";
    first = true;
    for (const EngineProfiler::KindRow& row : rows) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(row.name)
          << "\":{\"scheduled\":" << row.profile.scheduled
          << ",\"cancelled\":" << row.profile.cancelled
          << ",\"fired\":" << row.profile.fired
          << ",\"smallfn_heap\":" << row.profile.smallfn_heap << "}";
    }
    const sim::Simulator& sim = prof.simulator();
    out << "},\"engine\":{\"events_fired\":" << sim.events_fired()
        << ",\"events_cancelled\":" << sim.events_cancelled()
        << ",\"compactions\":" << sim.compactions()
        << ",\"queue_high_water\":" << sim.queue_high_water()
        << ",\"far_migrations\":" << sim.far_migrations()
        << ",\"wheel_rebuckets\":" << sim.wheel_rebuckets()
        << ",\"arena_slots\":" << sim.arena_slots()
        << ",\"arena_slot_reuse\":" << sim.arena_slot_reuse()
        << ",\"generation_wraps\":" << sim.generation_wraps()
        << ",\"smallfn_heap_fallbacks\":" << sim.smallfn_heap_fallbacks()
        << ",\"pending_at_end\":" << sim.pending() << "}";
    // Host-time readings are volatile by nature; the subsection only exists
    // when the wallclock stratum was switched on, so profile-off and
    // wallclock-off snapshots stay byte-reproducible.
    if (prof.wallclock_enabled()) {
      out << ",\"wallclock\":{\"enabled\":true,\"kinds\":{";
      first = true;
      for (const EngineProfiler::KindRow& row : rows) {
        if (row.profile.fired == 0) continue;
        if (!first) out << ",";
        first = false;
        out << "\"" << json_escape(row.name) << "\":"
            << format_double(static_cast<double>(row.profile.fire_wall_ns) / 1000.0);
      }
      out << "}}";
    }
    out << "}";
  }

  if (options.timeline != nullptr) {
    const Timeline& tl = *options.timeline;
    out << ",\"timeseries\":{\"interval_us\":" << tl.interval().count() << ",\"windows\":[";
    first = true;
    for (const TimelineWindow& w : tl.windows()) {
      if (!first) out << ",";
      first = false;
      out << "{\"index\":" << w.index << ",\"start_us\":" << w.start.since_epoch.count()
          << ",\"end_us\":" << w.end.since_epoch.count() << ",\"counters\":{";
      bool inner = true;
      for (const auto& [name, delta] : w.counter_deltas) {
        if (!inner) out << ",";
        inner = false;
        out << "\"" << json_escape(name) << "\":" << delta;
      }
      out << "},\"gauges\":{";
      inner = true;
      for (const auto& [name, value] : w.gauges) {
        if (!inner) out << ",";
        inner = false;
        out << "\"" << json_escape(name) << "\":" << format_double(value);
      }
      out << "},\"histograms\":{";
      inner = true;
      for (const auto& [name, s] : w.histograms) {
        if (!inner) out << ",";
        inner = false;
        out << "\"" << json_escape(name) << "\":{\"unit\":\"" << json_escape(s.unit)
            << "\",\"count\":" << s.count << ",\"sum\":" << format_double(s.sum)
            << ",\"mean\":" << format_double(s.mean) << ",\"min\":" << format_double(s.min)
            << ",\"max\":" << format_double(s.max) << ",\"p50\":" << format_double(s.p50)
            << ",\"p95\":" << format_double(s.p95) << ",\"p99\":" << format_double(s.p99)
            << "}";
      }
      out << "}}";
    }
    out << "]}";
  }

  if (options.alerts != nullptr) {
    const SloEvaluator& slo = *options.alerts;
    out << ",\"alerts\":{\"fired\":" << slo.fired() << ",\"resolved\":" << slo.resolved()
        << ",\"rules\":[";
    first = true;
    for (const SloRule& rule : slo.rules()) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << json_escape(rule.name) << "\",\"metric\":\""
          << json_escape(rule.metric) << "\",\"field\":\"" << to_string(rule.field)
          << "\",\"op\":\"" << json_escape(to_string(rule.op))
          << "\",\"threshold\":" << format_double(rule.threshold)
          << ",\"for_windows\":" << rule.for_windows
          << ",\"resolve_windows\":" << rule.resolve_windows << ",\"state\":\""
          << to_string(slo.state(rule.name)) << "\"}";
    }
    out << "],\"transitions\":[";
    first = true;
    for (const AlertTransition& t : slo.transitions()) {
      if (!first) out << ",";
      first = false;
      out << "{\"window\":" << t.window << ",\"rule\":\"" << json_escape(t.rule)
          << "\",\"from\":\"" << to_string(t.from) << "\",\"to\":\"" << to_string(t.to)
          << "\",\"value\":" << format_double(t.value) << "}";
    }
    out << "]}";
  }

  if (options.mrc != nullptr) append_mrc_section(out, *options.mrc);

  out << "}\n";
}

std::string to_json(const MetricsRegistry& registry, const ExportOptions& options) {
  std::ostringstream os;
  write_json(os, registry, options);
  return os.str();
}

bool write_json_file(const std::string& path, const MetricsRegistry& registry,
                     const ExportOptions& options) {
  std::ofstream file(path);
  if (!file) return false;
  write_json(file, registry, options);
  return static_cast<bool>(file);
}

}  // namespace ape::obs
