// In-sim telemetry scrape path (DESIGN.md §5g): the monitoring plane as a
// measured workload, not an assumption.
//
//   TelemetryCollector (controller node) --12 hops--> TelemetryAgent (AP)
//        "SCRAPE <from>"  ------------------------------>
//        <------------------------  "REPORT ..." (window deltas, text)
//
// The agent serves scrapes from the AP's Timeline: serialization burns AP
// CPU on the *AP's* ServiceQueue (so telemetry shows up in ResourceMeter /
// Fig. 14 style overhead plots), the report rides the simulated WAN path
// (bytes + latency are real simulated traffic), and the collector parses on
// its own ServiceQueue, feeds the windows to its SloEvaluator, and records
// the whole exchange under `ap.telemetry.*` / `controller.telemetry.*` /
// `slo.*`.
//
// The wire format is line-oriented text (the Wi-Cache control-plane idiom);
// doubles are rendered with obs::format_double (shortest round-trip), so
// encode -> decode reproduces every window exactly and the collector-side
// SLO evaluation is as deterministic as the AP-side timeline.
//
// Both components only exist in runs with `enable_timeline`; default runs
// carry no telemetry traffic and stay byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/shard.hpp"
#include "net/network.hpp"
#include "obs/cache_analytics.hpp"
#include "obs/observer.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "sim/service_queue.hpp"

namespace ape::testbed {

inline constexpr net::Port kTelemetryAgentPort = 5310;
inline constexpr net::Port kTelemetryCollectorPort = 5311;

// One scrape response: the windows with index >= `from`, plus the total
// window count so the collector can advance its cursor even when it asks
// past the end.
struct TelemetryReport {
  std::uint64_t from = 0;
  std::uint64_t total = 0;  // windows captured at the AP so far
  std::vector<obs::TimelineWindow> windows;
};

[[nodiscard]] std::string encode_telemetry_report(const TelemetryReport& report);
[[nodiscard]] Result<TelemetryReport> decode_telemetry_report(const std::string& text);

// AP-side scrape endpoint.  Owns no windows — it reads the run Observer's
// Timeline, which the site's capture tick fills through the delta cursor.
class TelemetryAgent {
  APE_SHARD_CONTEXT(ap);

 public:
  // `analytics` (nullable) appends the cache-analytics report to every
  // scrape reply *after* the END terminator: the decoder ignores the
  // appendix, but its serialization burns AP CPU and its bytes ride the
  // wire — the analytics plane's reporting cost is metered the same way
  // the timeline's is.
  TelemetryAgent(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
                 const obs::Timeline& timeline, obs::Observer* observer,
                 const obs::CacheAnalytics* analytics = nullptr);
  ~TelemetryAgent();
  TelemetryAgent(const TelemetryAgent&) = delete;
  TelemetryAgent& operator=(const TelemetryAgent&) = delete;

  [[nodiscard]] std::size_t scrapes_served() const noexcept { return scrapes_served_; }

 private:
  void on_datagram(const net::Datagram& dgram);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_LOCAL(ap) net::NodeId node_;
  APE_SHARD_LOCAL(ap) sim::ServiceQueue& cpu_;  // the AP's CPU — scrape work is AP overhead
  APE_SHARD_LOCAL(ap) const obs::Timeline& timeline_;
  APE_SHARD_SHARED obs::Observer* observer_;
  APE_SHARD_SHARED const obs::CacheAnalytics* analytics_;
  APE_SHARD_LOCAL(ap) std::size_t scrapes_served_ = 0;
};

// Controller-side puller: periodically scrapes the agent, replays the
// window stream into its SloEvaluator, and accounts the telemetry path.
class TelemetryCollector {
  APE_SHARD_CONTEXT(controller);

 public:
  TelemetryCollector(net::Network& network, net::NodeId node, net::Endpoint agent,
                     sim::Duration interval, obs::Observer* observer);
  ~TelemetryCollector();
  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  // Schedules scrapes every `interval` until `until`; call before running.
  void start(sim::Time until);

  [[nodiscard]] obs::SloEvaluator& slo() noexcept { return slo_; }
  [[nodiscard]] const obs::SloEvaluator& slo() const noexcept { return slo_; }

  // Windows as received over the wire, in index order (the collector's
  // view; compare against the AP-side Timeline to test the wire format).
  [[nodiscard]] const std::vector<obs::TimelineWindow>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] std::size_t scrapes_sent() const noexcept { return scrapes_sent_; }
  [[nodiscard]] std::size_t reports_received() const noexcept { return reports_received_; }

 private:
  void schedule_next();
  void send_scrape();
  void on_datagram(const net::Datagram& dgram);
  void handle_report(const std::string& text);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_LOCAL(controller) net::NodeId node_;
  APE_SHARD_LOCAL(controller) net::Endpoint agent_;
  APE_SHARD_LOCAL(controller) sim::Duration interval_;
  APE_SHARD_SHARED obs::Observer* observer_;
  APE_SHARD_LOCAL(controller) sim::ServiceQueue cpu_;  // the collector's own service queue
  APE_SHARD_LOCAL(controller) obs::SloEvaluator slo_;
  APE_SHARD_LOCAL(controller) std::vector<obs::TimelineWindow> windows_;
  APE_SHARD_LOCAL(controller) std::uint64_t next_from_ = 0;
  APE_SHARD_LOCAL(controller) sim::Time until_{};
  APE_SHARD_LOCAL(controller) sim::Simulator::EventId timer_ = 0;
  APE_SHARD_LOCAL(controller) bool in_flight_ = false;
  APE_SHARD_LOCAL(controller) sim::Time sent_at_{};
  APE_SHARD_LOCAL(controller) std::size_t scrapes_sent_ = 0;
  APE_SHARD_LOCAL(controller) std::size_t reports_received_ = 0;
};

}  // namespace ape::testbed
