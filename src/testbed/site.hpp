// The site both testbed shapes share: the back half of paper Fig. 9.
//
//   clients --WiFi--> AP(s) ... uplink --7 hops--> edge cache server
//                                 |--upstream--> LDNS --> ADNS / CDN DNS
//
// A Site owns the simulator, the run Observer, the topology/network/TCP
// stack, the uplink node every AP reaches the WAN through, the edge server
// and the DNS hierarchy, and what runs over them: app hosting, client
// attachment, the site half of collect_metrics(), the timeline capture
// tick and the SLO evaluator every captured window feeds.
// testbed::Testbed is a site whose uplink is its one AP;
// fleet::FleetTestbed is a site whose uplink is the LAN switch in front of
// N APs and the directory shards.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/shard.hpp"
#include "core/client_runtime.hpp"
#include "core/config.hpp"
#include "dns/adns.hpp"
#include "dns/cdn_dns.hpp"
#include "dns/ldns.hpp"
#include "http/edge_server.hpp"
#include "net/tcp.hpp"
#include "obs/cache_analytics.hpp"
#include "obs/observer.hpp"
#include "obs/slo.hpp"
#include "sim/service_queue.hpp"
#include "workload/app_model.hpp"

namespace ape::testbed {

// Link calibration.  These reproduce the paper's measured latencies (AP
// lookup ~7.5 ms, AP retrieval ~7 ms, edge retrieval ~31 ms, edge DNS
// ~22 ms, Wi-Cache controller lookup ~26 ms).
inline constexpr sim::Duration kWifiOneWay = sim::microseconds(1750);
inline constexpr double kWifiBandwidth = 30e6;  // ~240 Mbps effective
inline constexpr std::size_t kEdgeHops = 7;
inline constexpr sim::Duration kEdgePerHop = sim::microseconds(1070);
inline constexpr double kWanBandwidth = 60e6;
inline constexpr std::size_t kControllerHops = 12;
inline constexpr sim::Duration kControllerPerHop = sim::microseconds(1070);
inline constexpr sim::Duration kLdnsOneWay = sim::microseconds(7000);
inline constexpr sim::Duration kAdnsFromLdns = sim::microseconds(15000);
inline constexpr sim::Duration kCdnDnsFromLdns = sim::microseconds(2000);
// TTL of the ADNS CNAME from an app's domain into the CDN namespace.
inline constexpr std::uint32_t kCnameTtl = 3600;

// What a run chooses for the site and for every AP in it: the fields
// TestbedParams and FleetParams share.
struct SiteParams {
  core::ApeConfig ape;

  // Akamai-style per-query server selection: mapping answers are not
  // cacheable, so every edge lookup pays the resolver chain (Sec. II-B).
  std::uint32_t cdn_answer_ttl = 0;

  // Causal request tracing (DESIGN.md §5f).  Off by default: enabling it
  // injects trace-context carriers into DNS/HTTP messages (real wire
  // bytes), so traced runs are *not* byte-identical to default runs.
  bool enable_spans = false;
  std::size_t span_capacity = obs::SpanLog::kDefaultCapacity;

  // Windowed time-series telemetry (DESIGN.md §5g).  Off by default:
  // enabling it schedules capture ticks, which add simulator events (the
  // sim.* counters move) but no traffic and no AP work, so a timeline run
  // simulates exactly what a default run does.
  bool enable_timeline = false;
  sim::Duration timeline_interval{sim::seconds(30.0)};
  // Loaded into the site's slo() and evaluated once per captured window
  // (build them with obs::parse_slo_rule).
  std::vector<obs::SloRule> slo_rules;

  // Cache-analytics plane (DESIGN.md §5l): one obs::CacheAnalytics per AP,
  // all built from `analytics`.  Off by default: the plane is report-only,
  // so an analytics run's simulation is identical to a default run, but
  // its exports carry extra keys.
  bool enable_analytics = false;
  obs::CacheAnalyticsConfig analytics;
};

class Site {
  APE_SHARD_CONTEXT(controller);

 public:
  struct Client {
    net::NodeId node{};
    std::unique_ptr<core::ClientRuntime> runtime;
  };

  virtual ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  // Hosts the app's objects on the edge server and publishes its domain in
  // the DNS hierarchy (CNAME into the CDN namespace -> edge server A).
  // Returns false, and changes nothing, when the domain is already hosted:
  // a second publication would duplicate its CNAME, zone and delegation.
  bool host_app(const workload::AppSpec& app);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] net::TcpTransport& tcp() noexcept { return *tcp_; }
  [[nodiscard]] http::EdgeCacheServer& edge() noexcept { return *edge_; }
  [[nodiscard]] net::IpAddress edge_ip() const noexcept { return edge_ip_; }
  [[nodiscard]] dns::LocalDnsServer& ldns() noexcept { return *ldns_; }

  // Per-run observability bundle: APs, clients and servers push into it
  // while events happen; collect_metrics() adds the pull-phase gauges.
  [[nodiscard]] obs::Observer& observer() noexcept { return obs_; }
  [[nodiscard]] const obs::Observer& observer() const noexcept { return obs_; }

  // Writes the point-in-time metrics into the observer's registry: here the
  // simulator queue stats, DNS server tallies, edge hits and (traced runs)
  // span bookkeeping; each shape adds its APs.  Call after — or during — a
  // run; safe to call repeatedly (gauges are overwritten, set-style
  // counters re-set).
  virtual void collect_metrics();

  // Timeline (enable_timeline runs only): schedules a capture tick every
  // `timeline_interval` until `until`; each tick runs collect_metrics(),
  // Timeline::capture through the delta cursor, and feeds the captured
  // window to slo().
  void start_timeline(sim::Time until);

  // Final capture after the last registry mutation, so the windows
  // partition the run exactly and Timeline::reconcile holds.  Call once,
  // after the run and after any post-run counters are written.
  void flush_timeline();

  // The run's SLO evaluator, loaded with SiteParams::slo_rules and fed
  // every captured window in index order.  Its alert log is exported only
  // through ExportOptions::alerts, never as registry counters: a counter
  // written after a capture would sit outside every window.
  [[nodiscard]] obs::SloEvaluator& slo() noexcept { return slo_; }

 protected:
  // Builds the back half around a first node `uplink_name` at `uplink_ip`:
  // the edge path and the resolver chain hang off it.
  Site(const SiteParams& params, const std::string& uplink_name, net::IpAddress uplink_ip);

  [[nodiscard]] net::Topology& topology() noexcept { return topology_; }
  [[nodiscard]] net::NodeId uplink() const noexcept { return uplink_; }
  // The LDNS, every AP's upstream resolver.
  [[nodiscard]] net::Endpoint ldns_endpoint() const noexcept {
    return net::Endpoint{ldns_ip_, net::kDnsPort};
  }

  // Adds device `name` one WiFi hop from the AP at node `ap`, addressed
  // from the site's client pool (10.20.<n/256>.<n%256>), with a
  // ClientRuntime that resolves through and fetches from that AP.
  void attach_client(Client& client, const std::string& name, net::NodeId ap,
                     net::IpAddress ap_ip, bool ape_enabled);
  [[nodiscard]] net::Port next_client_port() noexcept { return next_client_port_++; }

 private:
  void capture_window();
  void schedule_timeline_tick();

  // Every node pushes metrics/spans into the run observer, and all shards
  // share the one calendar queue: both are cross-shard by construction.
  APE_SHARD_SHARED obs::Observer obs_;
  APE_SHARD_SHARED sim::Simulator sim_;
  APE_SHARD_LOCAL(controller) net::Topology topology_;
  APE_SHARD_SHARED std::unique_ptr<net::Network> network_;
  APE_SHARD_SHARED std::unique_ptr<net::TcpTransport> tcp_;

  // nodes (owning handles: built and torn down by the harness; the
  // pointees belong to their own shards)
  APE_SHARD_LOCAL(controller) net::NodeId uplink_{}, edge_node_{}, ldns_node_{}, adns_node_{},
      cdn_dns_node_{};
  APE_SHARD_LOCAL(controller) net::IpAddress edge_ip_{}, ldns_ip_{}, adns_ip_{}, cdn_dns_ip_{};

  APE_SHARD_LOCAL(controller) std::unique_ptr<sim::ServiceQueue> edge_cpu_, ldns_cpu_,
      adns_cpu_, cdn_cpu_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<http::EdgeCacheServer> edge_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::LocalDnsServer> ldns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::AuthoritativeDnsServer> adns_;
  APE_SHARD_LOCAL(controller) std::unique_ptr<dns::CdnDnsServer> cdn_dns_;

  // Domains host_app has published, so a second hosting is refused.
  APE_SHARD_LOCAL(controller) std::set<std::string> hosted_domains_;

  APE_SHARD_LOCAL(controller) net::Port next_client_port_ = 49152;
  APE_SHARD_LOCAL(controller) std::uint32_t next_client_index_ = 0;
  // collect_metrics() span-folding idempotency cursor
  APE_SHARD_LOCAL(controller) std::size_t spans_histogrammed_ = 0;
  APE_SHARD_LOCAL(controller) sim::Time timeline_until_{};
  APE_SHARD_LOCAL(controller) sim::Simulator::EventId timeline_tick_ = 0;
  APE_SHARD_LOCAL(controller) obs::SloEvaluator slo_;
};

}  // namespace ape::testbed
