#include "testbed/testbed.hpp"

#include <cassert>

namespace ape::testbed {

namespace {
constexpr net::IpAddress kApIp = net::IpAddress::from_octets(192, 168, 8, 1);
constexpr net::IpAddress kControllerIp = net::IpAddress::from_octets(3, 14, 0, 2);
}  // namespace

const char* to_string(System system) noexcept {
  switch (system) {
    case System::ApeCache: return "APE-CACHE";
    case System::ApeCacheLru: return "APE-CACHE-LRU";
    case System::WiCache: return "Wi-Cache";
    case System::EdgeCache: return "Edge Cache";
  }
  return "?";
}

Testbed::Testbed(TestbedParams params)
    : Site(params, "ap", kApIp),
      params_(std::move(params)) {
  if (params_.enable_analytics) {
    analytics_ = std::make_unique<obs::CacheAnalytics>(params_.analytics);
  }

  // AP -> Wi-Cache controller (EC2): 12 hops.
  controller_node_ = topology().add_node("ec2-controller");
  topology().add_multi_hop_path(uplink(), controller_node_, kControllerHops, kControllerPerHop,
                                kWanBandwidth);
  network().assign_ip(controller_node_, kControllerIp);

  // The AP: APE-CACHE runtimes for the two APE systems, stock forwarder for
  // Wi-Cache / Edge Cache.  The flash media outlives ApRuntime incarnations
  // (restart_ap), modelling the AP's persistent storage part.
  if (ape_enabled() && params_.ape.flash_capacity_bytes > 0) {
    flash_media_ = std::make_unique<store::FlashMedia>();
  }
  build_ap();

  if (params_.system == System::WiCache) {
    wicache_agent_ = std::make_unique<baselines::WiCacheApAgent>(
        network(), tcp(), uplink(), ap_->cpu(), kWiCacheCapacityBytes,
        net::Endpoint{kControllerIp, baselines::kWiCacheControllerPort});
    controller_cpu_ = std::make_unique<sim::ServiceQueue>(simulator(), 4);
    wicache_controller_ = std::make_unique<baselines::WiCacheController>(
        network(), controller_node_, *controller_cpu_,
        net::Endpoint{kApIp, baselines::kWiCacheAgentControlPort}, kApIp, edge_ip());
  }

  if (params_.enable_timeline) {
    telemetry_agent_ = std::make_unique<TelemetryAgent>(
        network(), uplink(), ap_->cpu(), observer().timeline(), &observer(), analytics_.get());
    telemetry_collector_ = std::make_unique<TelemetryCollector>(
        network(), controller_node_, net::Endpoint{kApIp, kTelemetryAgentPort},
        kTelemetryScrapeInterval, &observer());
    for (const obs::SloRule& rule : params_.slo_rules) {
      telemetry_collector_->slo().add_rule(rule);
    }
  }
}

net::IpAddress Testbed::ap_ip() const noexcept { return kApIp; }

void Testbed::start_timeline(sim::Time until) {
  Site::start_timeline(until);
  if (telemetry_collector_ != nullptr) telemetry_collector_->start(until);
}

void Testbed::build_ap() {
  core::ApRuntime::Options ap_options;
  ap_options.config = params_.ape;
  ap_options.upstream_dns = ldns_endpoint();
  ap_options.enable_ape = ape_enabled();
  ap_options.policy = params_.system == System::ApeCacheLru ? core::ApRuntime::Policy::Lru
                                                            : core::ApRuntime::Policy::Pacm;
  if (params_.policy_override) ap_options.policy = *params_.policy_override;
  ap_options.observer = &observer();
  ap_options.flash_media = flash_media_.get();
  ap_options.analytics = analytics_.get();
  ap_ = std::make_unique<core::ApRuntime>(network(), tcp(), uplink(), ap_options);
}

void Testbed::restart_ap(bool preserve_flash) {
  assert(ap_ != nullptr);
  assert(wicache_agent_ == nullptr && "restart_ap models APE firmware restarts only");
  // The telemetry agent captures the old runtime's ServiceQueue by
  // reference; timeline runs must not restart the AP.
  assert(telemetry_agent_ == nullptr && "restart_ap is unsupported in timeline runs");
  // Completion events capture the runtime; tearing it down mid-flight is UB.
  assert(ap_->cpu().busy_servers() == 0 && ap_->cpu().queued() == 0 &&
         "restart_ap requires a quiesced AP (drain the sim first)");
  ap_.reset();  // DNS/HTTP servers unbind, pending sweep event is cancelled
  if (!preserve_flash && flash_media_ != nullptr) flash_media_->clear();
  build_ap();
}

Testbed::Client& Testbed::add_client(const std::string& name) {
  Client& client = *clients_.emplace_back(std::make_unique<Client>());
  attach_client(client, name, uplink(), kApIp, ape_enabled());

  switch (params_.system) {
    case System::ApeCache:
      client.fetcher = std::make_unique<baselines::ApeFetcher>(*client.runtime, "APE-CACHE");
      break;
    case System::ApeCacheLru:
      client.fetcher =
          std::make_unique<baselines::ApeFetcher>(*client.runtime, "APE-CACHE-LRU");
      break;
    case System::WiCache:
      client.fetcher = std::make_unique<baselines::WiCacheFetcher>(
          network(), tcp(), client.node, next_client_port(),
          net::Endpoint{kControllerIp, baselines::kWiCacheControllerPort}, kApIp);
      break;
    case System::EdgeCache:
      client.fetcher = std::make_unique<baselines::EdgeCacheFetcher>(*client.runtime);
      break;
  }
  return client;
}

void Testbed::collect_metrics() {
  Site::collect_metrics();
  observer().metrics().gauge("ap.cpu.busy_s").set(sim::to_seconds(ap_->cpu().busy_time()));
  ap_->snapshot_metrics();
}

sim::ResourceMeter& Testbed::meter_ap(sim::Duration interval, sim::Time until) {
  meter_ = std::make_unique<sim::ResourceMeter>(simulator(), ap_->cpu_cores());
  meter_->add_cpu_source([this] { return ap_->cpu().busy_time(); });
  meter_->add_memory_source([this] { return ap_->memory_bytes(); });
  meter_->start(interval, until);
  return *meter_;
}

void Testbed::account_passthrough(std::size_t bytes) {
  // Client <-> edge traffic transits the AP's kernel fast path twice
  // (WAN ingress + WiFi egress).  Connection state is tracked by the TCP
  // transport, not the flow counter (flows there model replayed captures).
  const std::size_t packets = 2 * (bytes / 1448 + 2);  // data + SYN/ACK chatter
  for (std::size_t i = 0; i < packets; ++i) {
    ap_->forward_packet(i < 2 ? 80 : 1448, false);
  }
}

}  // namespace ape::testbed
