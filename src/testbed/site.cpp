#include "testbed/site.hpp"

#include <cassert>

#include "obs/sim_metrics.hpp"

namespace ape::testbed {

namespace {
// The CDN DNS maps the site's one resolver to this region, where every
// app's edge server is placed.
constexpr const char* kRegion = "site";
}  // namespace

Site::Site(const SiteParams& params, const std::string& uplink_name, net::IpAddress uplink_ip)
    : obs_(params.span_capacity) {
  obs_.spans().set_enabled(params.enable_spans);
  if (params.enable_timeline) {
    obs_.timeline().set_enabled(true);
    obs_.timeline().set_interval(params.timeline_interval);
  }
  for (const obs::SloRule& rule : params.slo_rules) slo_.add_rule(rule);

  uplink_ = topology_.add_node(uplink_name);
  edge_node_ = topology_.add_node("edge");
  ldns_node_ = topology_.add_node("ldns");
  adns_node_ = topology_.add_node("adns");
  cdn_dns_node_ = topology_.add_node("cdn-dns");
  // Uplink -> edge: the 7-hop path of Fig. 9.  The resolver chain (the ISP
  // resolver, then resolver-side services) hangs off the same uplink.
  topology_.add_multi_hop_path(uplink_, edge_node_, kEdgeHops, kEdgePerHop, kWanBandwidth);
  topology_.add_link(uplink_, ldns_node_, net::LinkSpec{kLdnsOneWay, kWanBandwidth});
  topology_.add_link(ldns_node_, adns_node_, net::LinkSpec{kAdnsFromLdns, kWanBandwidth});
  topology_.add_link(ldns_node_, cdn_dns_node_, net::LinkSpec{kCdnDnsFromLdns, kWanBandwidth});

  network_ = std::make_unique<net::Network>(sim_, topology_);
  tcp_ = std::make_unique<net::TcpTransport>(*network_);
  tcp_->set_observer(&obs_);

  edge_ip_ = net::IpAddress::from_octets(10, 1, 0, 2);
  ldns_ip_ = net::IpAddress::from_octets(10, 2, 0, 2);
  adns_ip_ = net::IpAddress::from_octets(10, 3, 0, 2);
  cdn_dns_ip_ = net::IpAddress::from_octets(10, 4, 0, 2);
  network_->assign_ip(uplink_, uplink_ip);
  network_->assign_ip(edge_node_, edge_ip_);
  network_->assign_ip(ldns_node_, ldns_ip_);
  network_->assign_ip(adns_node_, adns_ip_);
  network_->assign_ip(cdn_dns_node_, cdn_dns_ip_);

  ldns_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);
  adns_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);
  cdn_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 4);
  ldns_ = std::make_unique<dns::LocalDnsServer>(*network_, ldns_node_, *ldns_cpu_,
                                                sim::microseconds(200));
  adns_ = std::make_unique<dns::AuthoritativeDnsServer>(*network_, adns_node_, *adns_cpu_,
                                                        sim::microseconds(150));
  cdn_dns_ = std::make_unique<dns::CdnDnsServer>(*network_, cdn_dns_node_, *cdn_cpu_,
                                                 sim::microseconds(150));
  cdn_dns_->set_answer_ttl(params.cdn_answer_ttl);
  cdn_dns_->set_region_of(ldns_ip_, kRegion);
  // CDN namespace delegation.
  ldns_->add_delegation(dns::DnsName::parse("edgecdn.net").value(),
                        net::Endpoint{cdn_dns_ip_, net::kDnsPort});

  // Edge cache server: ample capacity, preloaded via host_app.
  edge_cpu_ = std::make_unique<sim::ServiceQueue>(sim_, 8);
  edge_ = std::make_unique<http::EdgeCacheServer>(*tcp_, edge_node_, *edge_cpu_);
  edge_->set_observer(&obs_);
}

Site::~Site() {
  if (timeline_tick_ != 0) sim_.cancel(timeline_tick_);
}

bool Site::host_app(const workload::AppSpec& app) {
  assert(app.valid());
  if (!hosted_domains_.insert(app.domain).second) return false;
  for (auto& object : app.objects()) {
    // The edge hosts every object with its backend ("retrieval") latency;
    // warm client-facing hits skip it, cache-fill origin pulls pay it —
    // see EdgeCacheServer.
    edge_->host(object);
  }
  // Publish the domain: ADNS answers the app's host with a CNAME into the
  // CDN namespace; the CDN DNS maps it to the edge server.
  const auto domain = dns::DnsName::parse(app.domain).value();
  const auto cdn_name = dns::DnsName::parse(app.domain + ".edgecdn.net").value();
  adns_->add_zone(domain);
  adns_->add_cname(domain, cdn_name, kCnameTtl);
  cdn_dns_->add_service(cdn_name, edge_ip_);
  cdn_dns_->add_cache_server(cdn_name, kRegion, edge_ip_);

  // LDNS learns where the app's zone is served.
  ldns_->add_delegation(domain, net::Endpoint{adns_ip_, net::kDnsPort});
  return true;
}

void Site::attach_client(Client& client, const std::string& name, net::NodeId ap,
                         net::IpAddress ap_ip, bool ape_enabled) {
  client.node = topology_.add_node(name);
  topology_.add_link(client.node, ap, net::LinkSpec{kWifiOneWay, kWifiBandwidth});
  const std::uint32_t n = next_client_index_++;
  network_->assign_ip(client.node,
                      net::IpAddress::from_octets(10, 20, static_cast<std::uint8_t>(n >> 8),
                                                  static_cast<std::uint8_t>(n & 0xFF)));

  core::ClientRuntime::Options options;
  options.ap_dns = net::Endpoint{ap_ip, net::kDnsPort};
  options.ap_ip = ap_ip;
  options.ape_enabled = ape_enabled;
  options.observer = &obs_;
  client.runtime = std::make_unique<core::ClientRuntime>(*network_, *tcp_, client.node,
                                                         next_client_port(), options);
}

void Site::collect_metrics() {
  obs::MetricsRegistry& m = obs_.metrics();

  // Event-loop pressure: fired events, live queue depth / wheel occupancy,
  // arena high-water, and the tombstone (cancelled-slot) picture.
  obs::record_sim_metrics(m, sim_);

  // DNS hierarchy tallies (queries each speaker served / recursed).
  m.counter("dns.ldns.queries").set(ldns_->queries_received());
  m.counter("dns.ldns.upstream_queries").set(ldns_->upstream_queries());
  m.counter("dns.ldns.cache_size").set(ldns_->cache_size());
  m.counter("dns.adns.queries").set(adns_->queries_received());
  m.counter("dns.cdn.queries").set(cdn_dns_->queries_received());

  // Edge server / origin pull picture.
  m.counter("edge.requests").set(edge_->requests_served());
  m.counter("edge.hits").set(edge_->hits());
  m.counter("edge.misses").set(edge_->misses());

  // Span bookkeeping + per-span-kind latency histograms, only in traced
  // runs so default ape.obs.v1 exports stay byte-identical.  The cursor
  // makes repeated collection idempotent (each span is folded in once).
  if (obs_.spans_enabled()) {
    m.counter("obs.spans.recorded").set(obs_.spans().recorded());
    m.counter("obs.spans.dropped").set(obs_.spans().dropped());
    m.gauge("obs.spans.open").set(static_cast<double>(obs_.spans().open_count()));
    spans_histogrammed_ =
        obs::record_span_histograms(obs_.spans().spans(), m, spans_histogrammed_);
  }
}

void Site::start_timeline(sim::Time until) {
  if (!obs_.timeline_enabled()) return;
  timeline_until_ = until;
  schedule_timeline_tick();
}

void Site::schedule_timeline_tick() {
  timeline_tick_ = sim_.schedule_in(obs_.timeline().interval(), [this] {
    timeline_tick_ = 0;
    capture_window();
    if (sim_.now() + obs_.timeline().interval() <= timeline_until_) {
      schedule_timeline_tick();
    }
  }, APE_EVT("controller.timeline.tick"));
}

void Site::flush_timeline() {
  if (!obs_.timeline_enabled()) return;
  capture_window();
}

void Site::capture_window() {
  collect_metrics();
  if (const obs::TimelineWindow* window = obs_.timeline().capture(obs_.metrics(), sim_.now())) {
    slo_.observe(*window);
  }
}

}  // namespace ape::testbed
