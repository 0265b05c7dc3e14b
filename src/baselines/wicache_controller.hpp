// Wi-Cache (Chhangte et al., IEEE TNSM'21), adapted per the paper's
// Sec. V-A: a *centralized cache controller* (an EC2 instance 12 hops from
// the AP in Fig. 9) that every cache request consults first, plus an AP
// agent holding an LRU-managed object cache.
//
// Wire protocol (UDP, line-oriented text — Wi-Cache's control plane is
// bespoke, not DNS):
//   client -> controller :5300   "LOOKUP <seq> <url>"
//   controller -> client         "<seq> AP\n"         (fetch from the AP agent)
//                                "<seq> EDGE <ip>\n"  (fetch from the edge)
//   controller -> agent  :5301   "PREFETCH <url> <edge-ip>"
//   agent -> controller  :5300   "ADD <key>" / "REMOVE <key>"
//
// On a registry miss the controller directs the client to the edge and
// asynchronously instructs the AP agent to fetch-and-cache the object so
// later requests hit — the adapted population path for small objects.
#pragma once

#include <set>
#include <string>

#include "cache/cache_stats.hpp"
#include "cache/object_store.hpp"
#include "common/shard.hpp"
#include "http/endpoint.hpp"
#include "net/network.hpp"

namespace ape::baselines {

inline constexpr net::Port kWiCacheControllerPort = 5300;
inline constexpr net::Port kWiCacheAgentControlPort = 5301;
inline constexpr net::Port kWiCacheAgentHttpPort = 8080;

class WiCacheController {
  APE_SHARD_CONTEXT(controller);

 public:
  WiCacheController(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
                    net::Endpoint agent_control, net::IpAddress ap_http_ip,
                    net::IpAddress edge_ip);
  ~WiCacheController();

  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t registry_size() const noexcept { return ap_keys_.size(); }
  [[nodiscard]] cache::CacheStatistics& stats() noexcept { return stats_; }

 private:
  void on_datagram(const net::Datagram& dgram);
  void handle_lookup(std::uint64_t seq, const std::string& url, net::Endpoint client);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_LOCAL(controller) net::NodeId node_;
  APE_SHARD_LOCAL(controller) sim::ServiceQueue& cpu_;
  APE_SHARD_LOCAL(controller) net::Endpoint agent_control_;
  APE_SHARD_LOCAL(controller) net::IpAddress ap_http_ip_;
  APE_SHARD_LOCAL(controller) net::IpAddress edge_ip_;
  // keys cached at the AP.  Ordered: nothing iterates today, but registry
  // state in a protocol service must stay canonical so any future walk
  // (metrics export, prefetch sweep) cannot pick up hash-seed order.
  APE_SHARD_LOCAL(controller) std::set<std::string> ap_keys_;
  // avoid duplicate instructions
  APE_SHARD_LOCAL(controller) std::set<std::string> prefetch_inflight_;
  APE_SHARD_LOCAL(controller) cache::CacheStatistics stats_;
  APE_SHARD_LOCAL(controller) std::size_t lookups_ = 0;
};

class WiCacheApAgent {
  APE_SHARD_CONTEXT(ap);

 public:
  WiCacheApAgent(net::Network& network, net::TcpTransport& tcp, net::NodeId node,
                 sim::ServiceQueue& cpu, std::size_t capacity_bytes,
                 net::Endpoint controller);
  ~WiCacheApAgent();

  [[nodiscard]] const cache::CacheStore& store() const noexcept { return store_; }

 private:
  void on_control(const net::Datagram& dgram);
  void prefetch(const std::string& url, net::IpAddress edge_ip);
  void serve(const http::HttpRequest& request, http::HttpServer::Responder respond);
  // Sends "<action> <key>", the key as its hex text.
  void report(const char* action, UrlHash key);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_LOCAL(ap) net::NodeId node_;
  APE_SHARD_LOCAL(ap) sim::ServiceQueue& cpu_;
  APE_SHARD_LOCAL(ap) cache::CacheStore store_;
  APE_SHARD_LOCAL(ap) http::HttpServer http_;
  APE_SHARD_LOCAL(ap) http::HttpClient edge_client_;
  APE_SHARD_LOCAL(ap) net::Endpoint controller_;
};

}  // namespace ape::baselines
