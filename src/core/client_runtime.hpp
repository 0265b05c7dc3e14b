// APE-CACHE client runtime — the modified HTTP client library (paper
// Sec. IV-A/IV-B) that mobile apps link.
//
// Workflow per cacheable fetch:
//   1. match the outgoing URL's base against the registered cacheable
//      objects (the "annotations");
//   2. cache lookup piggybacked on DNS: send a DNS-Cache query to the AP
//      unless a previous response's flags for this domain are still fresh
//      (a dummy-IP answer carries TTL 0 and is never reused);
//   3. dispatch on the flag: Cache-Hit -> HTTP fetch from the AP,
//      Cache-Miss -> HTTP fetch from the resolved edge server,
//      Delegation -> HTTP fetch through the AP with delegation headers;
//   4. on AP races (entry evicted between lookup and fetch) fall back to
//      the edge path.
//
// fetch_via_edge() is the unmodified-library baseline path (regular DNS +
// edge HTTP); fetch_standalone() reproduces the Fig. 11b "two standalone
// queries" configuration.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/shard.hpp"
#include "core/config.hpp"
#include "core/dns_cache_record.hpp"
#include "core/frequency_tracker.hpp"
#include "common/url_hash.hpp"
#include "dns/stub_resolver.hpp"
#include "http/endpoint.hpp"
#include "obs/observer.hpp"

namespace ape::core {

// One @Cacheable annotation (paper Fig. 6): id = base URL, priority in
// {1, 2}, TTL in minutes.
struct CacheableSpec {
  std::string id;
  int priority = 1;
  std::uint32_t ttl_minutes = 10;
  AppId app = 0;

  [[nodiscard]] std::uint32_t ttl_seconds() const noexcept { return ttl_minutes * 60; }
};

class ClientRuntime {
  APE_SHARD_CONTEXT(client);

 public:
  struct Options {
    net::Endpoint ap_dns;     // AP's DNS service
    net::IpAddress ap_ip;     // AP's address for HTTP fetches
    bool ape_enabled = true;  // false: every fetch takes the edge path
    // Nullable observability sink ("client.*" fetch counters/latency
    // histograms, keyed by source; the request's spans when tracing).
    obs::Observer* observer = nullptr;
  };

  // `dns_port` must be unique per (node, runtime) pair.
  ClientRuntime(net::Network& network, net::TcpTransport& tcp, net::NodeId node,
                net::Port dns_port, Options options);

  // --- programming model surface -----------------------------------------
  void register_cacheable(CacheableSpec spec);
  [[nodiscard]] const CacheableSpec* find_cacheable(const std::string& base_url) const;
  [[nodiscard]] std::size_t cacheable_count() const noexcept { return registry_.size(); }

  // --- fetching -------------------------------------------------------------
  // ApPeer: served through the attached AP from a *neighbor* AP's cache
  // (fleet peer-probe relay, DESIGN.md §5j) — one extra LAN hop, no WAN.
  enum class Source { ApCache, ApPeer, ApDelegated, EdgeServer, Unknown };

  struct FetchResult {
    bool success = false;
    Source source = Source::Unknown;
    CacheFlag flag = CacheFlag::Delegation;
    bool lookup_from_cache = false;   // flags reused within the DNS TTL
    sim::Duration lookup_latency{0};
    sim::Duration retrieval_latency{0};
    sim::Duration total{0};
    std::size_t bytes = 0;
    std::string error;
  };
  using FetchHandler = std::function<void(FetchResult)>;

  void fetch(const std::string& url, FetchHandler handler);
  void fetch_via_edge(const std::string& url, FetchHandler handler);
  void fetch_standalone(const std::string& url, FetchHandler handler);

  // Prefetching synergy (paper Sec. VI: APPx/PALOMA/Marauder can warm the
  // AP instead of the device): issues background fetches for every
  // registered cacheable object under `domain` (or all domains when
  // empty), so later foreground fetches hit the AP.  `done` fires once
  // with the number of objects warmed.
  using PrefetchHandler = std::function<void(std::size_t warmed)>;
  void prefetch(const std::string& domain, PrefetchHandler done);

  // --- lookup-only probes (Fig. 11b) ---------------------------------------
  using LookupHandler = std::function<void(Result<dns::DnsMessage>, sim::Duration)>;
  void dns_cache_lookup(const std::string& host, const std::vector<UrlHash>& hashes,
                        LookupHandler handler);
  void regular_dns_lookup(const std::string& host, LookupHandler handler);

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }

  // --- mobility (fleet roaming) --------------------------------------------
  // Re-homes the client onto another AP: subsequent DNS-Cache queries and
  // AP HTTP fetches go to the new AP.  The cached per-domain flag state is
  // deliberately kept — a roamed client keeps acting on answers from the AP
  // it just left until their DNS TTL runs out, which is exactly the
  // staleness the fleet's peer-probe stage absorbs.
  void roam_to(net::Endpoint ap_dns, net::IpAddress ap_ip);

 private:
  struct DomainState {
    net::IpAddress ip;
    sim::Time expires{};
    std::unordered_map<UrlHash, CacheFlag> flags;
  };

  // A fetch's target is its parsed URL, parsed once per fetch.
  void dispatch(http::Url target, const CacheableSpec& spec, CacheFlag flag,
                net::IpAddress edge_ip, sim::Time start, sim::Duration lookup,
                bool lookup_cached, const obs::TraceContext& root, FetchHandler handler);
  void fetch_from_ap(http::Url target, const CacheableSpec& spec, bool delegate,
                     net::IpAddress edge_ip, sim::Time start, sim::Duration lookup,
                     bool lookup_cached, CacheFlag flag, const obs::TraceContext& root,
                     FetchHandler handler);
  // Fetches from the edge at `edge_ip`; a dummy or unknown address is
  // resolved first (resolve_edge).
  void fetch_from_edge(http::Url target, net::IpAddress edge_ip, sim::Time start,
                       sim::Duration lookup, bool lookup_cached, CacheFlag flag,
                       const obs::TraceContext& root, FetchHandler handler);
  // Regular DNS for the target's A record, then the edge fetch, under the
  // request's existing trace root: fetch_via_edge, fetch()'s
  // DNS-Cache-failure fallback and the dummy-IP re-resolution all go here.
  // The lookup latency runs from `start` to the answer.
  void resolve_edge(http::Url target, sim::Time start, bool lookup_cached, CacheFlag flag,
                    const obs::TraceContext& root, FetchHandler handler);
  void finish(FetchHandler& handler, const obs::TraceContext& root, FetchResult result);

  // The client's one DNS hop to its AP.  Under a live `parent` it opens the
  // "dns.query" span (keyed by the question's name), appends the TYPE=301
  // RR that carries it, and closes it when `done` runs.
  void query_ap(dns::DnsMessage query, const obs::TraceContext& parent,
                dns::DnsClient::QueryHandler done);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_SHARED net::TcpTransport& tcp_;
  APE_SHARD_LOCAL(client) net::NodeId node_;
  APE_SHARD_LOCAL(client) Options options_;
  APE_SHARD_LOCAL(client) dns::DnsClient dns_;
  APE_SHARD_LOCAL(client) http::HttpClient http_;
  // Ordered: prefetch() walks the registry, and the walk order decides the
  // sequence of simulated requests (ape-lint: unordered-iter).
  APE_SHARD_LOCAL(client) std::map<std::string, CacheableSpec> registry_;  // by base URL
  // by host (keyed lookups only)
  APE_SHARD_LOCAL(client) std::unordered_map<std::string, DomainState> domains_;

  // Per-fetch instruments, bound once at construction (no-ops without an
  // observer) so finish() — which runs for every simulated request — does
  // not rebuild metric names and walk the registry map each time.
  struct HotMetrics {
    obs::CounterHandle fetches;
    obs::CounterHandle fetch_failures;
    obs::CounterHandle fetch_ap_hit;
    obs::CounterHandle fetch_ap_peer;
    obs::CounterHandle fetch_ap_delegated;
    obs::CounterHandle fetch_edge;
    obs::CounterHandle fetch_unknown;
    obs::CounterHandle lookup_flag_reuse;
    obs::CounterHandle bytes_received;
    obs::HistogramHandle lookup_ms;
    obs::HistogramHandle retrieval_ms;
    obs::HistogramHandle total_ms;
  } hot_;
};

[[nodiscard]] const char* to_string(ClientRuntime::Source source) noexcept;

}  // namespace ape::core
