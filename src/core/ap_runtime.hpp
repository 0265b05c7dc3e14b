// The APE-CACHE access-point runtime (paper Sec. IV): a dnsmasq-like DNS
// forwarder extended with DNS-Cache handling, an HTTP cache/delegation
// server, the PACM-managed object cache, and the device resource model.
//
// Responsibilities:
//  * regular DNS forwarding with a local record cache (stock dnsmasq role),
//  * DNS-Cache queries: batch cache status for every URL known under the
//    queried domain into the Additional section; short-circuit upstream
//    resolution with a dummy IP (TTL 0) when everything is cached locally,
//  * serving cached objects over HTTP,
//  * delegation: fetch from the edge on the client's behalf, learn the
//    object's fetch latency, cache it (PACM or LRU), or block-list it when
//    it exceeds the size threshold,
//  * CPU/memory accounting for the Fig. 2 / Fig. 14 experiments.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cache/block_list.hpp"
#include "cache/cache_stats.hpp"
#include "cache/object_store.hpp"
#include "common/shard.hpp"
#include "core/config.hpp"
#include "core/dns_cache_record.hpp"
#include "core/frequency_tracker.hpp"
#include "core/peer_probe.hpp"
#include "dns/server.hpp"
#include "dns/stub_resolver.hpp"
#include "http/endpoint.hpp"
#include "obs/cache_analytics.hpp"
#include "obs/observer.hpp"
#include "sim/simulator.hpp"
#include "store/tiered_store.hpp"

namespace ape::core {

class ApRuntime {
  APE_SHARD_CONTEXT(ap);

 public:
  // PACM is the paper's contribution; LRU the evaluated baseline; FIFO,
  // LFU and GDSF are additional ablation points (DESIGN.md).
  enum class Policy { Pacm, Lru, Fifo, Lfu, Gdsf };

  struct Options {
    ApeConfig config;
    net::Endpoint upstream_dns;   // the ISP's LDNS
    bool enable_ape = true;       // false = stock dnsmasq forwarder only
    Policy policy = Policy::Pacm;
    // Nullable observability sink ("ap.*" metrics, cache/DNS trace events);
    // also forwarded into the PACM policy when `policy == Policy::Pacm`.
    obs::Observer* observer = nullptr;
    // Durable flash media for the tier (used when config.flash_capacity_bytes
    // > 0).  Pass the same FlashMedia to successive ApRuntime incarnations to
    // model a warm restart: mount replays its journal.  Null makes the
    // runtime own private media (no cross-restart persistence).
    store::FlashMedia* flash_media = nullptr;
    // Nullable cache-analytics plane (DESIGN.md §5l): MRC profiling,
    // eviction-cause ledger and per-app attribution.  Report-only — it
    // observes the lookup/insert/removal streams and never influences a
    // cache decision; null (the default) keeps exports byte-identical.
    obs::CacheAnalytics* analytics = nullptr;
  };

  ApRuntime(net::Network& network, net::TcpTransport& tcp, net::NodeId node, Options options);
  // Cancels the pending periodic sweep event, if any.  Destroying a runtime
  // with flash I/O or CPU work still in flight is UB (completion events
  // capture `this`); quiesce the sim first — see testbed::Testbed::restart_ap.
  ~ApRuntime();

  // --- model/introspection ----------------------------------------------
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] sim::ServiceQueue& cpu() noexcept { return cpu_; }
  [[nodiscard]] std::size_t cpu_cores() const noexcept { return kCpuCores; }
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] cache::CacheStatistics& lookup_stats() noexcept { return stats_; }
  [[nodiscard]] const cache::CacheStore& data_cache() const noexcept { return *data_cache_; }
  [[nodiscard]] cache::CacheStore& data_cache() noexcept { return *data_cache_; }
  [[nodiscard]] FrequencyTracker& frequencies() noexcept { return freq_; }
  [[nodiscard]] const cache::BlockList& block_list() const noexcept { return block_list_; }
  [[nodiscard]] const ApeConfig& config() const noexcept { return options_.config; }
  [[nodiscard]] std::size_t delegations_performed() const noexcept { return delegations_; }
  [[nodiscard]] std::size_t revalidations_performed() const noexcept { return revalidations_; }

  // Attached analytics plane; null (the default) when disabled.
  [[nodiscard]] obs::CacheAnalytics* analytics() noexcept { return analytics_; }

  // Tiered-store introspection; null in RAM-only configurations.
  [[nodiscard]] bool tiered() const noexcept { return tiered_ != nullptr; }
  [[nodiscard]] store::TieredStore* tiered_store() noexcept { return tiered_.get(); }
  [[nodiscard]] const store::FlashTier* flash_tier() const noexcept { return flash_tier_.get(); }

  // --- traffic replay / pass-through accounting (Figs. 2 and 14) ---------
  void forward_packet(std::size_t bytes, bool new_flow);
  // CPU cost of serving `bytes` from the AP's own cache over WiFi: the
  // userspace copy + TX path is costlier per byte than kernel NAT
  // forwarding.  Charged asynchronously (DMA overlap) so it loads the CPU
  // without delaying the in-flight response.
  void account_served_bytes(std::size_t bytes);
  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_; }

  // Fully resets cache state between experiment runs.
  void reset_cache();

  // --- fleet cooperation (DESIGN.md §5j) ----------------------------------
  // Attaches the cooperative-cache directory resolver: on a local HTTP miss
  // the AP probes `resolver` for a neighbor holding the object and relays
  // the fetch over the LAN before falling back to the edge.  `ap_id` is
  // this AP's fleet-wide index (stamped on relayed requests so a peer never
  // probes onward — relays are single-hop by construction).  Null detaches.
  void set_peer_probe(PeerResolver* resolver, std::uint32_t ap_id);
  [[nodiscard]] std::uint32_t ap_id() const noexcept { return ap_id_; }

  // Pull-phase observability: writes the gauges that only make sense as a
  // point-in-time reading (cache occupancy, hit ratios, per-app storage
  // efficiency C_a = cached bytes / R(a)) into the attached observer.
  // No-op without one.
  void snapshot_metrics();

 private:
  // ---- DNS side ----------------------------------------------------------
  class Dns final : public dns::DnsServer {
    APE_SHARD_CONTEXT(ap);

   public:
    Dns(ApRuntime& owner, net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
        sim::Duration service_time)
        : dns::DnsServer(network, node, cpu, service_time), owner_(owner) {}

   protected:
    void handle_query(dns::DnsMessage query, net::Endpoint client,
                      Responder respond) override;

   private:
    APE_SHARD_LOCAL(ap) ApRuntime& owner_;
  };

  struct DnsCacheEntry {
    net::IpAddress ip;
    sim::Time expires{};
  };

  struct UrlInfo {
    dns::DnsName domain;
    std::string base_url;  // learned at first delegation
    AppId app = 0;
    int priority = 1;
    // Last measured delegated-fetch latency — PACM's l_d estimate for the
    // next solve.  Compared against the next measurement to report the
    // pacm.latency_estimate_error metric (span-gated, report-only).
    double last_fetch_ms = -1.0;
  };

  void handle_dns_query(dns::DnsMessage query, net::Endpoint client,
                        std::function<void(dns::DnsMessage)> respond);
  void handle_regular_dns(const dns::DnsMessage& query, const obs::TraceContext& parent,
                          std::function<void(dns::DnsMessage)> respond);
  void answer_with_ip(const dns::DnsMessage& query, const dns::DnsName& name,
                      net::IpAddress ip, std::uint32_t ttl,
                      std::vector<dns::ResourceRecord> additionals,
                      std::function<void(dns::DnsMessage)> respond) const;

  // Resolves `name` through the local record cache or upstream.  A valid
  // `parent` context parents a "dns.upstream" span over the real upstream
  // round trip (record-cache hits stay span-free).
  void resolve_upstream(const dns::DnsName& name, const obs::TraceContext& parent,
                        std::function<void(Result<DnsCacheEntry>)> done);

  // Builds the batched cache-status list for a domain.  `requested` are the
  // hashes the client explicitly asked about (these get recorded into the
  // lookup statistics); returns all known flags and whether every known URL
  // under the domain is a cache hit.
  struct FlagSet {
    std::vector<CacheLookupEntry> entries;
    bool all_cached = false;   // every known URL is a Cache-Hit
    bool needs_edge = false;   // some URL is block-listed (Cache-Miss)
  };
  FlagSet collect_flags(const dns::DnsName& domain,
                        const std::vector<CacheLookupEntry>& requested);

  // ---- HTTP side ----------------------------------------------------------
  void handle_http(const http::HttpRequest& request, http::HttpServer::Responder respond);
  // Tail of handle_http once both RAM and flash have missed: peer-probe the
  // fleet directory when attached, then 404 for plain fetches, delegation
  // otherwise.
  void finish_http_miss(const http::HttpRequest& request, UrlHash hash,
                        std::optional<cache::CacheEntry> stale,
                        const obs::TraceContext& parent,
                        http::HttpServer::Responder respond);
  // The pre-fleet miss tail (404 or delegate) — also the fallback when the
  // directory has no live peer or the relay comes back empty.
  void miss_fallback(const http::HttpRequest& request, UrlHash hash,
                     std::optional<cache::CacheEntry> stale,
                     const obs::TraceContext& parent,
                     http::HttpServer::Responder respond);
  // Proxy-fetches `hash` from the peer the directory named and serves the
  // body as an AP-PEER response; any failure degrades to miss_fallback
  // (stale directory answers must never surface as client errors).
  void relay_from_peer(const http::HttpRequest& request, UrlHash hash,
                       const PeerLocation& peer,
                       std::optional<cache::CacheEntry> stale,
                       const obs::TraceContext& parent,
                       http::HttpServer::Responder respond);
  void serve_from_cache(const cache::CacheEntry& entry,
                        http::HttpServer::Responder respond);
  // Admits a freshly fetched object (through the tiered store when present,
  // so a stale flash copy is invalidated).
  void insert_object(cache::CacheEntry entry, sim::Time now);
  // Self-rescheduling periodic expiry sweep (config.sweep_interval > 0).
  void schedule_sweep();
  // `stale` carries the expired-but-present entry when revalidation may
  // refresh it with a conditional request instead of a full origin pull.
  void delegate_fetch(const http::HttpRequest& request, UrlHash hash,
                      std::optional<cache::CacheEntry> stale,
                      const obs::TraceContext& parent,
                      http::HttpServer::Responder respond);

  APE_SHARD_SHARED net::Network& network_;
  APE_SHARD_SHARED net::TcpTransport& tcp_;
  APE_SHARD_LOCAL(ap) net::NodeId node_;
  APE_SHARD_LOCAL(ap) Options options_;

  APE_SHARD_LOCAL(ap) sim::ServiceQueue cpu_;
  APE_SHARD_LOCAL(ap) FrequencyTracker freq_;
  APE_SHARD_LOCAL(ap) std::unique_ptr<cache::CacheStore> data_cache_;
  APE_SHARD_LOCAL(ap) cache::BlockList block_list_;
  APE_SHARD_LOCAL(ap) cache::CacheStatistics stats_;

  // Flash tier (null in RAM-only configurations).  `owned_media_` backs
  // Options::flash_media when the caller did not supply durable media.
  APE_SHARD_LOCAL(ap) std::unique_ptr<store::FlashMedia> owned_media_;
  APE_SHARD_LOCAL(ap) std::unique_ptr<store::FlashDevice> flash_device_;
  APE_SHARD_LOCAL(ap) std::unique_ptr<store::FlashTier> flash_tier_;
  APE_SHARD_LOCAL(ap) std::unique_ptr<store::TieredStore> tiered_;
  APE_SHARD_LOCAL(ap) sim::Simulator::EventId sweep_event_ = 0;

  APE_SHARD_LOCAL(ap) std::unique_ptr<Dns> dns_;
  APE_SHARD_LOCAL(ap) dns::DnsClient upstream_;
  APE_SHARD_LOCAL(ap) std::unique_ptr<http::HttpServer> http_;
  APE_SHARD_LOCAL(ap) http::HttpClient edge_client_;

  APE_SHARD_LOCAL(ap) std::unordered_map<dns::DnsName, DnsCacheEntry, dns::DnsNameHash>
      dns_cache_;
  APE_SHARD_LOCAL(ap) std::unordered_map<UrlHash, UrlInfo> url_index_;
  APE_SHARD_LOCAL(ap) std::unordered_map<dns::DnsName, std::unordered_set<UrlHash>,
                                         dns::DnsNameHash>
      domain_hashes_;

  APE_SHARD_LOCAL(ap) std::size_t flows_ = 0;
  APE_SHARD_LOCAL(ap) std::size_t delegations_ = 0;
  APE_SHARD_LOCAL(ap) std::size_t revalidations_ = 0;

  // Fleet directory resolver (same-shard collaborator owned by the fleet
  // testbed; cross-AP access goes through its wire protocol, never through
  // another AP's store).  Null outside fleet runs.
  APE_SHARD_LOCAL(ap) PeerResolver* peer_resolver_ = nullptr;
  APE_SHARD_LOCAL(ap) std::uint32_t ap_id_ = 0;

  // Hot-path instruments: handles bound once at construction (no-ops when
  // unobserved), so the per-request DNS/HTTP paths never repeat a by-name
  // map lookup.  Snapshot-time gauges still go through observer_ by name.
  // The observer and the instruments it hands out are shared with the
  // harness, which reads them at snapshot and capture time; the
  // parallel-shard design owes them a synchronization story.
  APE_SHARD_SHARED obs::Observer* observer_ = nullptr;
  // Analytics plane — shared state like the observer: the AP feeds it from
  // the request path, the harness reads it at snapshot and export time.
  APE_SHARD_SHARED obs::CacheAnalytics* analytics_ = nullptr;
  APE_SHARD_SHARED obs::Counter* hit_counter_ = nullptr;
  APE_SHARD_SHARED obs::Counter* miss_counter_ = nullptr;
  APE_SHARD_SHARED obs::Counter* delegation_flag_counter_ = nullptr;
  struct HotMetrics {
    obs::CounterHandle dns_cache_queries;
    obs::CounterHandle dns_cache_rr_emitted;
    obs::CounterHandle dns_flags_emitted;
    obs::CounterHandle dns_short_circuit;
    obs::CounterHandle dns_upstream_avoided;
    obs::CounterHandle dns_regular_queries;
    obs::CounterHandle dns_record_cache_hit;
    obs::CounterHandle dns_upstream_queries;
    obs::CounterHandle http_cache_serves;
    obs::CounterHandle http_bytes_from_cache;
    obs::CounterHandle http_flash_serves;
    obs::CounterHandle http_race_fallback;
    obs::CounterHandle delegations;
    obs::CounterHandle revalidations;
    obs::CounterHandle block_listed;
    obs::CounterHandle cache_inserts;
    obs::CounterHandle delegation_bytes_fetched;
    obs::CounterHandle peer_probes;
    obs::CounterHandle peer_hits;
    obs::CounterHandle peer_fallbacks;
    obs::CounterHandle peer_serves;
    obs::CounterHandle peer_serve_misses;
    obs::CounterHandle peer_bytes_relayed;
    obs::HistogramHandle latency_estimate_error_ms;
  } hot_;
};

}  // namespace ape::core
