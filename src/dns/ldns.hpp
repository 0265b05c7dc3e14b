// Recursive local DNS server (the "LDNS" of Fig. 1).
//
// Resolution walks delegations: the longest-matching suffix names the
// upstream server to ask (the provider's ADNS, the CDN's DNS, ...); CNAME
// answers restart the walk on the target name.  Positive answers are
// cached per-name with their TTLs; cached chains are answered without any
// upstream traffic — this is what makes warm lookups fast and cold lookups
// slow, the asymmetry Fig. 11b measures.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "dns/server.hpp"
#include "dns/stub_resolver.hpp"

namespace ape::dns {

class LocalDnsServer : public DnsServer {
 public:
  LocalDnsServer(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
                 sim::Duration service_time, net::Port upstream_port = 40053);

  // Queries for names under `suffix` recurse to `server`.
  void add_delegation(const DnsName& suffix, net::Endpoint server);

  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }
  [[nodiscard]] std::size_t upstream_queries() const noexcept { return upstream_queries_; }
  void flush_cache() {
    cache_.clear();
    negative_cache_.clear();
  }

  // Negative caching (RFC 2308): NXDOMAIN answers are remembered for
  // `ttl` so repeated queries for dead names do not hammer upstreams.
  void set_negative_ttl(sim::Duration ttl) noexcept { negative_ttl_ = ttl; }
  [[nodiscard]] std::size_t negative_cache_size() const noexcept {
    return negative_cache_.size();
  }

 protected:
  void handle_query(DnsMessage query, net::Endpoint client, Responder respond) override;

 private:
  struct CachedRecord {
    ResourceRecord rr;
    sim::Time expires;
  };

  struct Recursion {
    DnsMessage query;
    Responder respond;
    DnsName current;
    std::vector<ResourceRecord> chain;
    int depth = 0;
  };

  // Appends cached records for `name` (unexpired) to `out`; returns the
  // CNAME target if the cache redirects, or nullopt when `out` gained an
  // A record or nothing.
  [[nodiscard]] std::optional<DnsName> append_cached(const DnsName& name,
                                                     std::vector<ResourceRecord>& out);
  void cache_records(const std::vector<ResourceRecord>& records);
  void continue_recursion(std::shared_ptr<Recursion> rec);
  [[nodiscard]] const net::Endpoint* delegation_for(const DnsName& name) const;
  void finish(std::shared_ptr<Recursion> rec, Rcode rcode);

  std::vector<std::pair<DnsName, net::Endpoint>> delegations_;
  std::unordered_map<DnsName, std::vector<CachedRecord>, DnsNameHash> cache_;
  std::unordered_map<DnsName, sim::Time, DnsNameHash> negative_cache_;  // name -> expiry
  sim::Duration negative_ttl_ = sim::seconds(30.0);
  DnsClient upstream_;
  std::size_t upstream_queries_ = 0;
};

}  // namespace ape::dns
