// CDN mapping DNS (the "Akamai DNS" of Fig. 1).
//
// Resolves CDN-namespace names (CNAME targets like
// "www.apple.com.edgekey.net") to the cache server nearest to the
// *querier* — in practice the client's LDNS, whose source IP we map to a
// region.  A service with no cache server in the querier's region resolves
// to the origin instead (the Yahoo-in-São-Paulo case of Table I).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "dns/server.hpp"

namespace ape::dns {

class CdnDnsServer : public DnsServer {
 public:
  using DnsServer::DnsServer;
  using Region = std::string;

  // Registers a CDN-hosted service by its CDN-namespace name.
  void add_service(const DnsName& cdn_name, net::IpAddress origin_fallback);
  // Places a cache server for `cdn_name` in `region`.
  void add_cache_server(const DnsName& cdn_name, const Region& region, net::IpAddress server);
  // Region of a querying resolver, keyed by its source IP.
  void set_region_of(net::IpAddress resolver_ip, Region region);

  void set_answer_ttl(std::uint32_t ttl_seconds) noexcept { answer_ttl_ = ttl_seconds; }

 protected:
  void handle_query(DnsMessage query, net::Endpoint client, Responder respond) override;

 private:
  struct Service {
    net::IpAddress origin;
    std::unordered_map<Region, net::IpAddress> servers_by_region;
  };

  std::unordered_map<DnsName, Service, DnsNameHash> services_;
  std::unordered_map<net::IpAddress, Region> regions_;
  std::uint32_t answer_ttl_ = 20;  // CDN mapping answers are short-lived
};

}  // namespace ape::dns
