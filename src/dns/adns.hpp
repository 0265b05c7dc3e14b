// Authoritative DNS server: serves A/CNAME records for its zones.
//
// In the Table I / Fig 1 reproduction this plays the content provider's
// ADNS, answering "www.apple.com" with a CNAME into the CDN's namespace
// ("www.apple.com.edgekey.net").
#pragma once

#include <unordered_map>
#include <vector>

#include "dns/server.hpp"

namespace ape::dns {

class AuthoritativeDnsServer : public DnsServer {
 public:
  using DnsServer::DnsServer;

  // Declares authority over `suffix`; queries under it that have no records
  // get NXDOMAIN, queries outside any zone get REFUSED.
  void add_zone(const DnsName& suffix);

  void add_record(ResourceRecord record);
  void add_a(const DnsName& name, net::IpAddress ip, std::uint32_t ttl);
  void add_cname(const DnsName& name, const DnsName& target, std::uint32_t ttl);

 protected:
  void handle_query(DnsMessage query, net::Endpoint client, Responder respond) override;

 private:
  [[nodiscard]] bool in_zone(const DnsName& name) const;

  std::vector<DnsName> zones_;
  std::unordered_map<DnsName, std::vector<ResourceRecord>, DnsNameHash> records_;
};

}  // namespace ape::dns
