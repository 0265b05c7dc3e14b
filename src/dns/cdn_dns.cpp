#include "dns/cdn_dns.hpp"

namespace ape::dns {

void CdnDnsServer::add_service(const DnsName& cdn_name, net::IpAddress origin_fallback) {
  services_[cdn_name].origin = origin_fallback;
}

void CdnDnsServer::add_cache_server(const DnsName& cdn_name, const Region& region,
                                    net::IpAddress server) {
  services_[cdn_name].servers_by_region[region] = server;
}

void CdnDnsServer::set_region_of(net::IpAddress resolver_ip, Region region) {
  regions_[resolver_ip] = std::move(region);
}

void CdnDnsServer::handle_query(DnsMessage query, net::Endpoint client,
                                Responder respond) {
  if (query.questions.empty()) {
    respond(make_response_for(query, Rcode::FormErr));
    return;
  }
  const Question& q = query.questions.front();
  auto svc = services_.find(q.name);
  if (svc == services_.end()) {
    respond(make_response_for(query, Rcode::NxDomain));
    return;
  }

  net::IpAddress target = svc->second.origin;
  if (auto region = regions_.find(client.ip); region != regions_.end()) {
    if (auto server = svc->second.servers_by_region.find(region->second);
        server != svc->second.servers_by_region.end()) {
      target = server->second;
    }
  }

  DnsMessage resp = make_response_for(query, Rcode::NoError);
  resp.header.aa = true;
  resp.answers.push_back(make_a_record(q.name, target, answer_ttl_));
  respond(std::move(resp));
}

}  // namespace ape::dns
