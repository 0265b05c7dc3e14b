#include "dns/adns.hpp"

#include <algorithm>

namespace ape::dns {

void AuthoritativeDnsServer::add_zone(const DnsName& suffix) {
  zones_.push_back(suffix);
}

void AuthoritativeDnsServer::add_record(ResourceRecord record) {
  records_[record.name].push_back(std::move(record));
}

void AuthoritativeDnsServer::add_a(const DnsName& name, net::IpAddress ip, std::uint32_t ttl) {
  add_record(make_a_record(name, ip, ttl));
}

void AuthoritativeDnsServer::add_cname(const DnsName& name, const DnsName& target,
                                       std::uint32_t ttl) {
  add_record(make_cname_record(name, target, ttl));
}

bool AuthoritativeDnsServer::in_zone(const DnsName& name) const {
  return std::any_of(zones_.begin(), zones_.end(),
                     [&](const DnsName& z) { return name.is_subdomain_of(z); });
}

void AuthoritativeDnsServer::handle_query(DnsMessage query, net::Endpoint /*client*/,
                                          Responder respond) {
  if (query.questions.empty()) {
    respond(make_response_for(query, Rcode::FormErr));
    return;
  }
  const Question& q = query.questions.front();
  if (!in_zone(q.name)) {
    respond(make_response_for(query, Rcode::Refused));
    return;
  }

  DnsMessage resp = make_response_for(query, Rcode::NoError);
  resp.header.aa = true;

  // Walk CNAME chains inside our own zone data (RFC 1034 §4.3.2 step 3a).
  DnsName current = q.name;
  for (int depth = 0; depth < 8; ++depth) {
    auto it = records_.find(current);
    if (it == records_.end()) break;
    bool followed = false;
    for (const auto& rr : it->second) {
      if (rr.type == q.qtype) {
        resp.answers.push_back(rr);
      } else if (rr.type == RrType::Cname && q.qtype != RrType::Cname) {
        resp.answers.push_back(rr);
        if (auto target = decode_cname_rdata(rr.rdata)) {
          current = target.value();
          followed = true;
        }
      }
    }
    if (!followed) break;
  }

  if (resp.answers.empty()) resp.header.rcode = Rcode::NxDomain;
  respond(std::move(resp));
}

}  // namespace ape::dns
