#include "dns/ldns.hpp"

#include <algorithm>
#include <utility>

namespace ape::dns {

LocalDnsServer::LocalDnsServer(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
                               sim::Duration service_time, net::Port upstream_port)
    : DnsServer(network, node, cpu, service_time), upstream_(network, node, upstream_port) {}

void LocalDnsServer::add_delegation(const DnsName& suffix, net::Endpoint server) {
  delegations_.emplace_back(suffix, server);
  // Longest suffix first so lookup can take the first match.
  std::sort(delegations_.begin(), delegations_.end(),
            [](const auto& a, const auto& b) {
              return a.first.label_count() > b.first.label_count();
            });
}

const net::Endpoint* LocalDnsServer::delegation_for(const DnsName& name) const {
  for (const auto& [suffix, server] : delegations_) {
    if (name.is_subdomain_of(suffix)) return &server;
  }
  return nullptr;
}

std::optional<DnsName> LocalDnsServer::append_cached(const DnsName& name,
                                                     std::vector<ResourceRecord>& out) {
  auto it = cache_.find(name);
  if (it == cache_.end()) return std::nullopt;

  const sim::Time now = simulator().now();
  std::optional<DnsName> cname_target;
  bool any = false;
  for (const auto& cached : it->second) {
    if (cached.expires <= now) continue;
    ResourceRecord rr = cached.rr;
    rr.ttl = static_cast<std::uint32_t>(sim::to_seconds(cached.expires - now));
    out.push_back(std::move(rr));
    any = true;
    if (cached.rr.type == RrType::Cname) {
      if (auto target = decode_cname_rdata(cached.rr.rdata)) cname_target = target.value();
    }
  }
  if (!any) cache_.erase(it);  // everything expired; drop the entry
  return cname_target;
}

void LocalDnsServer::cache_records(const std::vector<ResourceRecord>& records) {
  const sim::Time now = simulator().now();
  for (const auto& rr : records) {
    if (rr.type != RrType::A && rr.type != RrType::Cname) continue;
    if (rr.ttl == 0) continue;  // TTL 0: use once, never cache
    auto& slot = cache_[rr.name];
    // Replace records of the same type (fresh data wins).
    std::erase_if(slot, [&](const CachedRecord& c) { return c.rr.type == rr.type; });
    slot.push_back(CachedRecord{rr, now + sim::seconds(rr.ttl)});
  }
}

void LocalDnsServer::handle_query(DnsMessage query, net::Endpoint /*client*/,
                                  Responder respond) {
  if (query.questions.empty() || query.questions.front().qtype != RrType::A) {
    respond(make_response_for(query, Rcode::NotImp));
    return;
  }

  auto rec = std::make_shared<Recursion>();
  rec->query = query;
  rec->respond = std::move(respond);
  rec->current = query.questions.front().name;
  continue_recursion(std::move(rec));
}

void LocalDnsServer::continue_recursion(std::shared_ptr<Recursion> rec) {
  // First satisfy as much as possible from cache, following CNAMEs.
  while (rec->depth < 16) {
    const std::size_t before = rec->chain.size();
    auto cname_target = append_cached(rec->current, rec->chain);
    if (rec->chain.size() == before) break;  // nothing cached for this name
    // Got an A record for the current name?
    const bool have_a = std::any_of(
        rec->chain.begin(), rec->chain.end(), [&](const ResourceRecord& rr) {
          return rr.type == RrType::A && rr.name == rec->current;
        });
    if (have_a) {
      finish(std::move(rec), Rcode::NoError);
      return;
    }
    if (!cname_target) break;
    rec->current = *cname_target;
    ++rec->depth;
  }
  if (rec->depth >= 16) {
    finish(std::move(rec), Rcode::ServFail);
    return;
  }

  // Negative cache: a recently-confirmed NXDOMAIN answers immediately.
  if (auto neg = negative_cache_.find(rec->current); neg != negative_cache_.end()) {
    if (neg->second > simulator().now()) {
      finish(std::move(rec), Rcode::NxDomain);
      return;
    }
    negative_cache_.erase(neg);
  }

  const net::Endpoint* upstream = delegation_for(rec->current);
  if (upstream == nullptr) {
    finish(std::move(rec), Rcode::ServFail);
    return;
  }

  DnsMessage upstream_query;
  upstream_query.header.rd = true;
  upstream_query.questions.push_back(Question{rec->current, RrType::A, RrClass::In});
  ++upstream_queries_;

  upstream_.query(*upstream, std::move(upstream_query),
                  [this, rec = std::move(rec)](Result<DnsMessage> response) mutable {
                    if (!response || response.value().header.rcode != Rcode::NoError ||
                        response.value().answers.empty()) {
                      const Rcode rc =
                          response ? response.value().header.rcode : Rcode::ServFail;
                      if (rc == Rcode::NxDomain && negative_ttl_.count() > 0) {
                        negative_cache_[rec->current] = simulator().now() + negative_ttl_;
                      }
                      finish(std::move(rec), rc == Rcode::NoError ? Rcode::ServFail : rc);
                      return;
                    }
                    cache_records(response.value().answers);
                    for (const auto& rr : response.value().answers) {
                      rec->chain.push_back(rr);
                    }
                    // Did this round complete the chain?
                    const bool have_a = std::any_of(
                        response.value().answers.begin(), response.value().answers.end(),
                        [](const ResourceRecord& rr) { return rr.type == RrType::A; });
                    if (have_a) {
                      finish(std::move(rec), Rcode::NoError);
                      return;
                    }
                    // CNAME-only answer: restart the walk on the deepest target.
                    for (const auto& rr : response.value().answers) {
                      if (rr.type == RrType::Cname) {
                        if (auto target = decode_cname_rdata(rr.rdata)) {
                          rec->current = target.value();
                        }
                      }
                    }
                    ++rec->depth;
                    continue_recursion(std::move(rec));
                  });
}

void LocalDnsServer::finish(std::shared_ptr<Recursion> rec, Rcode rcode) {
  DnsMessage resp = make_response_for(rec->query, rcode);
  resp.answers = std::move(rec->chain);
  if (resp.answers.empty() && rcode == Rcode::NoError) resp.header.rcode = Rcode::ServFail;
  rec->respond(std::move(resp));
}

}  // namespace ape::dns
