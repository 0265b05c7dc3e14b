#include "dns/stub_resolver.hpp"

#include <utility>

#include "dns/server.hpp"  // EDNS payload constants

namespace ape::dns {

DnsClient::DnsClient(net::Network& network, net::NodeId node, net::Port local_port)
    : network_(network), node_(node), local_port_(local_port) {
  network_.bind_udp(node_, local_port_, [this](const net::Datagram& d) { on_datagram(d); });
}

DnsClient::~DnsClient() {
  network_.unbind_udp(node_, local_port_);
}

void DnsClient::query(net::Endpoint server, DnsMessage message, QueryHandler handler) {
  // 16-bit IDs wrap; skip IDs that are still in flight.
  std::uint16_t id = next_id_++;
  while (pending_.contains(id)) id = next_id_++;
  message.header.id = id;

  // Advertise a modern EDNS payload so large answers (batched DNS-Cache
  // responses in particular) are not truncated to the classic 512 bytes.
  if (message.find_additional(RrType::Opt) == nullptr) {
    message.additionals.push_back(make_opt_record(kDefaultEdnsPayload));
  }

  pending_.emplace(id, Pending{server, std::move(message), std::move(handler),
                               max_attempts_, 0});
  send_attempt(id);
}

void DnsClient::send_attempt(std::uint16_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  --p.attempts_left;
  network_.send_datagram(node_, local_port_, p.server, encode(p.message));
  p.timeout_event = network_.simulator().schedule_in(
      timeout_, [this, id] { on_timeout(id); }, APE_EVT("net.dns.timeout"));
}

void DnsClient::on_timeout(std::uint16_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  if (it->second.attempts_left > 0) {
    send_attempt(id);
    return;
  }
  ++timeouts_;
  QueryHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  handler(make_error<DnsMessage>("DNS query timed out"));
}

void DnsClient::on_datagram(const net::Datagram& dgram) {
  auto decoded = decode(dgram.payload);
  if (!decoded || !decoded.value().is_response()) return;
  auto it = pending_.find(decoded.value().header.id);
  if (it == pending_.end()) return;  // late or spoofed response
  network_.simulator().cancel(it->second.timeout_event);
  QueryHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  handler(std::move(decoded.value()));
}

StubResolver::StubResolver(net::Network& network, net::NodeId node, net::Endpoint dns_server,
                           net::Port local_port)
    : client_(network, node, local_port), server_(dns_server) {}

void StubResolver::resolve(const DnsName& name, ResolveHandler handler) {
  DnsMessage query;
  query.header.rd = true;
  query.questions.push_back(Question{name, RrType::A, RrClass::In});

  client_.query(server_, std::move(query),
                [name, handler = std::move(handler)](Result<DnsMessage> response) {
                  if (!response) {
                    handler(make_error<ResolveResult>(response.error().message));
                    return;
                  }
                  handler(extract_address(response.value(), name));
                });
}

Result<ResolveResult> StubResolver::extract_address(const DnsMessage& response,
                                                    const DnsName& queried) {
  if (response.header.rcode != Rcode::NoError) {
    return make_error<ResolveResult>("DNS error rcode=" +
                                     std::to_string(static_cast<int>(response.header.rcode)));
  }
  // Follow the CNAME chain from the queried name to an A record.
  DnsName current = queried;
  for (int depth = 0; depth < 16; ++depth) {
    for (const auto& rr : response.answers) {
      if (!(rr.name == current)) continue;
      if (rr.type == RrType::A) {
        auto ip = decode_a_rdata(rr.rdata);
        if (!ip) return make_error<ResolveResult>("bad A RDATA");
        return ResolveResult{ip.value(), rr.ttl};
      }
      if (rr.type == RrType::Cname) {
        auto target = decode_cname_rdata(rr.rdata);
        if (!target) return make_error<ResolveResult>("bad CNAME RDATA");
        current = std::move(target.value());
        goto next_link;
      }
    }
    return make_error<ResolveResult>("no address in response");
  next_link:;
  }
  return make_error<ResolveResult>("CNAME chain too deep");
}

}  // namespace ape::dns
