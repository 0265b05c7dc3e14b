#include "dns/server.hpp"

#include <algorithm>
#include <utility>

namespace ape::dns {

DnsServer::DnsServer(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
                     sim::Duration service_time, net::Port port)
    : network_(network),
      node_(node),
      cpu_(cpu),
      service_time_(service_time),
      serve_kind_(APE_EVT("wan.dns.serve")),
      port_(port) {
  network_.bind_udp(node_, port_, [this](const net::Datagram& d) { on_datagram(d); });
}

DnsServer::~DnsServer() {
  network_.unbind_udp(node_, port_);
}

std::size_t udp_payload_limit(const DnsMessage& query) {
  // EDNS(0) overloads the OPT record's CLASS as the payload size.
  if (const ResourceRecord* opt = query.find_additional(RrType::Opt); opt != nullptr) {
    return std::max<std::size_t>(opt->rr_class, kClassicUdpPayload);
  }
  return kClassicUdpPayload;
}

void DnsServer::on_datagram(const net::Datagram& dgram) {
  auto decoded = decode(dgram.payload);
  if (!decoded || !decoded.value().is_query()) {
    ++malformed_received_;
    return;  // RFC behaviour for garbage: drop
  }
  ++queries_received_;

  // Charge CPU, then dispatch.  The responder captures the client endpoint
  // so asynchronous handlers can answer later.
  const net::Endpoint client = dgram.source;
  const std::size_t payload_limit = udp_payload_limit(decoded.value());
  cpu_.submit(service_time_,
              [this, client, payload_limit,
               query = std::move(decoded.value())]() mutable {
    Responder respond = [this, client, payload_limit](DnsMessage response) {
      auto wire = encode(response);
      if (wire.size() > payload_limit) {
        // RFC 1035 §4.2.1 / RFC 6891: answers that exceed the requester's
        // payload limit are truncated — header + question only, TC set —
        // so the client knows to retry with a larger limit (or TCP).
        ++truncated_sent_;
        DnsMessage truncated;
        truncated.header = response.header;
        truncated.header.tc = true;
        truncated.questions = response.questions;
        wire = encode(truncated);
      }
      network_.send_datagram(node_, port_, client, std::move(wire));
    };
    handle_query(std::move(query), client, std::move(respond));
  }, serve_kind_);
}

}  // namespace ape::dns
