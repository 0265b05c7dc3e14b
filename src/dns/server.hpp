// Base machinery shared by every DNS speaker in the system: decode a
// datagram, charge CPU service time, dispatch to the concrete handler,
// encode + send the response.
//
// Concrete servers: AuthoritativeDnsServer (adns), CdnDnsServer (cdn_dns),
// LocalDnsServer (ldns), and — in core/ — the AP's dnsmasq-like forwarder.
#pragma once

#include <functional>

#include "dns/codec.hpp"
#include "dns/message.hpp"
#include "net/network.hpp"
#include "sim/service_queue.hpp"

namespace ape::dns {

class DnsServer {
 public:
  // `cpu` is the node's CPU; a per-query `service_time` is charged before
  // the handler runs (this is what couples DNS latency to load).
  DnsServer(net::Network& network, net::NodeId node, sim::ServiceQueue& cpu,
            sim::Duration service_time, net::Port port = net::kDnsPort);
  virtual ~DnsServer();

  DnsServer(const DnsServer&) = delete;
  DnsServer& operator=(const DnsServer&) = delete;

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] net::Port port() const noexcept { return port_; }

  // Profiling tag for the per-query CPU-charge event.  Defaults to the WAN
  // owner ("wan.dns.serve"); speakers that live on the AP (the dnsmasq-like
  // forwarder) retag themselves so DNS cost attributes to the right shard
  // owner.
  void set_serve_kind(sim::KindId kind) noexcept { serve_kind_ = kind; }
  [[nodiscard]] std::size_t queries_received() const noexcept { return queries_received_; }
  [[nodiscard]] std::size_t malformed_received() const noexcept { return malformed_received_; }
  [[nodiscard]] std::size_t truncated_sent() const noexcept { return truncated_sent_; }

 protected:
  using Responder = std::function<void(DnsMessage)>;

  // Implementations may respond synchronously or hold the responder for an
  // asynchronous upstream round trip.  The decoded query is moved in, so an
  // implementation can carry it into deferred work without a copy.
  virtual void handle_query(DnsMessage query, net::Endpoint client,
                            Responder respond) = 0;

  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return network_.simulator(); }
  [[nodiscard]] sim::ServiceQueue& cpu() noexcept { return cpu_; }

 private:
  void on_datagram(const net::Datagram& dgram);

  net::Network& network_;
  net::NodeId node_;
  sim::ServiceQueue& cpu_;
  sim::Duration service_time_;
  sim::KindId serve_kind_;
  net::Port port_;
  std::size_t queries_received_ = 0;
  std::size_t malformed_received_ = 0;
  std::size_t truncated_sent_ = 0;
};

// Classic pre-EDNS UDP payload ceiling (RFC 1035 §4.2.1).
inline constexpr std::size_t kClassicUdpPayload = 512;
// Advertised payload for this implementation's clients (the modern
// fragmentation-safe default).
inline constexpr std::uint16_t kDefaultEdnsPayload = 1232;

// Reads the EDNS(0) advertised payload size from a query's OPT record;
// falls back to the classic 512-byte ceiling when absent.
[[nodiscard]] std::size_t udp_payload_limit(const DnsMessage& query);

}  // namespace ape::dns
