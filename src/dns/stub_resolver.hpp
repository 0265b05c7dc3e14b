// Client-side DNS query machinery.
//
// DnsClient is the transaction layer every DNS *speaker that also asks
// questions* builds on (the phone's c-ares-like stub, the LDNS recursing
// upstream, the AP forwarding to its upstream resolver): it assigns IDs,
// matches responses, retries, and times out.
//
// StubResolver is the c-ares analogue linked into the mobile client: it
// resolves a hostname to an address.  The APE-CACHE client runtime reads the
// piggybacked DNS-Cache RR off the response message it queried for itself.
#pragma once

#include <functional>
#include <unordered_map>

#include "dns/codec.hpp"
#include "dns/message.hpp"
#include "net/network.hpp"

namespace ape::dns {

class DnsClient {
 public:
  // Binds `local_port` on `node` for responses.  Ports must be unique per
  // node; use distinct ephemeral ports for multiple clients on one node.
  DnsClient(net::Network& network, net::NodeId node, net::Port local_port);
  ~DnsClient();

  DnsClient(const DnsClient&) = delete;
  DnsClient& operator=(const DnsClient&) = delete;

  using QueryHandler = std::function<void(Result<DnsMessage>)>;

  // Assigns a fresh transaction ID, ships the query, and calls `handler`
  // with the matching response or an error after retries are exhausted.
  void query(net::Endpoint server, DnsMessage message, QueryHandler handler);

  void set_timeout(sim::Duration timeout) noexcept { timeout_ = timeout; }
  void set_max_attempts(int attempts) noexcept { max_attempts_ = attempts < 1 ? 1 : attempts; }

  [[nodiscard]] std::size_t timeouts() const noexcept { return timeouts_; }

 private:
  struct Pending {
    net::Endpoint server;
    DnsMessage message;
    QueryHandler handler;
    int attempts_left;
    sim::Simulator::EventId timeout_event;
  };

  void send_attempt(std::uint16_t id);
  void on_timeout(std::uint16_t id);
  void on_datagram(const net::Datagram& dgram);

  net::Network& network_;
  net::NodeId node_;
  net::Port local_port_;
  sim::Duration timeout_ = sim::milliseconds(3000);
  int max_attempts_ = 2;
  std::uint16_t next_id_ = 1;
  std::unordered_map<std::uint16_t, Pending> pending_;
  std::size_t timeouts_ = 0;
};

struct ResolveResult {
  net::IpAddress address;
  std::uint32_t ttl = 0;  // of the A record
};

class StubResolver {
 public:
  StubResolver(net::Network& network, net::NodeId node, net::Endpoint dns_server,
               net::Port local_port);

  using ResolveHandler = std::function<void(Result<ResolveResult>)>;

  // Standard A-record resolution, following CNAMEs within the response.
  void resolve(const DnsName& name, ResolveHandler handler);

  [[nodiscard]] net::Endpoint server() const noexcept { return server_; }

  // Extracts the effective A record from a response, following the CNAME
  // chain; exposed for reuse by higher layers.
  [[nodiscard]] static Result<ResolveResult> extract_address(const DnsMessage& response,
                                                             const DnsName& queried);

 private:
  DnsClient client_;
  net::Endpoint server_;
};

}  // namespace ape::dns
