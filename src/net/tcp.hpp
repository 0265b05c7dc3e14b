// Connection-oriented transport model.
//
// The paper's retrieval-latency metric is "from initiating a TCP session to
// the first byte read" (Sec. V-B), so the model captures exactly the parts
// that matter at that granularity:
//   - connection setup costs one RTT (SYN / SYN-ACK; data rides the ACK),
//   - each message costs one-way latency + wire-size / bottleneck bandwidth,
//   - connecting to a port nobody listens on fails after one RTT (RST),
//   - a partitioned path fails after a connect timeout.
//
// Messages carry real header bytes plus a simulated body size so the model
// never allocates multi-hundred-kB dummy bodies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/shard.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"

namespace ape::net {

struct TcpMessage {
  Payload bytes;                        // actual serialized content (headers etc.)
  std::size_t simulated_body_bytes = 0; // body size modeled but not materialized

  [[nodiscard]] std::size_t wire_size() const noexcept {
    return bytes.size() + simulated_body_bytes + kTcpOverheadBytes;
  }
  static constexpr std::size_t kTcpOverheadBytes = 40;  // IPv4 + TCP headers
};

class TcpTransport;

// Client end of an established connection.  Handles are shared_ptrs owned by
// the transport; destroying the last handle closes the connection.
class TcpConnection {
  APE_SHARD_CONTEXT(net);

 public:
  using ResponseHandler = std::function<void(Result<TcpMessage>)>;

  // Ships a request to the server and hands the (asynchronous) response to
  // `on_response`.  One outstanding exchange per call; pipelining is
  // permitted (responses come back in order of server completion).
  void send_request(TcpMessage request, ResponseHandler on_response);

  [[nodiscard]] NodeId client_node() const noexcept { return client_; }
  [[nodiscard]] bool open() const noexcept { return open_; }
  void close();

 private:
  friend class TcpTransport;
  TcpConnection(TcpTransport& transport, std::uint64_t id, NodeId client, NodeId server,
                Endpoint server_ep)
      : transport_(transport), id_(id), client_(client), server_(server), server_ep_(server_ep) {}

  APE_SHARD_LOCAL(net) TcpTransport& transport_;
  APE_SHARD_LOCAL(net) std::uint64_t id_;
  APE_SHARD_LOCAL(net) NodeId client_;
  APE_SHARD_LOCAL(net) NodeId server_;
  APE_SHARD_LOCAL(net) Endpoint server_ep_;
  APE_SHARD_LOCAL(net) bool open_ = true;
};

using TcpConnectionPtr = std::shared_ptr<TcpConnection>;

// Server-side responder: the request handler calls it (possibly much later,
// after upstream work) to ship the response back.
using TcpResponder = std::function<void(TcpMessage)>;

// Server request handler bound to (node, port): (request, peer, respond).
using TcpRequestHandler =
    std::function<void(const TcpMessage& request, Endpoint peer, TcpResponder respond)>;

class TcpTransport {
  APE_SHARD_CONTEXT(net);

 public:
  explicit TcpTransport(Network& network);
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void listen(NodeId node, Port port, TcpRequestHandler handler);
  void stop_listening(NodeId node, Port port);

  using ConnectHandler = std::function<void(Result<TcpConnectionPtr>)>;

  // Establishes a connection from `client` to `server`.  Failure modes:
  //  - unknown IP / no route:  error after `connect_timeout`,
  //  - nothing listening:      RST, error after one RTT.
  void connect(NodeId client, Endpoint server, ConnectHandler on_connected);

  void set_connect_timeout(sim::Duration timeout) noexcept { connect_timeout_ = timeout; }

  // Nullable span sink: connect() records a "net.connect" span parented on
  // the ambient trace context (pushed by the caller around its fetch).
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

  // Live connections where `node` is the server side — a memory-model input
  // (per-connection socket state on the AP).
  [[nodiscard]] std::size_t server_connection_count(NodeId node) const;

  struct Counters {
    std::size_t connects_attempted = 0;
    std::size_t connects_established = 0;
    std::size_t connects_refused = 0;
    std::size_t connects_timed_out = 0;
    std::size_t requests_sent = 0;
    std::size_t responses_delivered = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] Network& network() noexcept { return network_; }

 private:
  friend class TcpConnection;

  void route_request(TcpConnection& conn, TcpMessage request,
                     TcpConnection::ResponseHandler on_response);
  void on_connection_closed(const TcpConnection& conn);

  [[nodiscard]] std::uint64_t listen_key(NodeId node, Port port) const noexcept {
    return (std::uint64_t{node.value} << 16) | port;
  }

  APE_SHARD_LOCAL(net) Network& network_;
  APE_SHARD_SHARED obs::Observer* observer_ = nullptr;
  APE_SHARD_LOCAL(net) sim::Duration connect_timeout_ = sim::milliseconds(3000);
  APE_SHARD_LOCAL(net) std::unordered_map<std::uint64_t, TcpRequestHandler> listeners_;
  APE_SHARD_LOCAL(net) std::unordered_map<NodeId, std::size_t> server_conn_count_;
  APE_SHARD_LOCAL(net) std::uint64_t next_conn_id_ = 1;
  APE_SHARD_LOCAL(net) Counters counters_;
};

}  // namespace ape::net
