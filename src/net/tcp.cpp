#include "net/tcp.hpp"

#include <cassert>
#include <utility>

namespace ape::net {

TcpTransport::TcpTransport(Network& network) : network_(network) {}

void TcpTransport::listen(NodeId node, Port port, TcpRequestHandler handler) {
  assert(handler);
  listeners_[listen_key(node, port)] = std::move(handler);
}

void TcpTransport::stop_listening(NodeId node, Port port) {
  listeners_.erase(listen_key(node, port));
}

void TcpTransport::connect(NodeId client, Endpoint server, ConnectHandler on_connected) {
  assert(on_connected);
  ++counters_.connects_attempted;
  auto& sim = network_.simulator();

  // Span over the handshake (or its failure), parented on whatever fetch
  // pushed the ambient context before initiating this connect; the
  // callback closes it, whichever branch below fires.
  if (obs::SpanLog* log = obs::tracing(observer_); log != nullptr) {
    const obs::TraceContext span = log->open(log->current_context(), "net.connect", "net",
                                             server.ip.to_string(), sim.now());
    on_connected = obs::close_on_call(log, span, sim, std::move(on_connected));
  }

  const auto server_node = network_.owner_of(server.ip);
  if (!server_node) {
    // Unknown destination (e.g. the APE-CACHE dummy IP): SYNs vanish, the
    // client gives up after its connect timeout.
    ++counters_.connects_timed_out;
    sim.schedule_in(connect_timeout_, [cb = std::move(on_connected)] {
      cb(make_error<TcpConnectionPtr>("connect timeout: unroutable address"));
    }, APE_EVT("net.tcp.connect_fail"));
    return;
  }

  const auto path = network_.topology().path(client, *server_node);
  if (!path) {
    ++counters_.connects_timed_out;
    sim.schedule_in(connect_timeout_, [cb = std::move(on_connected)] {
      cb(make_error<TcpConnectionPtr>("connect timeout: network partition"));
    }, APE_EVT("net.tcp.connect_fail"));
    return;
  }

  const sim::Duration rtt = path->rtt();
  if (!listeners_.contains(listen_key(*server_node, server.port))) {
    // RST comes back after one round trip.
    ++counters_.connects_refused;
    sim.schedule_in(rtt, [cb = std::move(on_connected)] {
      cb(make_error<TcpConnectionPtr>("connection refused"));
    }, APE_EVT("net.tcp.connect_fail"));
    return;
  }

  // SYN / SYN-ACK: connection usable one RTT after initiation.
  const NodeId server_id = *server_node;
  sim.schedule_in(rtt, [this, client, server_id, server, cb = std::move(on_connected)] {
    ++counters_.connects_established;
    ++server_conn_count_[server_id];
    auto conn = TcpConnectionPtr(
        new TcpConnection(*this, next_conn_id_++, client, server_id, server),
        [this](TcpConnection* c) {
          on_connection_closed(*c);
          delete c;  // matching the private-new in this factory
        });
    cb(std::move(conn));
  }, APE_EVT("net.tcp.connect"));
}

void TcpConnection::send_request(TcpMessage request, ResponseHandler on_response) {
  assert(on_response);
  if (!open_) {
    on_response(make_error<TcpMessage>("connection is closed"));
    return;
  }
  transport_.route_request(*this, std::move(request), std::move(on_response));
}

void TcpConnection::close() {
  open_ = false;
}

void TcpTransport::route_request(TcpConnection& conn, TcpMessage request,
                                 TcpConnection::ResponseHandler on_response) {
  auto& sim = network_.simulator();
  ++counters_.requests_sent;

  const auto up_delay = network_.transfer_delay(conn.client_, conn.server_, request.wire_size());
  if (!up_delay) {
    sim.schedule_in(connect_timeout_, [cb = std::move(on_response)] {
      cb(make_error<TcpMessage>("request lost: network partition"));
    }, APE_EVT("net.tcp.request_drop"));
    return;
  }

  const NodeId client = conn.client_;
  const NodeId server = conn.server_;
  const Endpoint server_ep = conn.server_ep_;
  const auto client_ip = network_.ip_of(client);
  const Endpoint peer{client_ip.value_or(IpAddress{}), 0};

  sim.schedule_in(*up_delay, [this, client, server, server_ep, peer, req = std::move(request),
                              cb = std::move(on_response)]() mutable {
    auto it = listeners_.find(listen_key(server, server_ep.port));
    if (it == listeners_.end()) {
      // Listener went away mid-flight: RST on the response path.
      const auto back = network_.topology().path(server, client);
      const sim::Duration d = back ? back->one_way_latency : connect_timeout_;
      network_.simulator().schedule_in(d, [cb = std::move(cb)] {
        cb(make_error<TcpMessage>("connection reset by peer"));
      }, APE_EVT("net.tcp.response_drop"));
      return;
    }

    // The responder may be invoked asynchronously, long after this handler
    // returns (the server may itself be a client of an upstream service).
    TcpResponder respond = [this, client, server, cb](TcpMessage response) mutable {
      const auto down_delay = network_.transfer_delay(server, client, response.wire_size());
      if (!down_delay) {
        network_.simulator().schedule_in(connect_timeout_, [cb = std::move(cb)] {
          cb(make_error<TcpMessage>("response lost: network partition"));
        }, APE_EVT("net.tcp.response_drop"));
        return;
      }
      network_.simulator().schedule_in(
          *down_delay, [this, cb = std::move(cb), resp = std::move(response)]() mutable {
            ++counters_.responses_delivered;
            cb(std::move(resp));
          }, APE_EVT("net.tcp.response"));
    };
    it->second(req, peer, std::move(respond));
  }, APE_EVT("net.tcp.request"));
}

void TcpTransport::on_connection_closed(const TcpConnection& conn) {
  auto it = server_conn_count_.find(conn.server_);
  if (it != server_conn_count_.end() && it->second > 0) --it->second;
}

std::size_t TcpTransport::server_connection_count(NodeId node) const {
  auto it = server_conn_count_.find(node);
  return it == server_conn_count_.end() ? 0 : it->second;
}

}  // namespace ape::net
