// HTTP client/server endpoints over the simulated TCP transport.
//
// Server requests are charged to the node's CPU (base cost + per-kB cost),
// which is how serving traffic shows up in the Fig. 2 / Fig. 14 resource
// plots and why retrieval latency climbs with request frequency (Fig. 11c).
#pragma once

#include <functional>
#include <string>

#include "http/message.hpp"
#include "net/tcp.hpp"
#include "obs/observer.hpp"
#include "sim/service_queue.hpp"

namespace ape::http {

struct ServiceCost {
  sim::Duration base{sim::microseconds(300)};
  sim::Duration per_kilobyte{sim::microseconds(10)};

  [[nodiscard]] sim::Duration for_bytes(std::size_t bytes) const noexcept {
    return base + sim::Duration{per_kilobyte.count() *
                                static_cast<std::int64_t>(bytes / 1024)};
  }
};

class HttpServer {
 public:
  using Responder = std::function<void(HttpResponse)>;
  using Handler = std::function<void(const HttpRequest&, Responder)>;

  HttpServer(net::TcpTransport& tcp, net::NodeId node, net::Port port, sim::ServiceQueue& cpu,
             ServiceCost cost = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Every request goes to `handler`; without one the server answers 404.
  void set_fallback(Handler handler);

  // Profiling tag for the CPU-charge event in front of dispatch; owning
  // runtimes override the generic default with their shard owner's kind
  // (e.g. APE_EVT("ap.http.serve")) so per-kind cost lands on the right
  // owner in the shard-load projection.
  void set_serve_kind(sim::KindId kind) noexcept { serve_kind_ = kind; }

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::size_t requests_served() const noexcept { return requests_; }

 private:
  net::TcpTransport& tcp_;
  net::NodeId node_;
  net::Port port_;
  sim::ServiceQueue& cpu_;
  ServiceCost cost_;
  sim::KindId serve_kind_;
  Handler fallback_;
  std::size_t requests_ = 0;
};

struct FetchTiming {
  sim::Duration connect{0};     // TCP initiation -> established
  sim::Duration first_byte{0};  // TCP initiation -> response arrival
};

class HttpClient {
 public:
  // `observer` (nullable) and `component` label the http.fetch spans this
  // endpoint records for its owner ("client", "ap").
  HttpClient(net::TcpTransport& tcp, net::NodeId node, obs::Observer* observer = nullptr,
             std::string component = "");

  using FetchHandler = std::function<void(Result<HttpResponse>, FetchTiming)>;

  // One-shot fetch: connect, send, receive, close — matching the paper's
  // per-object retrieval measurement (TCP initiation to first byte read).
  //
  // Under a live `parent` (and a tracing observer) the fetch is one hop of
  // the request's trace (DESIGN.md §5f): it opens an "http.fetch" span
  // keyed by the request's base URL, stamps it into X-Ape-Trace (replacing
  // any inbound value, so the server parents under *this* hop), parents
  // the TCP handshake's "net.connect" under it, and closes it just before
  // `handler` runs.
  void fetch(net::Endpoint server, HttpRequest request, FetchHandler handler,
             const obs::TraceContext& parent = {});

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }

 private:
  net::TcpTransport& tcp_;
  net::NodeId node_;
  obs::Observer* observer_;
  std::string component_;
};

}  // namespace ape::http
