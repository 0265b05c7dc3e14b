#include "http/edge_server.hpp"

#include <utility>

namespace ape::http {

EdgeCacheServer::EdgeCacheServer(net::TcpTransport& tcp, net::NodeId node,
                                 sim::ServiceQueue& cpu, ServiceCost cost)
    : server_(tcp, node, net::kHttpPort, cpu, cost), sim_(tcp.network().simulator()) {
  server_.set_serve_kind(APE_EVT("edge.http.serve"));
  server_.set_fallback([this](const HttpRequest& req, HttpServer::Responder r) {
    handle(req, std::move(r));
  });
}

void EdgeCacheServer::host(ObjectSpec spec) {
  catalog_.add(std::move(spec));
}

void EdgeCacheServer::handle(const HttpRequest& request, HttpServer::Responder respond) {
  const std::string base = request.url.base();

  obs::SpanLog* log = obs::tracing(observer_);
  obs::TraceContext serve_span;
  if (log != nullptr) {
    if (const std::string* h = find_trace_context_header(request.headers)) {
      serve_span =
          log->open(obs::decode_trace_context(*h), "edge.serve", "edge", base, sim_.now());
    }
    respond = obs::close_on_call(log, serve_span, sim_, std::move(respond));
  }

  const ObjectSpec* spec = catalog_.find(base);
  if (spec == nullptr) {
    ++misses_;
    respond(make_status_response(404, "object not at edge"));
    return;
  }
  ++hits_;
  // Conditional request with a matching validator: 304, no body, and no
  // origin pull — the whole point of the revalidation extension.
  if (const auto* match = find_header(request.headers, "If-None-Match");
      match != nullptr && *match == object_etag(*spec)) {
    HttpResponse not_modified;
    not_modified.status = 304;
    not_modified.headers.emplace_back("X-Object-TTL", std::to_string(spec->ttl_seconds));
    not_modified.headers.emplace_back("ETag", object_etag(*spec));
    respond(std::move(not_modified));
    return;
  }
  const bool origin_pull = find_header(request.headers, "X-Origin-Pull") != nullptr;
  const sim::Duration delay = origin_pull ? spec->extra_latency : sim::Duration{0};
  // The modeled origin fetch behind the edge is the origin.serve span: it
  // is where a cache-fill pull's backend latency is actually spent.
  obs::TraceContext pull_span;
  if (log != nullptr && origin_pull) {
    pull_span = log->open(serve_span, "origin.serve", "origin", base, sim_.now());
  }
  sim_.schedule_in(delay, [this, spec, pull_span, respond = std::move(respond)] {
    if (obs::SpanLog* log = obs::tracing(observer_); log != nullptr) {
      log->close(pull_span, sim_.now());
    }
    respond(make_object_response(*spec));
  }, APE_EVT("edge.http.backend"));
}

}  // namespace ape::http
