#include "http/edge_server.hpp"

#include <utility>

namespace ape::http {

EdgeCacheServer::EdgeCacheServer(net::TcpTransport& tcp, net::NodeId node,
                                 sim::ServiceQueue& cpu, ServiceCost cost)
    : server_(tcp, node, net::kHttpPort, cpu, cost),
      upstream_client_(tcp, node),
      sim_(tcp.network().simulator()) {
  server_.set_serve_kind(APE_EVT("edge.http.serve"));
  server_.set_fallback([this](const HttpRequest& req, net::Endpoint, HttpServer::Responder r) {
    handle(req, std::move(r));
  });
}

void EdgeCacheServer::host(ObjectSpec spec) {
  catalog_.add(std::move(spec));
}

obs::SpanLog* EdgeCacheServer::spans() const {
  return observer_ == nullptr ? nullptr : &observer_->spans();
}

void EdgeCacheServer::handle(const HttpRequest& request, HttpServer::Responder respond) {
  const std::string base = request.url.base();

  obs::TraceContext serve_span;
  if (obs::SpanLog* log = spans(); log != nullptr) {
    if (const std::string* h = find_trace_context_header(request.headers)) {
      serve_span =
          log->open(obs::decode_trace_context(*h), "edge.serve", "edge", base, sim_.now());
    }
    if (serve_span.valid()) {
      respond = [this, serve_span, respond = std::move(respond)](HttpResponse resp) mutable {
        spans()->close(serve_span, sim_.now());
        respond(std::move(resp));
      };
    }
  }

  if (const ObjectSpec* spec = catalog_.find(base); spec != nullptr) {
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
    if (obs::SpanLog* log = spans(); log != nullptr && origin_pull) {
      pull_span = log->open(serve_span, "origin.serve", "origin", base, sim_.now());
    }
    sim_.schedule_in(delay, [this, spec, pull_span, respond = std::move(respond)] {
      if (obs::SpanLog* log = spans(); log != nullptr) log->close(pull_span, sim_.now());
      respond(make_object_response(*spec, true));
    }, APE_EVT("edge.http.backend"));
    return;
  }

  ++misses_;
  if (!upstream_) {
    respond(make_status_response(404, "object not at edge"));
    return;
  }

  // Rewrite the request toward the origin, keep the path identity.
  HttpRequest upstream_req = request;
  obs::SpanLog* log = spans();
  obs::TraceContext fetch_span;
  if (log != nullptr) {
    fetch_span = log->open(serve_span, "http.fetch", "edge", base, sim_.now());
    if (fetch_span.valid()) {
      // Replace, never forward: the origin must parent under *this* hop.
      set_trace_context_header(upstream_req.headers, obs::encode_trace_context(fetch_span));
    }
  }
  obs::ScopedTraceContext ambient(log, fetch_span);  // -> net.connect
  upstream_client_.fetch(*upstream_, std::move(upstream_req),
                         [this, base, fetch_span,
                          respond = std::move(respond)](Result<HttpResponse> result,
                                                        FetchTiming) mutable {
                           if (obs::SpanLog* slog = spans(); slog != nullptr) {
                             slog->close(fetch_span, sim_.now());
                           }
                           if (!result || !result.value().ok()) {
                             respond(make_status_response(502, "origin fetch failed"));
                             return;
                           }
                           HttpResponse resp = std::move(result.value());
                           // Ingest into the (unbounded) edge catalog.
                           ObjectSpec spec;
                           spec.base_url = base;
                           spec.size_bytes = resp.total_body_bytes();
                           // A malformed header keeps the catalog default.
                           const Headers& h = resp.headers;
                           spec.ttl_seconds = header_int<std::uint32_t>(h, "X-Object-TTL")
                                                  .value_or(spec.ttl_seconds);
                           spec.priority =
                               header_int<int>(h, "X-Object-Priority").value_or(spec.priority);
                           spec.app_id = header_int<std::uint32_t>(h, "X-Object-App")
                                             .value_or(spec.app_id);
                           catalog_.add(std::move(spec));
                           respond(std::move(resp));
                         });
}

}  // namespace ape::http
