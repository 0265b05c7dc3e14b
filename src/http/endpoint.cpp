#include "http/endpoint.hpp"

#include <utility>

namespace ape::http {

HttpServer::HttpServer(net::TcpTransport& tcp, net::NodeId node, net::Port port,
                       sim::ServiceQueue& cpu, ServiceCost cost)
    : tcp_(tcp),
      node_(node),
      port_(port),
      cpu_(cpu),
      cost_(cost),
      serve_kind_(APE_EVT("net.http.serve")) {
  tcp_.listen(node_, port_,
              [this](const net::TcpMessage& msg, net::Endpoint, net::TcpResponder respond) {
                auto request = HttpRequest::from_tcp(msg);
                if (!request) {
                  respond(make_status_response(400, request.error().message).to_tcp());
                  return;
                }
                // Charge CPU before the handler runs; the response is free to
                // arrive asynchronously afterwards.
                cpu_.submit(cost_.for_bytes(msg.wire_size()),
                            [this, req = std::move(request.value()),
                             respond = std::move(respond)]() mutable {
                              ++requests_;
                              Responder reply = [respond = std::move(respond)](
                                                    HttpResponse resp) {
                                respond(resp.to_tcp());
                              };
                              if (fallback_) {
                                fallback_(req, std::move(reply));
                              } else {
                                reply(make_status_response(404, "no route"));
                              }
                            },
                            serve_kind_);
              });
}

HttpServer::~HttpServer() {
  tcp_.stop_listening(node_, port_);
}

void HttpServer::set_fallback(Handler handler) {
  fallback_ = std::move(handler);
}

HttpClient::HttpClient(net::TcpTransport& tcp, net::NodeId node, obs::Observer* observer,
                       std::string component)
    : tcp_(tcp), node_(node), observer_(observer), component_(std::move(component)) {}

void HttpClient::fetch(net::Endpoint server, HttpRequest request, FetchHandler handler,
                       const obs::TraceContext& parent) {
  sim::Simulator& clock = tcp_.network().simulator();
  const sim::Time started = clock.now();

  obs::SpanLog* log = parent.valid() ? obs::tracing(observer_) : nullptr;
  obs::TraceContext span;
  if (log != nullptr) {
    span = log->open(parent, "http.fetch", component_, request.url.base(), started);
    if (span.valid()) {
      set_trace_context_header(request.headers, obs::encode_trace_context(span));
    }
    handler = obs::close_on_call(log, span, clock, std::move(handler));
  }
  obs::ScopedTraceContext ambient(log, span);  // -> net.connect
  tcp_.connect(node_, server,
               [&clock, started, req = std::move(request), handler = std::move(handler)](
                   Result<net::TcpConnectionPtr> conn) mutable {
                 if (!conn) {
                   FetchTiming timing;
                   timing.connect = clock.now() - started;
                   timing.first_byte = timing.connect;
                   handler(make_error<HttpResponse>(conn.error().message), timing);
                   return;
                 }
                 const sim::Duration connect_time = clock.now() - started;
                 net::TcpConnectionPtr connection = std::move(conn.value());
                 net::TcpConnection& ref = *connection;
                 ref.send_request(
                     req.to_tcp(),
                     // The connection handle is captured so it stays open for
                     // the duration of the exchange.
                     [&clock, started, connect_time, connection = std::move(connection),
                      handler = std::move(handler)](Result<net::TcpMessage> response) mutable {
                       FetchTiming timing;
                       timing.connect = connect_time;
                       timing.first_byte = clock.now() - started;
                       connection->close();
                       if (!response) {
                         handler(make_error<HttpResponse>(response.error().message), timing);
                         return;
                       }
                       auto parsed = HttpResponse::from_tcp(response.value());
                       if (!parsed) {
                         handler(make_error<HttpResponse>(parsed.error().message), timing);
                         return;
                       }
                       handler(std::move(parsed.value()), timing);
                     });
               });
}

}  // namespace ape::http
