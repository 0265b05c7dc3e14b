#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/catalog.hpp"
#include "http/edge_server.hpp"
#include "http/endpoint.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "obs/observer.hpp"

namespace ape::http {
namespace {

// ------------------------------------------------------------------ Url

TEST(Url, ParsesFullForm) {
  const auto url = Url::parse("http://api.example.com:8080/path/obj?x=1&y=2");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().scheme, "http");
  EXPECT_EQ(url.value().host, "api.example.com");
  EXPECT_EQ(url.value().port, 8080);
  EXPECT_EQ(url.value().path, "/path/obj");
  EXPECT_EQ(url.value().query, "x=1&y=2");
}

TEST(Url, DefaultsSchemeAndPath) {
  const auto url = Url::parse("example.com");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().scheme, "http");
  EXPECT_EQ(url.value().path, "/");
  EXPECT_EQ(url.value().effective_port(), 80);
}

TEST(Url, HttpsDefaultPort) {
  const auto url = Url::parse("https://secure.example.com/x");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().effective_port(), 443);
}

TEST(Url, BaseStripsQuery) {
  // The paper's cache identity: "basic URLs without parameters" (IV-A).
  const auto url = Url::parse("http://h.com/obj?session=abc123");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().base(), "http://h.com/obj");
  EXPECT_EQ(url.value().to_string(), "http://h.com/obj?session=abc123");
}

TEST(Url, HostLowercased) {
  EXPECT_EQ(Url::parse("http://API.Example.COM/x").value().host, "api.example.com");
}

TEST(Url, RejectsMalformed) {
  EXPECT_FALSE(Url::parse("ftp://x.com/a").ok());
  EXPECT_FALSE(Url::parse("http:///nohost").ok());
  EXPECT_FALSE(Url::parse("http://h.com:notaport/").ok());
  EXPECT_FALSE(Url::parse("http://h.com:0/").ok());
  EXPECT_FALSE(Url::parse("").ok());
}

// std::stoul threw std::out_of_range on the port.
TEST(Url, OverlongPortIsOutOfRange) {
  Result<Url> url = make_error<Url>("not parsed");
  ASSERT_NO_THROW(url = Url::parse("http://a.com:99999999999999999999999/x"));
  ASSERT_FALSE(url.ok());
  EXPECT_EQ(url.error().message, "port out of range");
  EXPECT_FALSE(Url::parse("http://a.com:65536/x").ok());
  EXPECT_EQ(Url::parse("http://a.com:065535/x").value().port, 65535);
}

TEST(Url, OriginFormMatchesJoinedText) {
  for (const auto& [host, target] : std::vector<std::pair<std::string, std::string>>{
           {"a.com", "/x?q=1"}, {"A.com:81", "/"}, {"a.com", ""}, {"a.com/p", "/x"},
           {"a.com", "x/y"}, {"", "/x"}, {"a.com:", "/x"}, {"a.com:0", "/x"}}) {
    const auto direct = Url::from_origin_form(host, target);
    const auto joined = Url::parse("http://" + host + target);
    ASSERT_EQ(direct.ok(), joined.ok()) << host << target;
    if (direct.ok()) EXPECT_EQ(direct.value(), joined.value()) << host << target;
  }
}

TEST(Url, RoundTripEquality) {
  const auto a = Url::parse("http://h.com/obj?q=1").value();
  const auto b = Url::parse(a.to_string()).value();
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------- Messages

TEST(HttpMessage, RequestRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.url = Url::parse("http://h.example/obj?a=1").value();
  req.headers.emplace_back("X-Ape-Priority", "2");
  req.simulated_body_bytes = 12345;

  const auto parsed = HttpRequest::from_tcp(req.to_tcp());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, "GET");
  EXPECT_EQ(parsed.value().url.base(), "http://h.example/obj");
  EXPECT_EQ(parsed.value().url.query, "a=1");
  EXPECT_EQ(parsed.value().simulated_body_bytes, 12345u);
  ASSERT_NE(find_header(parsed.value().headers, "X-Ape-Priority"), nullptr);
  EXPECT_EQ(*find_header(parsed.value().headers, "X-Ape-Priority"), "2");
}

TEST(HttpMessage, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.headers.emplace_back("X-Cache", "AP-HIT");
  resp.body = "inline";
  resp.simulated_body_bytes = 5000;

  const auto parsed = HttpResponse::from_tcp(resp.to_tcp());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 200);
  EXPECT_EQ(parsed.value().body, "inline");
  EXPECT_EQ(parsed.value().total_body_bytes(), 5006u);
  EXPECT_TRUE(parsed.value().ok());
}

TEST(HttpMessage, WireSizeIncludesSimulatedBody) {
  HttpResponse small = make_status_response(200);
  HttpResponse big = make_status_response(200);
  big.simulated_body_bytes = 100'000;
  EXPECT_GT(big.to_tcp().wire_size(), small.to_tcp().wire_size() + 99'000);
}

TEST(HttpMessage, FindHeaderIsCaseInsensitive) {
  Headers headers{{"Content-Type", "text/plain"}};
  EXPECT_NE(find_header(headers, "content-type"), nullptr);
  EXPECT_EQ(find_header(headers, "missing"), nullptr);
}

TEST(HttpMessage, FromTcpRejectsGarbage) {
  net::TcpMessage junk;
  junk.bytes = {0x01, 0x02, 0x03};
  EXPECT_FALSE(HttpRequest::from_tcp(junk).ok());
  EXPECT_FALSE(HttpResponse::from_tcp(junk).ok());
}

net::TcpMessage wire_text(std::string_view text) {
  net::TcpMessage msg;
  msg.bytes.assign(text.begin(), text.end());
  return msg;
}

// std::stoull threw std::invalid_argument on these, out of the simulator.
TEST(HttpMessage, NonNumericSimBodyIsAnError) {
  Result<HttpRequest> req = make_error<HttpRequest>("not parsed");
  ASSERT_NO_THROW(req = HttpRequest::from_tcp(
                      wire_text("GET /x HTTP/1.1\r\nHost: a.com\r\nX-Sim-Body: zz\r\n\r\n")));
  EXPECT_FALSE(req.ok());
  Result<HttpResponse> resp = make_error<HttpResponse>("not parsed");
  ASSERT_NO_THROW(resp = HttpResponse::from_tcp(
                      wire_text("HTTP/1.1 200 OK\r\nX-Sim-Body: zz\r\n\r\n")));
  EXPECT_FALSE(resp.ok());
}

// ...and std::out_of_range on this one.
TEST(HttpMessage, OverlongSimBodyIsAnError) {
  Result<HttpRequest> req = make_error<HttpRequest>("not parsed");
  ASSERT_NO_THROW(req = HttpRequest::from_tcp(wire_text(
                      "GET /x HTTP/1.1\r\nX-Sim-Body: 123456789012345678901234567\r\n\r\n")));
  EXPECT_FALSE(req.ok());
}

TEST(HttpMessage, PartlyNumericSimBodyIsAnError) {
  // std::stoull read "12" out of these; the whole value must be a number.
  const std::string head = "HTTP/1.1 200 OK\r\nX-Sim-Body: ";
  for (const char* value : {"12ab", " 12", "+12", "-1", ""}) {
    EXPECT_FALSE(HttpResponse::from_tcp(wire_text(head + value + "\r\n\r\n")).ok()) << value;
  }
  const auto ok = HttpResponse::from_tcp(wire_text(head + "12\r\n\r\n"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().simulated_body_bytes, 12u);
}

// The status is still read the way `istream >> int` read it: the leading
// [+-]digits after the version, then range-checked.
TEST(HttpMessage, StatusLineReadsLikeIstream) {
  for (const auto& [line, status] : std::vector<std::pair<std::string, int>>{
           {"HTTP/1.1 200 OK", 200}, {"HTTP/1.1 +204 x", 204}, {"HTTP/1.1 404Gone", 404},
           {"HTTP/1.1 \t0302", 302}, {"HTTP/1.1 99 Low", 0}, {"HTTP/1.1 600", 0},
           {"HTTP/1.1 -200", 0}, {"HTTP/1.1 ++200", 0}, {"HTTP/1.1", 0}, {"", 0}}) {
    const auto resp = HttpResponse::from_tcp(wire_text(line + "\r\n\r\n"));
    ASSERT_EQ(resp.ok(), status != 0) << line;
    if (resp.ok()) EXPECT_EQ(resp.value().status, status) << line;
  }
}

TEST(HttpMessage, HeaderIntTreatsMalformedLikeMissing) {
  const Headers headers{{"X-Ttl", "60"}, {"X-Bad", "6o"}, {"X-Big", "4294967296"}};
  EXPECT_EQ(header_int<std::uint32_t>(headers, "x-ttl").value_or(1), 60u);
  EXPECT_EQ(header_int<std::uint32_t>(headers, "X-Bad").value_or(1), 1u);
  EXPECT_EQ(header_int<std::uint32_t>(headers, "X-Big").value_or(1), 1u);
  EXPECT_EQ(header_int<std::uint32_t>(headers, "X-Missing").value_or(1), 1u);
  EXPECT_EQ(header_int<int>({{"P", "-2"}}, "P").value_or(1), -2);
}

TEST(HttpMessage, RequestUrlComesFromHostAndTarget) {
  const auto req = HttpRequest::from_tcp(
      wire_text("GET /obj?v=2 HTTP/1.1\r\nHost: App3.Example.com:8080\r\n\r\n"));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().url, Url::parse("http://app3.example.com:8080/obj?v=2").value());
  const auto no_host = HttpRequest::from_tcp(wire_text("GET /obj HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(no_host.ok());
  EXPECT_EQ(no_host.value().url.host, "unknown");
}

TEST(HttpMessage, StatusHelpers) {
  EXPECT_TRUE(make_status_response(204).ok());
  EXPECT_FALSE(make_status_response(404).ok());
  EXPECT_FALSE(make_status_response(502).ok());
}

// ------------------------------------------------------ servers/clients

struct HttpFixture : ::testing::Test {
  sim::Simulator sim;
  net::Topology topo;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::TcpTransport> tcp;
  net::NodeId client{}, server{};
  net::IpAddress server_ip = net::IpAddress::from_octets(10, 0, 0, 2);
  std::unique_ptr<sim::ServiceQueue> server_cpu;

  void SetUp() override {
    client = topo.add_node("client");
    server = topo.add_node("server");
    topo.add_link(client, server, net::LinkSpec{sim::milliseconds(5), 1e9});
    net = std::make_unique<net::Network>(sim, topo);
    net->assign_ip(client, net::IpAddress::from_octets(10, 0, 0, 1));
    net->assign_ip(server, server_ip);
    tcp = std::make_unique<net::TcpTransport>(*net);
    server_cpu = std::make_unique<sim::ServiceQueue>(sim, 2);
  }

  Result<HttpResponse> fetch(HttpClient& http, const std::string& url,
                             FetchTiming* timing = nullptr) {
    Result<HttpResponse> out = make_error<HttpResponse>("not called");
    HttpRequest req;
    req.url = Url::parse(url).value();
    http.fetch(net::Endpoint{server_ip, net::kHttpPort}, std::move(req),
               [&out, timing](Result<HttpResponse> r, FetchTiming t) {
                 out = std::move(r);
                 if (timing) *timing = t;
               });
    sim.run();
    return out;
  }
};

// A bad X-Sim-Body is a 400 at the server and an error at the client, not
// an exception out of the simulator.
TEST_F(HttpFixture, BadSimBodyIs400AtServerAndErrorAtClient) {
  HttpServer srv(*tcp, server, net::kHttpPort, *server_cpu);
  srv.set_fallback([](const HttpRequest&, HttpServer::Responder r) {
    r(make_status_response(200));
  });
  Result<net::TcpMessage> raw = make_error<net::TcpMessage>("not called");
  tcp->connect(client, net::Endpoint{server_ip, net::kHttpPort},
               [&raw](Result<net::TcpConnectionPtr> conn) {
                 ASSERT_TRUE(conn.ok());
                 net::TcpConnectionPtr c = std::move(conn.value());
                 net::TcpConnection& ref = *c;
                 ref.send_request(
                     wire_text("GET /x HTTP/1.1\r\nX-Sim-Body: zz\r\n\r\n"),
                     [&raw, c](Result<net::TcpMessage> r) { raw = std::move(r); });
               });
  sim.run();
  ASSERT_TRUE(raw.ok());
  const auto resp = HttpResponse::from_tcp(raw.value());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 400);

  constexpr net::Port kRawPort = 8081;
  tcp->listen(server, kRawPort,
              [](const net::TcpMessage&, net::Endpoint, net::TcpResponder respond) {
                respond(wire_text("HTTP/1.1 200 OK\r\nX-Sim-Body: 1e9\r\n\r\n"));
              });
  HttpClient http(*tcp, client);
  Result<HttpResponse> fetched = make_error<HttpResponse>("not called");
  HttpRequest req;
  req.url = Url::parse("http://o/x").value();
  http.fetch(net::Endpoint{server_ip, kRawPort}, std::move(req),
             [&fetched](Result<HttpResponse> r, FetchTiming) { fetched = std::move(r); });
  ASSERT_NO_THROW(sim.run());
  EXPECT_FALSE(fetched.ok());
}

TEST_F(HttpFixture, FallbackAndNoRoute) {
  HttpServer srv(*tcp, server, net::kHttpPort, *server_cpu);
  HttpClient http(*tcp, client);
  EXPECT_EQ(fetch(http, "http://s/missing").value().status, 404);
  srv.set_fallback([](const HttpRequest&, HttpServer::Responder r) {
    r(make_status_response(200, "fallback"));
  });
  EXPECT_EQ(fetch(http, "http://s/missing").value().body, "fallback");
}

TEST_F(HttpFixture, FetchTimingMeasuresConnectAndFirstByte) {
  HttpServer srv(*tcp, server, net::kHttpPort, *server_cpu);
  srv.set_fallback([](const HttpRequest&, HttpServer::Responder r) {
    r(make_status_response(200));
  });
  HttpClient http(*tcp, client);
  FetchTiming timing;
  ASSERT_TRUE(fetch(http, "http://s/x", &timing).ok());
  // Connect: one RTT = 10 ms.  First byte: two RTTs + service.
  EXPECT_EQ(timing.connect, sim::milliseconds(10));
  EXPECT_GE(timing.first_byte, sim::milliseconds(20));
  EXPECT_LT(timing.first_byte, sim::milliseconds(25));
}

TEST_F(HttpFixture, EdgeServesPreloadedAsHit) {
  EdgeCacheServer edge(*tcp, server, *server_cpu);
  ObjectSpec spec;
  spec.base_url = "http://app.example/obj";
  spec.size_bytes = 10'000;
  spec.ttl_seconds = 1200;
  spec.priority = 2;
  spec.app_id = 7;
  spec.extra_latency = sim::milliseconds(25);
  edge.host(spec);

  HttpClient http(*tcp, client);
  FetchTiming timing;
  // The query string is not part of the object's identity.
  const auto resp = fetch(http, "http://app.example/obj?token=zzz", &timing);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().simulated_body_bytes, 10'000u);
  EXPECT_EQ(*find_header(resp.value().headers, "X-Cache"), "HIT");
  EXPECT_EQ(*find_header(resp.value().headers, "X-Object-TTL"), "1200");
  EXPECT_EQ(*find_header(resp.value().headers, "X-Object-Priority"), "2");
  EXPECT_EQ(*find_header(resp.value().headers, "X-Object-App"), "7");
  EXPECT_EQ(edge.hits(), 1u);
  // A plain fetch is a warm hit: only a cache-fill pull (X-Origin-Pull)
  // pays the object's backend latency.
  EXPECT_LT(timing.first_byte, sim::milliseconds(25));
}

TEST_F(HttpFixture, EdgeMissWithoutUpstreamIs404) {
  EdgeCacheServer edge(*tcp, server, *server_cpu);
  HttpClient http(*tcp, client);
  EXPECT_EQ(fetch(http, "http://app.example/missing").value().status, 404);
  EXPECT_EQ(edge.misses(), 1u);
}

// Under a live parent the client endpoint is one traced hop: it opens
// http.fetch, replaces any inbound X-Ape-Trace with it, parents the TCP
// handshake under it and closes it before the handler runs.
TEST_F(HttpFixture, ClientTracesItsHopUnderALiveParent) {
  obs::Observer observer;
  observer.spans().set_enabled(true);
  tcp->set_observer(&observer);
  std::vector<std::string> seen;
  HttpServer srv(*tcp, server, net::kHttpPort, *server_cpu);
  srv.set_fallback([&seen](const HttpRequest& req, HttpServer::Responder r) {
    for (const auto& [name, value] : req.headers) {
      if (name == "X-Ape-Trace") seen.push_back(value);
    }
    r(make_status_response(200));
  });
  obs::SpanLog& log = observer.spans();
  const obs::TraceContext root = log.open_root("client.request", "client", "r", sim.now());

  HttpClient http(*tcp, client, &observer, "client");
  HttpRequest req;
  req.url = Url::parse("http://app.example/obj?token=zzz").value();
  req.headers.emplace_back("X-Ape-Trace", "99-99");  // stale inbound context
  bool fetch_closed_at_handler = false;
  http.fetch(net::Endpoint{server_ip, net::kHttpPort}, std::move(req),
             [&](Result<HttpResponse> r, FetchTiming) {
               ASSERT_TRUE(r.ok());
               fetch_closed_at_handler = log.spans().at(1).closed;
             },
             root);
  sim.run();

  ASSERT_EQ(log.size(), 3u);
  const obs::Span& fetch_span = log.spans()[1];
  const obs::Span& connect_span = log.spans()[2];
  EXPECT_EQ(fetch_span.name, "http.fetch");
  EXPECT_EQ(fetch_span.component, "client");
  EXPECT_EQ(fetch_span.key, "http://app.example/obj");
  EXPECT_EQ(fetch_span.parent, root.span);
  EXPECT_EQ(connect_span.name, "net.connect");
  EXPECT_EQ(connect_span.parent, fetch_span.id);
  EXPECT_TRUE(connect_span.closed);
  EXPECT_TRUE(fetch_closed_at_handler);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], obs::encode_trace_context({fetch_span.trace, fetch_span.id}));
}

// Without a live parent, or with spans off, the request goes out exactly
// as given and no span is recorded.
TEST_F(HttpFixture, ClientStaysUntracedWithoutParentOrSpans) {
  obs::Observer observer;
  tcp->set_observer(&observer);
  std::vector<Headers> seen;
  HttpServer srv(*tcp, server, net::kHttpPort, *server_cpu);
  srv.set_fallback([&seen](const HttpRequest& req, HttpServer::Responder r) {
    seen.push_back(req.headers);
    r(make_status_response(200));
  });
  HttpClient http(*tcp, client, &observer, "client");
  const auto send = [&](const obs::TraceContext& parent) {
    HttpRequest req;
    req.url = Url::parse("http://app.example/obj").value();
    req.headers.emplace_back("X-Ape-App", "3");
    http.fetch(net::Endpoint{server_ip, net::kHttpPort}, std::move(req),
               [](Result<HttpResponse> r, FetchTiming) { EXPECT_TRUE(r.ok()); }, parent);
    sim.run();
  };

  send(obs::TraceContext{7, 7});  // spans off: even a well-formed parent is inert
  observer.spans().set_enabled(true);
  send(obs::TraceContext{});  // spans on, null parent

  EXPECT_EQ(observer.spans().size(), 0u);
  ASSERT_EQ(seen.size(), 2u);
  for (const Headers& headers : seen) {
    EXPECT_EQ(find_trace_context_header(headers), nullptr);
    ASSERT_NE(find_header(headers, "X-Ape-App"), nullptr);
    EXPECT_EQ(*find_header(headers, "X-Ape-App"), "3");
  }
}

TEST_F(HttpFixture, ServiceCostScalesWithBytes) {
  ServiceCost cost;
  cost.base = sim::microseconds(100);
  cost.per_kilobyte = sim::microseconds(10);
  EXPECT_EQ(cost.for_bytes(0), sim::microseconds(100));
  EXPECT_EQ(cost.for_bytes(10 * 1024), sim::microseconds(200));
}

}  // namespace
}  // namespace ape::http
