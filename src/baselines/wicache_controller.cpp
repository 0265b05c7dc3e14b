#include "baselines/wicache_controller.hpp"

#include <sstream>
#include <utility>

#include "cache/lru_policy.hpp"
#include "common/url_hash.hpp"

namespace ape::baselines {

namespace {
net::Payload to_payload(const std::string& text) {
  return net::Payload(text.begin(), text.end());
}
std::string to_text(const net::Payload& payload) {
  return std::string(payload.begin(), payload.end());
}
constexpr sim::Duration kControlServiceTime = sim::microseconds(200);
}  // namespace

// ------------------------------------------------------------- controller

WiCacheController::WiCacheController(net::Network& network, net::NodeId node,
                                     sim::ServiceQueue& cpu, net::Endpoint agent_control,
                                     net::IpAddress ap_http_ip, net::IpAddress edge_ip)
    : network_(network),
      node_(node),
      cpu_(cpu),
      agent_control_(agent_control),
      ap_http_ip_(ap_http_ip),
      edge_ip_(edge_ip) {
  network_.bind_udp(node_, kWiCacheControllerPort,
                    [this](const net::Datagram& d) { on_datagram(d); });
}

WiCacheController::~WiCacheController() {
  network_.unbind_udp(node_, kWiCacheControllerPort);
}

void WiCacheController::on_datagram(const net::Datagram& dgram) {
  std::istringstream in(to_text(dgram.payload));
  std::string verb;
  in >> verb;
  if (verb == "LOOKUP") {
    std::uint64_t seq = 0;
    std::string url;
    in >> seq >> url;
    const net::Endpoint client = dgram.source;
    cpu_.submit(kControlServiceTime,
                [this, seq, url, client] { handle_lookup(seq, url, client); },
                APE_EVT("controller.wicache.lookup"));
  } else if (verb == "ADD" || verb == "REMOVE") {
    std::string key;
    in >> key;
    cpu_.submit(kControlServiceTime, [this, verb, key] {
      if (verb == "ADD") {
        ap_keys_.insert(key);
        prefetch_inflight_.erase(key);
      } else {
        ap_keys_.erase(key);
      }
    }, APE_EVT("controller.wicache.membership"));
  }
}

void WiCacheController::handle_lookup(std::uint64_t seq, const std::string& url,
                                      net::Endpoint client) {
  ++lookups_;
  const auto parsed = http::Url::parse(url);
  const std::string key =
      parsed ? hash_to_string(hash_url(parsed.value().base())) : url;
  const std::string seq_text = std::to_string(seq);

  if (ap_keys_.contains(key)) {
    stats_.record_hit(1);
    network_.send_datagram(node_, kWiCacheControllerPort, client,
                           to_payload(seq_text + " AP\n"));
    return;
  }
  stats_.record_miss(1);
  network_.send_datagram(node_, kWiCacheControllerPort, client,
                         to_payload(seq_text + " EDGE " + edge_ip_.to_string() + "\n"));
  // Populate for next time, once per object.
  if (prefetch_inflight_.insert(key).second) {
    network_.send_datagram(node_, kWiCacheControllerPort, agent_control_,
                           to_payload("PREFETCH " + url + " " + edge_ip_.to_string()));
  }
}

// ------------------------------------------------------------------ agent

WiCacheApAgent::WiCacheApAgent(net::Network& network, net::TcpTransport& tcp,
                               net::NodeId node, sim::ServiceQueue& cpu,
                               std::size_t capacity_bytes, net::Endpoint controller)
    : network_(network),
      node_(node),
      cpu_(cpu),
      store_(capacity_bytes, std::make_unique<cache::LruPolicy>()),
      http_(tcp, node, kWiCacheAgentHttpPort, cpu),
      edge_client_(tcp, node),
      controller_(controller) {
  network_.bind_udp(node_, kWiCacheAgentControlPort,
                    [this](const net::Datagram& d) { on_control(d); });
  http_.set_serve_kind(APE_EVT("ap.wicache.agent_serve"));
  http_.set_fallback([this](const http::HttpRequest& req, http::HttpServer::Responder r) {
    serve(req, std::move(r));
  });
  store_.add_removal_listener([this](const cache::CacheEntry& entry, RemovalCause) {
    report("REMOVE", entry.key);
  });
}

WiCacheApAgent::~WiCacheApAgent() {
  network_.unbind_udp(node_, kWiCacheAgentControlPort);
}

void WiCacheApAgent::report(const char* action, UrlHash key) {
  const std::string message = std::string(action) + " " + hash_to_string(key);
  network_.send_datagram(node_, kWiCacheAgentControlPort, controller_,
                         net::Payload(message.begin(), message.end()));
}

void WiCacheApAgent::on_control(const net::Datagram& dgram) {
  std::istringstream in(std::string(dgram.payload.begin(), dgram.payload.end()));
  std::string verb, url, ip_text;
  in >> verb >> url >> ip_text;
  if (verb != "PREFETCH") return;
  auto ip = net::IpAddress::parse(ip_text);
  if (!ip) return;
  cpu_.submit(kControlServiceTime, [this, url, ip = ip.value()] { prefetch(url, ip); },
              APE_EVT("ap.wicache.prefetch"));
}

void WiCacheApAgent::prefetch(const std::string& url, net::IpAddress edge_ip) {
  auto parsed = http::Url::parse(url);
  if (!parsed) return;
  const UrlHash key = hash_url(parsed.value().base());
  const sim::Time now = network_.simulator().now();
  if (store_.peek(key, now) != nullptr) return;

  http::HttpRequest req;
  req.url = std::move(parsed.value());
  req.headers.emplace_back("X-Origin-Pull", "1");  // cache fill = origin pull
  const sim::Time fetch_start = now;
  edge_client_.fetch(
      net::Endpoint{edge_ip, net::kHttpPort}, std::move(req),
      [this, key, fetch_start](Result<http::HttpResponse> result, http::FetchTiming) {
        if (!result || !result.value().ok()) return;
        const http::HttpResponse& resp = result.value();
        const sim::Time now2 = network_.simulator().now();

        cache::CacheEntry entry;
        entry.key = key;
        entry.size_bytes = resp.total_body_bytes();
        entry.fetch_latency = now2 - fetch_start;
        // A malformed header keeps the default, like a missing one.
        const std::uint32_t ttl =
            http::header_int<std::uint32_t>(resp.headers, "X-Object-TTL").value_or(600);
        entry.priority =
            http::header_int<int>(resp.headers, "X-Object-Priority").value_or(entry.priority);
        entry.app_id = http::header_int<std::uint32_t>(resp.headers, "X-Object-App")
                           .value_or(entry.app_id);
        entry.expires = now2 + sim::seconds(ttl);
        if (store_.insert(std::move(entry), now2) == cache::CacheStore::InsertOutcome::Inserted) {
          report("ADD", key);
        }
      });
}

void WiCacheApAgent::serve(const http::HttpRequest& request,
                           http::HttpServer::Responder respond) {
  const UrlHash key = hash_url(request.url.base());
  const sim::Time now = network_.simulator().now();
  const cache::CacheEntry* entry = store_.get(key, now);
  if (entry == nullptr) {
    respond(http::make_status_response(404, "not cached at AP"));
    return;
  }
  http::HttpResponse resp;
  resp.status = 200;
  resp.simulated_body_bytes = entry->size_bytes;
  resp.headers.emplace_back("X-Cache", "WICACHE-AP-HIT");
  respond(std::move(resp));
}

}  // namespace ape::baselines
