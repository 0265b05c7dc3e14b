#include "core/client_runtime.hpp"

#include <memory>
#include <utility>

#include "core/trace_propagation.hpp"

namespace ape::core {

namespace {

// A recursive A query for `name`: the question every client lookup asks.
dns::DnsMessage a_query(const dns::DnsName& name) {
  dns::DnsMessage query;
  query.header.rd = true;
  query.questions.push_back(dns::Question{name, dns::RrType::A, dns::RrClass::In});
  return query;
}

// The DNS-Cache query: the A question plus one TYPE=300 RR asking about
// `hashes`.
dns::DnsMessage dns_cache_query(const dns::DnsName& domain,
                                const std::vector<UrlHash>& hashes) {
  dns::DnsMessage query = a_query(domain);
  std::vector<CacheLookupEntry> entries;
  entries.reserve(hashes.size());
  for (UrlHash h : hashes) entries.push_back(CacheLookupEntry{h, CacheFlag::Delegation});
  query.additionals.push_back(make_cache_request_rr(domain, entries));
  return query;
}

}  // namespace

const char* to_string(ClientRuntime::Source source) noexcept {
  switch (source) {
    case ClientRuntime::Source::ApCache: return "ap-cache";
    case ClientRuntime::Source::ApPeer: return "ap-peer";
    case ClientRuntime::Source::ApDelegated: return "ap-delegated";
    case ClientRuntime::Source::EdgeServer: return "edge";
    case ClientRuntime::Source::Unknown: return "unknown";
  }
  return "?";
}

ClientRuntime::ClientRuntime(net::Network& network, net::TcpTransport& tcp, net::NodeId node,
                             net::Port dns_port, Options options)
    : network_(network),
      tcp_(tcp),
      node_(node),
      options_(options),
      dns_(network, node, dns_port),
      http_(tcp, node, options_.observer, "client") {
  if (options_.observer != nullptr) {
    // Lazy handles on purpose: each instrument materialises in the export
    // at its first event, exactly like the by-name lookups these replace.
    obs::MetricsRegistry& m = options_.observer->metrics();
    hot_.fetches = {m, "client.fetches"};
    hot_.fetch_failures = {m, "client.fetch.failures"};
    hot_.fetch_ap_hit = {m, "client.fetch.ap_hit"};
    hot_.fetch_ap_peer = {m, "client.fetch.ap_peer"};
    hot_.fetch_ap_delegated = {m, "client.fetch.ap_delegated"};
    hot_.fetch_edge = {m, "client.fetch.edge"};
    hot_.fetch_unknown = {m, "client.fetch.unknown"};
    hot_.lookup_flag_reuse = {m, "client.lookup.flag_reuse"};
    hot_.bytes_received = {m, "client.bytes_received"};
    hot_.lookup_ms = {m, "client.lookup_ms", "ms"};
    hot_.retrieval_ms = {m, "client.retrieval_ms", "ms"};
    hot_.total_ms = {m, "client.total_ms", "ms"};
  }
}

void ClientRuntime::roam_to(net::Endpoint ap_dns, net::IpAddress ap_ip) {
  options_.ap_dns = ap_dns;
  options_.ap_ip = ap_ip;
  // domains_ kept on purpose (see header): flags learned from the previous
  // AP stay live until their DNS TTL expires.
}

void ClientRuntime::register_cacheable(CacheableSpec spec) {
  auto key = spec.id;
  registry_.insert_or_assign(std::move(key), std::move(spec));
}

const CacheableSpec* ClientRuntime::find_cacheable(const std::string& base_url) const {
  auto it = registry_.find(base_url);
  return it == registry_.end() ? nullptr : &it->second;
}

void ClientRuntime::query_ap(dns::DnsMessage query, const obs::TraceContext& parent,
                             dns::DnsClient::QueryHandler done) {
  obs::SpanLog* log = parent.valid() ? obs::tracing(options_.observer) : nullptr;
  if (log != nullptr) {
    const dns::DnsName& name = query.questions.front().name;
    const obs::TraceContext span =
        log->open(parent, "dns.query", "client", name.to_string(), network_.simulator().now());
    if (span.valid()) query.additionals.push_back(make_trace_context_rr(name, span));
    done = obs::close_on_call(log, span, network_.simulator(), std::move(done));
  }
  dns_.query(options_.ap_dns, std::move(query), std::move(done));
}

void ClientRuntime::finish(FetchHandler& handler, const obs::TraceContext& root,
                           FetchResult result) {
  if (obs::SpanLog* log = obs::tracing(options_.observer); log != nullptr) {
    log->close(root, network_.simulator().now());
  }
  hot_.fetches.add();
  if (!result.success) {
    hot_.fetch_failures.add();
  } else {
    switch (result.source) {
      case Source::ApCache: hot_.fetch_ap_hit.add(); break;
      case Source::ApPeer: hot_.fetch_ap_peer.add(); break;
      case Source::ApDelegated: hot_.fetch_ap_delegated.add(); break;
      case Source::EdgeServer: hot_.fetch_edge.add(); break;
      case Source::Unknown: hot_.fetch_unknown.add(); break;
    }
    if (result.lookup_from_cache) hot_.lookup_flag_reuse.add();
    hot_.bytes_received.add(result.bytes);
    hot_.lookup_ms.record(sim::to_millis(result.lookup_latency));
    hot_.retrieval_ms.record(sim::to_millis(result.retrieval_latency));
    hot_.total_ms.record(sim::to_millis(result.total));
  }
  handler(std::move(result));
}

// ------------------------------------------------------------------ fetch

void ClientRuntime::fetch(const std::string& url, FetchHandler handler) {
  auto parsed = http::Url::parse(url);
  if (!parsed) {
    finish(handler, {}, {.error = "bad URL: " + parsed.error().message});
    return;
  }
  const std::string base = parsed.value().base();
  const CacheableSpec* spec = find_cacheable(base);
  if (!options_.ape_enabled || spec == nullptr) {
    fetch_via_edge(url, std::move(handler));
    return;
  }

  http::Url target = std::move(parsed.value());
  const UrlHash hash = hash_url(base);
  const sim::Time start = network_.simulator().now();
  obs::TraceContext root;
  if (obs::SpanLog* log = obs::tracing(options_.observer); log != nullptr) {
    root = log->open_root("client.request", "client", "app:" + std::to_string(spec->app),
                          start);
  }

  // Fresh flags from a previous DNS-Cache response for this domain?
  if (auto it = domains_.find(target.host); it != domains_.end()) {
    if (it->second.expires > start) {
      const auto flag_it = it->second.flags.find(hash);
      // A URL the AP has not reported on yet defaults to Delegation (the
      // AP is always willing to fetch-and-cache an unseen object).
      const CacheFlag flag =
          flag_it == it->second.flags.end() ? CacheFlag::Delegation : flag_it->second;
      dispatch(std::move(target), *spec, flag, it->second.ip, start, sim::Duration{0}, true,
               root, std::move(handler));
      return;
    }
    domains_.erase(it);
  }

  auto domain = dns::DnsName::parse(target.host);
  if (!domain) {
    finish(handler, root, {.error = "bad hostname"});
    return;
  }

  network_.simulator().schedule_in(kDnsCacheBuildCost, [this, target = std::move(target), spec,
                                                        hash, start, root,
                                                        domain = std::move(domain.value()),
                                                        handler = std::move(
                                                            handler)]() mutable {
    dns::DnsMessage query = dns_cache_query(domain, {hash});
    query_ap(std::move(query), root,
             [this, target = std::move(target), domain = std::move(domain), spec, hash, start,
              root, handler = std::move(handler)](Result<dns::DnsMessage> response) mutable {
               const sim::Time now = network_.simulator().now();
               if (!response) {
                 // DNS-Cache lookup failed outright; degrade to the edge
                 // path (same trace root — the failed lookup stays part of
                 // this request's critical path).
                 resolve_edge(std::move(target), now, false, CacheFlag::CacheMiss, root,
                              std::move(handler));
                 return;
               }

               net::IpAddress ip = net::kDummyIp;
               std::uint32_t ttl = 0;
               if (auto addr = dns::StubResolver::extract_address(response.value(), domain);
                   addr) {
                 ip = addr.value().address;
                 ttl = addr.value().ttl;
               }

               CacheFlag flag = CacheFlag::Delegation;
               auto view = extract_dns_cache(response.value());
               const bool has_flags = view && !view.value().is_request;
               if (has_flags) {
                 for (const auto& e : view.value().entries) {
                   if (e.hash == hash) flag = e.flag;
                 }
               }
               // Only a real answer is reused within its TTL; the TTL-0
               // dummy (the usual answer) keeps no flag state.
               if (ttl > 0 && ip != net::kDummyIp) {
                 DomainState state;
                 state.ip = ip;
                 state.expires = now + sim::seconds(ttl);
                 if (has_flags) {
                   for (const auto& e : view.value().entries) state.flags[e.hash] = e.flag;
                 }
                 domains_[target.host] = std::move(state);
               }
               dispatch(std::move(target), *spec, flag, ip, start, now - start, false, root,
                        std::move(handler));
             });
  }, APE_EVT("client.dns.cache_build"));
}

void ClientRuntime::dispatch(http::Url target, const CacheableSpec& spec, CacheFlag flag,
                             net::IpAddress edge_ip, sim::Time start, sim::Duration lookup,
                             bool lookup_cached, const obs::TraceContext& root,
                             FetchHandler handler) {
  switch (flag) {
    case CacheFlag::CacheHit:
      fetch_from_ap(std::move(target), spec, /*delegate=*/false, edge_ip, start, lookup,
                    lookup_cached, flag, root, std::move(handler));
      return;
    case CacheFlag::Delegation:
      fetch_from_ap(std::move(target), spec, /*delegate=*/true, edge_ip, start, lookup,
                    lookup_cached, flag, root, std::move(handler));
      return;
    case CacheFlag::CacheMiss:
      fetch_from_edge(std::move(target), edge_ip, start, lookup, lookup_cached, flag, root,
                      std::move(handler));
      return;
  }
}

void ClientRuntime::fetch_from_ap(http::Url target, const CacheableSpec& spec, bool delegate,
                                  net::IpAddress edge_ip, sim::Time start,
                                  sim::Duration lookup, bool lookup_cached, CacheFlag flag,
                                  const obs::TraceContext& root, FetchHandler handler) {
  http::HttpRequest req;
  req.url = target;  // the target stays whole for the edge fallback
  req.headers.reserve(delegate ? 4 : 1);
  req.headers.emplace_back("X-Ape-App", std::to_string(spec.app));
  if (delegate) {
    req.headers.emplace_back("X-Ape-Delegate", "1");
    req.headers.emplace_back("X-Ape-Ttl", std::to_string(spec.ttl_seconds()));
    req.headers.emplace_back("X-Ape-Priority", std::to_string(spec.priority));
  }

  http_.fetch(
      net::Endpoint{options_.ap_ip, net::kHttpPort}, std::move(req),
      [this, target = std::move(target), edge_ip, start, lookup, lookup_cached, flag, root,
       handler = std::move(handler)](Result<http::HttpResponse> result,
                                     http::FetchTiming timing) mutable {
        if (!result || !result.value().ok()) {
          // Lookup/fetch race (evicted or expired in between), or the AP's
          // delegated fetch failed: fall back to the edge.
          fetch_from_edge(std::move(target), edge_ip, start, lookup, lookup_cached, flag,
                          root, std::move(handler));
          return;
        }
        FetchResult r;
        r.success = true;
        // The AP reports how it actually served the request: a delegation
        // that raced an earlier caching of the same object comes back as a
        // hit (X-Cache: AP-HIT), which matters for hit-ratio accounting.
        const std::string* served = http::find_header(result.value().headers, "X-Cache");
        const bool was_hit = served != nullptr && *served == "AP-HIT";
        const bool was_peer = served != nullptr && *served == "AP-PEER";
        r.source = was_hit    ? Source::ApCache
                   : was_peer ? Source::ApPeer
                              : Source::ApDelegated;
        r.flag = was_hit ? CacheFlag::CacheHit : flag;
        r.lookup_from_cache = lookup_cached;
        r.lookup_latency = lookup;
        r.retrieval_latency = timing.first_byte;
        r.total = network_.simulator().now() - start;
        r.bytes = result.value().total_body_bytes();
        finish(handler, root, std::move(r));
      },
      root);
}

void ClientRuntime::fetch_from_edge(http::Url target, net::IpAddress edge_ip, sim::Time start,
                                    sim::Duration lookup, bool lookup_cached, CacheFlag flag,
                                    const obs::TraceContext& root, FetchHandler handler) {
  if (edge_ip == net::kDummyIp || edge_ip.is_unspecified()) {
    // We never learned a real edge address (dummy-IP short circuit):
    // resolve regularly, then fetch.
    resolve_edge(std::move(target), start, lookup_cached, flag, root, std::move(handler));
    return;
  }

  http::HttpRequest req;
  req.url = std::move(target);
  http_.fetch(
      net::Endpoint{edge_ip, net::kHttpPort}, std::move(req),
      [this, start, lookup, lookup_cached, flag, root, handler = std::move(handler)](
          Result<http::HttpResponse> result, http::FetchTiming timing) mutable {
        FetchResult r;
        r.flag = flag;
        r.lookup_from_cache = lookup_cached;
        r.lookup_latency = lookup;
        r.retrieval_latency = timing.first_byte;
        r.total = network_.simulator().now() - start;
        if (!result) {
          r.error = result.error().message;
        } else if (!result.value().ok()) {
          r.error = "edge HTTP " + std::to_string(result.value().status);
        } else {
          r.success = true;
          r.source = Source::EdgeServer;
          r.bytes = result.value().total_body_bytes();
        }
        finish(handler, root, std::move(r));
      },
      root);
}

void ClientRuntime::fetch_via_edge(const std::string& url, FetchHandler handler) {
  const sim::Time start = network_.simulator().now();
  obs::TraceContext root;
  if (obs::SpanLog* log = obs::tracing(options_.observer); log != nullptr) {
    root = log->open_root("client.request", "client", url, start);
  }
  auto parsed = http::Url::parse(url);
  if (!parsed) {
    finish(handler, root, {.error = "bad URL: " + parsed.error().message});
    return;
  }
  resolve_edge(std::move(parsed.value()), start, false, CacheFlag::CacheMiss, root,
               std::move(handler));
}

void ClientRuntime::resolve_edge(http::Url target, sim::Time start, bool lookup_cached,
                                 CacheFlag flag, const obs::TraceContext& root,
                                 FetchHandler handler) {
  auto domain = dns::DnsName::parse(target.host);
  if (!domain) {
    finish(handler, root, {.error = "bad hostname"});
    return;
  }

  dns::DnsMessage query = a_query(domain.value());
  query_ap(std::move(query), root,
           [this, target = std::move(target), domain = std::move(domain.value()), start,
            lookup_cached, flag, root,
            handler = std::move(handler)](Result<dns::DnsMessage> response) mutable {
             const sim::Duration lookup = network_.simulator().now() - start;
             if (!response) {
               finish(handler, root,
                      {.lookup_latency = lookup,
                       .error = "DNS failed: " + response.error().message});
               return;
             }
             auto addr = dns::StubResolver::extract_address(response.value(), domain);
             if (!addr) {
               finish(handler, root,
                      {.lookup_latency = lookup, .error = "DNS: " + addr.error().message});
               return;
             }
             fetch_from_edge(std::move(target), addr.value().address, start, lookup,
                             lookup_cached, flag, root, std::move(handler));
           });
}

void ClientRuntime::fetch_standalone(const std::string& url, FetchHandler handler) {
  // Fig. 11b's "two standalone queries": a regular DNS query first, then a
  // separate DNS-Cache query, then the normal dispatch.
  auto parsed = http::Url::parse(url);
  if (!parsed) {
    finish(handler, {}, {.error = "bad URL: " + parsed.error().message});
    return;
  }
  const std::string base = parsed.value().base();
  const CacheableSpec* spec = find_cacheable(base);
  if (spec == nullptr) {
    fetch_via_edge(url, std::move(handler));
    return;
  }
  http::Url target = std::move(parsed.value());
  const UrlHash hash = hash_url(base);
  const sim::Time start = network_.simulator().now();
  obs::TraceContext root;
  if (obs::SpanLog* log = obs::tracing(options_.observer); log != nullptr) {
    root = log->open_root("client.request", "client", "app:" + std::to_string(spec->app),
                          start);
  }
  auto domain = dns::DnsName::parse(target.host);
  if (!domain) {
    finish(handler, root, {.error = "bad hostname"});
    return;
  }

  dns::DnsMessage plain = a_query(domain.value());
  query_ap(
      std::move(plain), root,
      [this, target = std::move(target), spec, hash, domain = std::move(domain.value()), start,
       root, handler = std::move(handler)](Result<dns::DnsMessage> first) mutable {
        net::IpAddress ip = net::kDummyIp;
        if (first) {
          if (auto addr = dns::StubResolver::extract_address(first.value(), domain)) {
            ip = addr.value().address;
          }
        }
        // Second, standalone cache query.
        dns::DnsMessage query = dns_cache_query(domain, {hash});
        query_ap(std::move(query), root,
                 [this, target = std::move(target), spec, hash, ip, start, root,
                  handler = std::move(handler)](Result<dns::DnsMessage> second) mutable {
                   const sim::Duration lookup = network_.simulator().now() - start;
                   CacheFlag flag = CacheFlag::Delegation;
                   if (second) {
                     if (auto view = extract_dns_cache(second.value());
                         view && !view.value().is_request) {
                       for (const auto& e : view.value().entries) {
                         if (e.hash == hash) flag = e.flag;
                       }
                     }
                   }
                   dispatch(std::move(target), *spec, flag, ip, start, lookup, false, root,
                            std::move(handler));
                 });
      });
}

void ClientRuntime::prefetch(const std::string& domain, PrefetchHandler done) {
  std::vector<std::string> urls;
  for (const auto& [base, spec] : registry_) {
    const auto parsed = http::Url::parse(base);
    if (!parsed) continue;
    if (domain.empty() || parsed.value().host == domain) urls.push_back(base);
  }
  if (urls.empty()) {
    done(0);
    return;
  }

  struct Progress {
    std::size_t remaining;
    std::size_t warmed = 0;
    PrefetchHandler done;
  };
  auto progress = std::make_shared<Progress>();
  progress->remaining = urls.size();
  progress->done = std::move(done);

  for (const auto& url : urls) {
    fetch(url, [progress](FetchResult result) {
      if (result.success && (result.source == Source::ApDelegated ||
                             result.source == Source::ApCache)) {
        ++progress->warmed;
      }
      if (--progress->remaining == 0) progress->done(progress->warmed);
    });
  }
}

// ---------------------------------------------------------- lookup probes

void ClientRuntime::dns_cache_lookup(const std::string& host,
                                     const std::vector<UrlHash>& hashes,
                                     LookupHandler handler) {
  auto domain = dns::DnsName::parse(host);
  if (!domain) {
    handler(make_error<dns::DnsMessage>("bad hostname"), sim::Duration{0});
    return;
  }
  const sim::Time start = network_.simulator().now();
  query_ap(dns_cache_query(domain.value(), hashes), {},
           [this, start, handler = std::move(handler)](Result<dns::DnsMessage> r) mutable {
             handler(std::move(r), network_.simulator().now() - start);
           });
}

void ClientRuntime::regular_dns_lookup(const std::string& host, LookupHandler handler) {
  auto domain = dns::DnsName::parse(host);
  if (!domain) {
    handler(make_error<dns::DnsMessage>("bad hostname"), sim::Duration{0});
    return;
  }
  const sim::Time start = network_.simulator().now();
  query_ap(a_query(domain.value()), {},
           [this, start, handler = std::move(handler)](Result<dns::DnsMessage> r) mutable {
             handler(std::move(r), network_.simulator().now() - start);
           });
}

}  // namespace ape::core
