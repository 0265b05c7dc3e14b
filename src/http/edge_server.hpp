// Edge cache server.
//
// Per the paper's evaluation assumption (Sec. V-A) the edge has "ample"
// capacity: objects preloaded into it are never evicted.  Client-facing
// requests are warm cache hits and cost pure network time (Fig. 11c's
// ~30 ms edge retrieval).  Cache-fill pulls — requests carrying the
// X-Origin-Pull header, issued by the APE-CACHE delegation path and the
// Wi-Cache prefetcher — additionally pay the object's configured backend
// latency (the paper's per-object "retrieval latency" of 20-50 ms),
// modeling the origin fetch behind the edge that a cold copy requires.  An
// object the edge does not host is a 404.
#pragma once

#include "http/catalog.hpp"
#include "http/endpoint.hpp"
#include "obs/observer.hpp"

namespace ape::http {

class EdgeCacheServer {
 public:
  EdgeCacheServer(net::TcpTransport& tcp, net::NodeId node, sim::ServiceQueue& cpu,
                  ServiceCost cost = {});

  // Preload: the object is served as a HIT from the start.
  void host(ObjectSpec spec);
  // Nullable span sink: edge.serve / origin.serve spans are parented under
  // the X-Ape-Trace context of the inbound request.
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

  [[nodiscard]] const ObjectCatalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t requests_served() const noexcept { return server_.requests_served(); }

 private:
  void handle(const HttpRequest& request, HttpServer::Responder respond);

  HttpServer server_;
  ObjectCatalog catalog_;
  sim::Simulator& sim_;
  obs::Observer* observer_ = nullptr;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace ape::http
