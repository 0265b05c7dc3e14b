// Mobile-app workload model.
//
// An app run is a DAG of HTTP requests (paper Fig. 3): nodes fetch remote
// objects, edges are data dependencies (getMovieID must finish before the
// four detail fetches start), and the run ends with a UI-composition step.
// App-level latency is the makespan of one run — the metric of Figs. 12/13.
#pragma once

#include <string>
#include <vector>

#include "core/client_runtime.hpp"
#include "http/catalog.hpp"
#include "sim/time.hpp"

namespace ape::workload {

struct RequestSpec {
  std::string name;                  // e.g. "getThumbnail"
  std::string url;                   // full URL (base = cache identity)
  std::size_t size_bytes = 10'000;
  std::uint32_t ttl_minutes = 10;
  int priority = 1;                  // set by critical-path analysis
  sim::Duration retrieval_latency{sim::milliseconds(30)};  // backend delay
  std::vector<std::size_t> depends_on;  // indices into AppSpec::requests
};

struct AppSpec {
  std::string name;
  core::AppId id = 0;
  std::string domain;               // all objects of an app share its API host
  std::vector<RequestSpec> requests;
  sim::Duration compose_time{sim::milliseconds(2)};  // UI render after fetches

  // The @Cacheable set this app's annotations declare.
  [[nodiscard]] std::vector<core::CacheableSpec> cacheables() const;
  // The objects to host on the edge/origin server.
  [[nodiscard]] std::vector<http::ObjectSpec> objects() const;

  [[nodiscard]] std::size_t total_object_bytes() const;
  // Validates the DAG: indices in range, acyclic.
  [[nodiscard]] bool valid() const;
};

// Expected standalone fetch time for a request — the weight used by the
// critical-path analysis (network transfer grows with object size).
[[nodiscard]] sim::Duration expected_fetch_time(const RequestSpec& request);

}  // namespace ape::workload
