// Object catalog.
//
// ObjectSpec is the system-wide description of a cacheable object: its base
// URL identity, byte size, TTL, developer priority, and the extra backend
// latency the paper's evaluation attaches to each object ("hosted on our
// edge server, with an added delay (retrieval latency)", Sec. V-A).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "sim/time.hpp"

namespace ape::http {

struct ObjectSpec {
  std::string base_url;            // cache identity (Url::base form)
  std::size_t size_bytes = 0;
  std::uint32_t ttl_seconds = 600;
  int priority = 1;                // 1 = low, 2 = high (paper Sec. IV-A)
  std::uint32_t app_id = 0;
  sim::Duration extra_latency{0};  // simulated backend distance
};

class ObjectCatalog {
 public:
  void add(ObjectSpec spec);
  [[nodiscard]] const ObjectSpec* find(const std::string& base_url) const;
  [[nodiscard]] std::size_t size() const noexcept { return by_url_.size(); }
  [[nodiscard]] std::vector<const ObjectSpec*> all() const;

 private:
  // Ordered: all() feeds catalog seeding and table benches, whose row order
  // must be canonical (ape-lint: unordered-iter).
  std::map<std::string, ObjectSpec> by_url_;
};

// Builds the standard 200 response for a catalog object (an edge hit).  It
// carries the object's TTL, priority and app as headers so downstream
// caches can ingest them.
[[nodiscard]] HttpResponse make_object_response(const ObjectSpec& spec);
// Validator used for conditional requests (If-None-Match / 304).
[[nodiscard]] std::string object_etag(const ObjectSpec& spec);

}  // namespace ape::http
