#include "http/catalog.hpp"

#include <utility>

namespace ape::http {

void ObjectCatalog::add(ObjectSpec spec) {
  auto key = spec.base_url;
  by_url_.insert_or_assign(std::move(key), std::move(spec));
}

const ObjectSpec* ObjectCatalog::find(const std::string& base_url) const {
  auto it = by_url_.find(base_url);
  return it == by_url_.end() ? nullptr : &it->second;
}

std::vector<const ObjectSpec*> ObjectCatalog::all() const {
  std::vector<const ObjectSpec*> out;
  out.reserve(by_url_.size());
  for (const auto& [_, spec] : by_url_) out.push_back(&spec);
  return out;
}

HttpResponse make_object_response(const ObjectSpec& spec) {
  HttpResponse resp;
  resp.status = 200;
  resp.simulated_body_bytes = spec.size_bytes;
  resp.headers.emplace_back("X-Object-TTL", std::to_string(spec.ttl_seconds));
  resp.headers.emplace_back("X-Object-Priority", std::to_string(spec.priority));
  resp.headers.emplace_back("X-Object-App", std::to_string(spec.app_id));
  resp.headers.emplace_back("X-Cache", "HIT");
  resp.headers.emplace_back("ETag", object_etag(spec));
  return resp;
}

std::string object_etag(const ObjectSpec& spec) {
  // Objects are immutable for a given (url, size) in this model; a real
  // deployment would hash content.
  return "\"" + std::to_string(spec.size_bytes) + "-" +
         std::to_string(spec.base_url.size()) + "\"";
}

}  // namespace ape::http
