// URL parsing and the "base URL" identity APE-CACHE keys caches on.
//
// The paper's Cacheable `id` is "the basic URL without parameters"
// (Sec. IV-A): scheme + host + path, query string stripped.  Matching an
// outgoing request to a cacheable object compares base URLs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace ape::http {

struct Url {
  std::string scheme = "http";
  std::string host;
  std::uint16_t port = 0;  // 0 = scheme default
  std::string path = "/";
  std::string query;       // without '?'

  [[nodiscard]] static Result<Url> parse(std::string_view text);
  // The URL an origin-form request line names ("GET /a?b HTTP/1.1" with
  // "Host: x"): exactly parse("http://" + host + target), without building
  // that string on the common path.
  [[nodiscard]] static Result<Url> from_origin_form(std::string_view host,
                                                    std::string_view target);

  [[nodiscard]] std::uint16_t effective_port() const noexcept;
  [[nodiscard]] std::string to_string() const;
  // scheme://host[:port]path — the cache identity (query stripped).
  [[nodiscard]] std::string base() const;

  friend bool operator==(const Url&, const Url&) = default;
};

}  // namespace ape::http
