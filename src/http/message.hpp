// HTTP/1.1-style messages over the simulated TCP transport.
//
// Headers and the request line are serialized as real bytes (they size the
// wire); bodies are modeled by size so a 500 kB thumbnail never has to be
// materialized.  A small inline `body` string is available for control
// payloads (delegation requests, tests).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "common/result.hpp"
#include "http/url.hpp"
#include "net/tcp.hpp"

namespace ape::http {

using Headers = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] const std::string* find_header(const Headers& headers, std::string_view name);

// The named header as an integer: an error when it is missing or is not
// exactly a base-10 integer that fits T, so a caller's value_or(default)
// treats a malformed header like a missing one.
template <std::integral T>
[[nodiscard]] Result<T> header_int(const Headers& headers, std::string_view name) {
  const std::string* value = find_header(headers, name);
  if (value == nullptr) return make_error<T>("missing header");
  return parse_int<T>(*value);
}

// Causal-trace context carrier (DESIGN.md §5f).  The header is real wire
// bytes, so callers must only set it when span tracing is enabled — the
// gate that keeps default runs byte-identical.
inline constexpr const char* kTraceContextHeader = "X-Ape-Trace";

// Replaces any existing trace-context header (a forwarder re-parents the
// propagated context under its own span, never passes the inbound one on).
void set_trace_context_header(Headers& headers, const std::string& encoded);
[[nodiscard]] const std::string* find_trace_context_header(const Headers& headers);

struct HttpRequest {
  std::string method = "GET";
  Url url;
  Headers headers;
  std::string body;                      // inline control payloads only
  std::size_t simulated_body_bytes = 0;  // modeled payload size

  [[nodiscard]] net::TcpMessage to_tcp() const;
  [[nodiscard]] static Result<HttpRequest> from_tcp(const net::TcpMessage& msg);
};

struct HttpResponse {
  int status = 200;
  Headers headers;
  std::string body;
  std::size_t simulated_body_bytes = 0;

  [[nodiscard]] bool ok() const noexcept { return status >= 200 && status < 300; }
  [[nodiscard]] std::size_t total_body_bytes() const noexcept {
    return body.size() + simulated_body_bytes;
  }

  [[nodiscard]] net::TcpMessage to_tcp() const;
  [[nodiscard]] static Result<HttpResponse> from_tcp(const net::TcpMessage& msg);
};

[[nodiscard]] HttpResponse make_status_response(int status, std::string reason = {});

}  // namespace ape::http
