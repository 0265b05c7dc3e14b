// ape-lint: hot-path
#include "http/message.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "common/parse.hpp"

namespace ape::http {

namespace {

// ASCII case-insensitive compare (the classic-locale std::tolower, without
// the locale lookup).
bool iequals(std::string_view a, std::string_view b) noexcept {
  constexpr auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [&](char x, char y) { return lower(x) == lower(y); });
}

// Next '\n'-terminated line of `text` without its terminator and without
// one trailing '\r'; `text` advances past it.
std::string_view next_line(std::string_view& text) {
  const std::size_t nl = text.find('\n');
  std::string_view line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

// Views into the message bytes, except the copied-out headers.
struct ParsedHead {
  std::string_view start_line;
  Headers headers;
  std::size_t simulated_body = 0;
  std::string_view body;
};

Result<ParsedHead> parse_head(const net::TcpMessage& msg) {
  const std::string_view text(reinterpret_cast<const char*>(msg.bytes.data()),
                              msg.bytes.size());
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return make_error<ParsedHead>("missing header terminator");
  }

  std::string_view head = text.substr(0, head_end);
  if (head.empty()) return make_error<ParsedHead>("empty message");
  ParsedHead parsed;
  parsed.start_line = next_line(head);
  const auto lines = std::count(head.begin(), head.end(), '\n');
  parsed.headers.reserve(static_cast<std::size_t>(lines) + 1);
  while (!head.empty()) {
    const std::string_view line = next_line(head);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      return make_error<ParsedHead>("malformed header line");
    }
    const std::string_view key = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (iequals(key, "X-Sim-Body")) {
      const auto size = parse_int<std::size_t>(value);
      if (!size) {
        return make_error<ParsedHead>("malformed X-Sim-Body: " + size.error().message);
      }
      parsed.simulated_body = size.value();
    } else if (!iequals(key, "Content-Length")) {
      parsed.headers.emplace_back(key, value);
    }
  }
  parsed.body = text.substr(head_end + 4);
  return parsed;
}

using Field = std::pair<std::string_view, std::string_view>;

// Serializes one message into a buffer reserved once: the start line the
// caller puts, then `headers`, the implicit `host` of a request when set,
// Content-Length, X-Sim-Body and the inline body.
class HeadWriter {
 public:
  HeadWriter(std::size_t start_line_size, const Headers& headers, const Field* host,
             const std::string& body, std::size_t simulated_body)
      : headers_(headers), host_(host), body_(body), simulated_body_(simulated_body) {
    // Content-Length and X-Sim-Body with up to 20 digits each, plus the
    // CRLFs that end the start line and the head.
    std::size_t n = start_line_size + 2 * (16 + 20 + 2) + 4 + body.size();
    for (const auto& [k, v] : headers) n += k.size() + v.size() + 4;
    if (host != nullptr) n += host->first.size() + host->second.size() + 4;
    out_.reserve(n);
  }

  void put(std::string_view s) { out_.insert(out_.end(), s.begin(), s.end()); }

  template <typename Int>
  void put_number(Int v) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    out_.insert(out_.end(), buf, end);
  }

  net::TcpMessage finish() && {
    put("\r\n");
    for (const auto& [k, v] : headers_) put_header(k, v);
    if (host_ != nullptr) put_header(host_->first, host_->second);
    put("Content-Length: ");
    put_number(simulated_body_ + body_.size());
    put("\r\n");
    if (simulated_body_ > 0) {
      // Private header carrying the modeled (non-materialized) body size.
      put("X-Sim-Body: ");
      put_number(simulated_body_);
      put("\r\n");
    }
    put("\r\n");
    put(body_);
    net::TcpMessage msg;
    msg.bytes = std::move(out_);
    msg.simulated_body_bytes = simulated_body_;
    return msg;
  }

 private:
  void put_header(std::string_view k, std::string_view v) {
    put(k);
    put(": ");
    put(v);
    put("\r\n");
  }

  const Headers& headers_;
  const Field* host_;
  const std::string& body_;
  std::size_t simulated_body_;
  net::Payload out_;
};

}  // namespace

const std::string* find_header(const Headers& headers, std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

void set_trace_context_header(Headers& headers, const std::string& encoded) {
  for (auto& [k, v] : headers) {
    if (iequals(k, kTraceContextHeader)) {
      v = encoded;
      return;
    }
  }
  headers.emplace_back(kTraceContextHeader, encoded);
}

const std::string* find_trace_context_header(const Headers& headers) {
  return find_header(headers, kTraceContextHeader);
}

net::TcpMessage HttpRequest::to_tcp() const {
  // Host goes last, after the caller's headers, unless they carry one.
  const Field host{"Host", url.host};
  const bool add_host = find_header(headers, "Host") == nullptr;
  HeadWriter w(method.size() + url.path.size() + url.query.size() + 11, headers,
               add_host ? &host : nullptr, body, simulated_body_bytes);
  w.put(method);
  w.put(" ");
  w.put(url.path);
  if (!url.query.empty()) {
    w.put("?");
    w.put(url.query);
  }
  w.put(" HTTP/1.1");
  return std::move(w).finish();
}

Result<HttpRequest> HttpRequest::from_tcp(const net::TcpMessage& msg) {
  auto head = parse_head(msg);
  if (!head) return make_error<HttpRequest>(head.error().message);

  FieldReader line(head.value().start_line);
  std::string_view method, target, version;
  if (!(line.word(method) && line.word(target) && line.word(version))) {
    return make_error<HttpRequest>("malformed request line");
  }

  const std::string* host = find_header(head.value().headers, "Host");
  auto url = target.starts_with("http")
                 ? Url::parse(target)
                 : Url::from_origin_form(host ? std::string_view(*host) : "unknown", target);
  if (!url) return make_error<HttpRequest>("bad request target: " + url.error().message);
  HttpRequest req;
  req.method = std::string(method);
  req.url = std::move(url.value());
  req.headers = std::move(head.value().headers);
  req.body = std::string(head.value().body);
  req.simulated_body_bytes = head.value().simulated_body;
  return req;
}

net::TcpMessage HttpResponse::to_tcp() const {
  const std::string_view reason =
      status == 200 ? "OK" : status == 404 ? "Not Found" : "Status";
  HeadWriter w(9 + 11 + 1 + reason.size(), headers, nullptr, body, simulated_body_bytes);
  w.put("HTTP/1.1 ");
  w.put_number(status);
  w.put(" ");
  w.put(reason);
  return std::move(w).finish();
}

Result<HttpResponse> HttpResponse::from_tcp(const net::TcpMessage& msg) {
  auto head = parse_head(msg);
  if (!head) return make_error<HttpResponse>(head.error().message);

  // "<version> <status>...": like `istream >> version >> status`, the
  // status is the leading [+-]digits of what follows the version, so
  // "200OK" reads as 200.
  std::string_view line = head.value().start_line;
  const std::string_view version = next_field(line);
  std::string_view rest = skip_space(line);
  if (!rest.empty() && rest.front() == '+') rest.remove_prefix(1);
  int status = 0;
  const auto [end, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), status);
  if (version.empty() || ec != std::errc{} || status < 100 || status > 599) {
    return make_error<HttpResponse>("malformed status line");
  }
  HttpResponse resp;
  resp.status = status;
  resp.headers = std::move(head.value().headers);
  resp.body = std::string(head.value().body);
  resp.simulated_body_bytes = head.value().simulated_body;
  return resp;
}

HttpResponse make_status_response(int status, std::string reason) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(reason);
  return resp;
}

}  // namespace ape::http
