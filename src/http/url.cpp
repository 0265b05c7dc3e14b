// ape-lint: hot-path
#include "http/url.hpp"

#include <charconv>

#include "common/parse.hpp"

namespace ape::http {

namespace {

// ASCII only: the classic-locale std::tolower without the locale lookup.
std::string lowercase(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool all_digits(std::string_view text) {
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

void append_port(std::string& out, std::uint16_t port) {
  char buf[8];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, port);
  out += ':';
  out.append(buf, end);
}

// Everything after "scheme://": `authority` is host[:port], and
// `path_and_query` starts at the first '/' (empty when there is none).
Result<Url> parse_rest(Url url, std::string_view authority, std::string_view path_and_query) {
  if (authority.empty()) return make_error<Url>("missing host");

  std::string_view host = authority;
  if (const auto colon = authority.find(':'); colon != std::string_view::npos) {
    host = authority.substr(0, colon);
    const std::string_view port_text = authority.substr(colon + 1);
    if (port_text.empty() || !all_digits(port_text)) return make_error<Url>("invalid port");
    const auto port = parse_int<std::uint16_t>(port_text);
    if (!port || port.value() == 0) return make_error<Url>("port out of range");
    url.port = port.value();
  }
  if (host.empty()) return make_error<Url>("missing host");
  url.host = lowercase(host);

  if (path_and_query.empty()) {
    url.path = "/";
  } else if (const auto qmark = path_and_query.find('?'); qmark != std::string_view::npos) {
    url.path = std::string(path_and_query.substr(0, qmark));
    url.query = std::string(path_and_query.substr(qmark + 1));
  } else {
    url.path = std::string(path_and_query);
  }
  return url;
}

}  // namespace

Result<Url> Url::parse(std::string_view text) {
  Url url;
  std::string_view rest = text;

  if (const auto scheme_end = rest.find("://"); scheme_end != std::string_view::npos) {
    url.scheme = lowercase(rest.substr(0, scheme_end));
    if (url.scheme != "http" && url.scheme != "https") {
      return make_error<Url>("unsupported scheme: " + url.scheme);
    }
    rest.remove_prefix(scheme_end + 3);
  }

  const auto path_start = rest.find('/');
  if (path_start == std::string_view::npos) return parse_rest(std::move(url), rest, {});
  return parse_rest(std::move(url), rest.substr(0, path_start), rest.substr(path_start));
}

Result<Url> Url::from_origin_form(std::string_view host, std::string_view target) {
  // A '/' inside the host, or a target that does not start one, moves the
  // authority/path split away from the host/target seam: concatenate.
  if (host.find('/') != std::string_view::npos || (!target.empty() && target.front() != '/')) {
    return parse(std::string("http://").append(host).append(target));
  }
  return parse_rest(Url{}, host, target);
}

std::uint16_t Url::effective_port() const noexcept {
  if (port != 0) return port;
  return scheme == "https" ? 443 : 80;
}

std::string Url::to_string() const {
  std::string out = base();
  if (!query.empty()) out.append("?").append(query);
  return out;
}

std::string Url::base() const {
  std::string out;
  out.reserve(scheme.size() + 3 + host.size() + 6 + path.size());
  out.append(scheme).append("://").append(host);
  if (port != 0) append_port(out, port);
  out.append(path);
  return out;
}

}  // namespace ape::http
