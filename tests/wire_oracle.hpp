// Reference wire codecs for the codec oracle and mutation tests: the DNS
// and HTTP codecs as they were before names moved to wire form and heads
// were parsed in place.  Names are vectors of label strings, decoding
// builds dotted text and re-parses it, compression keys a std::map on
// every dotted suffix, and HTTP heads go through std::istringstream.  The
// production codecs must produce the same bytes from the same message, and
// decode the same bytes to the same values wherever this oracle accepts
// without throwing.  Two inputs diverge on purpose (DESIGN.md §5a), and
// each has a switch here that turns the divergence on, so tests can state
// "production == oracle with the fix" exactly:
//   - a '.' inside a DNS wire label, which the oracle re-splits into more
//     labels (DotLabels::Split) and production rejects like any other
//     invalid octet (DotLabels::Reject);
//   - an X-Sim-Body value that std::stoull only partly reads ("12ab",
//     " 12", "+12", "-1"), or that overflows (SimBody::Stoull throws),
//     which production rejects (SimBody::Strict).
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "dns/codec.hpp"
#include "dns/message.hpp"
#include "http/message.hpp"

namespace ape::wire_oracle {

// ------------------------------------------------------------- DnsName

class DnsName {
 public:
  static Result<DnsName> parse(std::string_view text) {
    constexpr std::size_t kMaxLabel = 63;
    constexpr std::size_t kMaxName = 253;
    const auto valid_label_char = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
    };
    if (!text.empty() && text.back() == '.') text.remove_suffix(1);
    if (text.empty()) return DnsName{};  // the root name
    if (text.size() > kMaxName) return make_error<DnsName>("name too long");

    DnsName name;
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t dot = text.find('.', start);
      const std::size_t end = dot == std::string_view::npos ? text.size() : dot;
      const std::string_view label = text.substr(start, end - start);
      if (label.empty()) return make_error<DnsName>("empty label");
      if (label.size() > kMaxLabel) return make_error<DnsName>("label too long");
      if (!std::all_of(label.begin(), label.end(), valid_label_char)) {
        return make_error<DnsName>("invalid character in label");
      }
      std::string lowered(label);
      std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      name.labels_.push_back(std::move(lowered));
      if (dot == std::string_view::npos) break;
      start = dot + 1;
    }
    return name;
  }

  const std::vector<std::string>& labels() const noexcept { return labels_; }

  std::string to_string() const {
    if (labels_.empty()) return ".";
    std::string out;
    for (const auto& label : labels_) {
      if (!out.empty()) out += '.';
      out += label;
    }
    return out;
  }

  friend bool operator==(const DnsName&, const DnsName&) = default;

 private:
  std::vector<std::string> labels_;
};

struct Question {
  DnsName name;
  dns::RrType qtype = dns::RrType::A;
  dns::RrClass qclass = dns::RrClass::In;
};

struct ResourceRecord {
  DnsName name;
  dns::RrType type = dns::RrType::A;
  std::uint16_t rr_class = 0;
  std::uint32_t ttl = 0;
  std::vector<std::uint8_t> rdata;
};

struct DnsMessage {
  dns::Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;
};

// Production <-> oracle message conversion, through dotted text.
inline DnsName to_oracle(const dns::DnsName& name) {
  return DnsName::parse(name.empty() ? "" : name.to_string()).value();
}

inline dns::DnsName from_oracle(const DnsName& name) {
  return dns::DnsName::parse(name.labels().empty() ? "" : name.to_string()).value();
}

inline DnsMessage to_oracle(const dns::DnsMessage& m) {
  DnsMessage out;
  out.header = m.header;
  for (const auto& q : m.questions) {
    out.questions.push_back({to_oracle(q.name), q.qtype, q.qclass});
  }
  const auto section = [](const std::vector<dns::ResourceRecord>& in,
                          std::vector<ResourceRecord>& to) {
    for (const auto& rr : in) {
      to.push_back({to_oracle(rr.name), rr.type, rr.rr_class, rr.ttl, rr.rdata});
    }
  };
  section(m.answers, out.answers);
  section(m.authorities, out.authorities);
  section(m.additionals, out.additionals);
  return out;
}

inline dns::DnsMessage from_oracle(const DnsMessage& m) {
  dns::DnsMessage out;
  out.header = m.header;
  for (const auto& q : m.questions) {
    out.questions.push_back({from_oracle(q.name), q.qtype, q.qclass});
  }
  const auto section = [](const std::vector<ResourceRecord>& in,
                          std::vector<dns::ResourceRecord>& to) {
    for (const auto& rr : in) {
      to.push_back({from_oracle(rr.name), rr.type, rr.rr_class, rr.ttl, rr.rdata});
    }
  };
  section(m.answers, out.answers);
  section(m.authorities, out.authorities);
  section(m.additionals, out.additionals);
  return out;
}

// ---------------------------------------------------------- DNS codec

enum class DotLabels { Split, Reject };

namespace detail {

inline void u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }
inline void u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
inline void u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  u16(out, static_cast<std::uint16_t>(v >> 16));
  u16(out, static_cast<std::uint16_t>(v));
}

inline void write_name(std::vector<std::uint8_t>& w, const DnsName& name,
                       std::map<std::string, std::uint16_t>& offsets) {
  const auto& labels = name.labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::string suffix;
    for (std::size_t j = i; j < labels.size(); ++j) {
      if (!suffix.empty()) suffix += '.';
      suffix += labels[j];
    }
    if (auto it = offsets.find(suffix); it != offsets.end()) {
      u16(w, static_cast<std::uint16_t>(0xC000u | it->second));
      return;
    }
    if (w.size() <= 0x3FFF) {
      offsets.emplace(std::move(suffix), static_cast<std::uint16_t>(w.size()));
    }
    u8(w, static_cast<std::uint8_t>(labels[i].size()));
    w.insert(w.end(), labels[i].begin(), labels[i].end());
  }
  u8(w, 0);  // root
}

inline bool has_dot(std::span<const std::uint8_t> label) {
  return std::find(label.begin(), label.end(), '.') != label.end();
}

inline Result<DnsName> read_name(dns::ByteReader& r, DotLabels dots) {
  std::string dotted;
  std::size_t jumps = 0;
  constexpr std::size_t kMaxJumps = 32;
  std::size_t return_pos = 0;
  bool jumped = false;
  while (true) {
    auto len_r = r.u8();
    if (!len_r) return make_error<DnsName>(len_r.error().message);
    const std::uint8_t len = len_r.value();
    if ((len & 0xC0u) == 0xC0u) {
      auto low = r.u8();
      if (!low) return make_error<DnsName>(low.error().message);
      const std::size_t target = (static_cast<std::size_t>(len & 0x3Fu) << 8) | low.value();
      if (++jumps > kMaxJumps) return make_error<DnsName>("compression pointer loop");
      if (target >= r.data().size()) return make_error<DnsName>("compression pointer out of range");
      if (!jumped) {
        return_pos = r.position();
        jumped = true;
      }
      r.seek(target);
      continue;
    }
    if (len == 0) break;
    if ((len & 0xC0u) != 0) return make_error<DnsName>("reserved label type");
    auto label = r.bytes(len);
    if (!label) return make_error<DnsName>(label.error().message);
    if (dots == DotLabels::Reject && has_dot(label.value())) {
      return make_error<DnsName>("invalid character in label");
    }
    if (!dotted.empty()) dotted += '.';
    dotted.append(label.value().begin(), label.value().end());
  }
  if (jumped) r.seek(return_pos);
  return DnsName::parse(dotted);
}

inline std::uint16_t pack_flags(const dns::Header& h) {
  std::uint16_t f = 0;
  if (h.qr) f |= 0x8000u;
  f |= static_cast<std::uint16_t>((static_cast<std::uint16_t>(h.opcode) & 0xF) << 11);
  if (h.aa) f |= 0x0400u;
  if (h.tc) f |= 0x0200u;
  if (h.rd) f |= 0x0100u;
  if (h.ra) f |= 0x0080u;
  f |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.rcode) & 0xF);
  return f;
}

inline dns::Header unpack_flags(std::uint16_t id, std::uint16_t f) {
  dns::Header h;
  h.id = id;
  h.qr = (f & 0x8000u) != 0;
  h.opcode = static_cast<dns::Opcode>((f >> 11) & 0xF);
  h.aa = (f & 0x0400u) != 0;
  h.tc = (f & 0x0200u) != 0;
  h.rd = (f & 0x0100u) != 0;
  h.ra = (f & 0x0080u) != 0;
  h.rcode = static_cast<dns::Rcode>(f & 0xF);
  return h;
}

inline void write_rr(std::vector<std::uint8_t>& w, const ResourceRecord& rr,
                     std::map<std::string, std::uint16_t>& offsets) {
  write_name(w, rr.name, offsets);
  u16(w, static_cast<std::uint16_t>(rr.type));
  u16(w, rr.rr_class);
  u32(w, rr.ttl);
  u16(w, static_cast<std::uint16_t>(rr.rdata.size()));
  w.insert(w.end(), rr.rdata.begin(), rr.rdata.end());
}

inline Result<ResourceRecord> read_rr(dns::ByteReader& r, DotLabels dots) {
  ResourceRecord rr;
  auto name = read_name(r, dots);
  if (!name) return make_error<ResourceRecord>(name.error().message);
  rr.name = std::move(name.value());
  auto type = r.u16();
  if (!type) return make_error<ResourceRecord>(type.error().message);
  rr.type = static_cast<dns::RrType>(type.value());
  auto rr_class = r.u16();
  if (!rr_class) return make_error<ResourceRecord>(rr_class.error().message);
  rr.rr_class = rr_class.value();
  auto ttl = r.u32();
  if (!ttl) return make_error<ResourceRecord>(ttl.error().message);
  rr.ttl = ttl.value();
  auto rdlength = r.u16();
  if (!rdlength) return make_error<ResourceRecord>(rdlength.error().message);
  auto rdata = r.bytes(rdlength.value());
  if (!rdata) return make_error<ResourceRecord>(rdata.error().message);
  rr.rdata.assign(rdata.value().begin(), rdata.value().end());
  return rr;
}

}  // namespace detail

inline std::vector<std::uint8_t> encode(const DnsMessage& m) {
  std::vector<std::uint8_t> w;
  std::map<std::string, std::uint16_t> offsets;
  detail::u16(w, m.header.id);
  detail::u16(w, detail::pack_flags(m.header));
  detail::u16(w, static_cast<std::uint16_t>(m.questions.size()));
  detail::u16(w, static_cast<std::uint16_t>(m.answers.size()));
  detail::u16(w, static_cast<std::uint16_t>(m.authorities.size()));
  detail::u16(w, static_cast<std::uint16_t>(m.additionals.size()));
  for (const auto& q : m.questions) {
    detail::write_name(w, q.name, offsets);
    detail::u16(w, static_cast<std::uint16_t>(q.qtype));
    detail::u16(w, static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : m.answers) detail::write_rr(w, rr, offsets);
  for (const auto& rr : m.authorities) detail::write_rr(w, rr, offsets);
  for (const auto& rr : m.additionals) detail::write_rr(w, rr, offsets);
  return w;
}

inline Result<DnsMessage> decode(std::span<const std::uint8_t> wire,
                                 DotLabels dots = DotLabels::Split) {
  dns::ByteReader r(wire);
  DnsMessage m;
  auto id = r.u16();
  if (!id) return make_error<DnsMessage>("truncated header");
  auto flags = r.u16();
  if (!flags) return make_error<DnsMessage>("truncated header");
  m.header = detail::unpack_flags(id.value(), flags.value());
  auto qd = r.u16();
  auto an = r.u16();
  auto ns = r.u16();
  auto ar = r.u16();
  if (!qd || !an || !ns || !ar) return make_error<DnsMessage>("truncated header counts");
  for (std::uint16_t i = 0; i < qd.value(); ++i) {
    Question q;
    auto name = detail::read_name(r, dots);
    if (!name) return make_error<DnsMessage>("bad question name: " + name.error().message);
    q.name = std::move(name.value());
    auto qtype = r.u16();
    auto qclass = r.u16();
    if (!qtype || !qclass) return make_error<DnsMessage>("truncated question");
    q.qtype = static_cast<dns::RrType>(qtype.value());
    q.qclass = static_cast<dns::RrClass>(qclass.value());
    m.questions.push_back(std::move(q));
  }
  const auto read_section = [&r, dots](std::uint16_t count,
                                       std::vector<ResourceRecord>& out) -> Result<bool> {
    for (std::uint16_t i = 0; i < count; ++i) {
      auto rr = detail::read_rr(r, dots);
      if (!rr) return make_error<bool>(rr.error().message);
      out.push_back(std::move(rr.value()));
    }
    return true;
  };
  if (auto ok = read_section(an.value(), m.answers); !ok) {
    return make_error<DnsMessage>("bad answer");
  }
  if (auto ok = read_section(ns.value(), m.authorities); !ok) {
    return make_error<DnsMessage>("bad authority");
  }
  if (auto ok = read_section(ar.value(), m.additionals); !ok) {
    return make_error<DnsMessage>("bad additional");
  }
  return m;
}

inline std::vector<std::uint8_t> encode_cname_rdata(const DnsName& target) {
  std::vector<std::uint8_t> out;
  for (const auto& label : target.labels()) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
  }
  out.push_back(0);
  return out;
}

inline Result<DnsName> decode_cname_rdata(const std::vector<std::uint8_t>& rdata,
                                          DotLabels dots = DotLabels::Split) {
  std::string dotted;
  std::size_t pos = 0;
  while (true) {
    if (pos >= rdata.size()) return make_error<DnsName>("truncated CNAME RDATA");
    const std::uint8_t len = rdata[pos++];
    if (len == 0) break;
    if ((len & 0xC0u) != 0) return make_error<DnsName>("compressed CNAME RDATA unsupported");
    if (pos + len > rdata.size()) return make_error<DnsName>("truncated CNAME label");
    if (dots == DotLabels::Reject && detail::has_dot({rdata.data() + pos, len})) {
      return make_error<DnsName>("invalid character in label");
    }
    if (!dotted.empty()) dotted += '.';
    dotted.append(reinterpret_cast<const char*>(rdata.data() + pos), len);
    pos += len;
  }
  return DnsName::parse(dotted);
}

// --------------------------------------------------------- HTTP codec
// These throw where the old code threw: std::stoull on X-Sim-Body (unless
// SimBody::Strict) and std::stoul on a URL port.

enum class SimBody { Stoull, Strict };

namespace detail {

inline bool iequals(const std::string& a, const std::string& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](unsigned char x, unsigned char y) {
           return std::tolower(x) == std::tolower(y);
         });
}

inline const std::string* find_header(const http::Headers& headers, const std::string& name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

inline std::string serialize_headers(const http::Headers& headers, std::size_t simulated_body,
                                     std::size_t inline_body) {
  std::string out;
  for (const auto& [k, v] : headers) out += k + ": " + v + "\r\n";
  out += "Content-Length: " + std::to_string(simulated_body + inline_body) + "\r\n";
  if (simulated_body > 0) out += "X-Sim-Body: " + std::to_string(simulated_body) + "\r\n";
  out += "\r\n";
  return out;
}

struct ParsedHead {
  std::string start_line;
  http::Headers headers;
  std::size_t simulated_body = 0;
  std::string body;
};

inline Result<ParsedHead> parse_head(const net::TcpMessage& msg, SimBody sim_body) {
  const std::string text(msg.bytes.begin(), msg.bytes.end());
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return make_error<ParsedHead>("missing header terminator");
  }
  ParsedHead parsed;
  std::istringstream head(text.substr(0, head_end));
  if (!std::getline(head, parsed.start_line)) return make_error<ParsedHead>("empty message");
  if (!parsed.start_line.empty() && parsed.start_line.back() == '\r') {
    parsed.start_line.pop_back();
  }
  std::string line;
  while (std::getline(head, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return make_error<ParsedHead>("malformed header line");
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (iequals(key, "X-Sim-Body") && sim_body == SimBody::Strict) {
      const char* last = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), last, parsed.simulated_body);
      if (ec != std::errc{} || ptr != last) {
        return make_error<ParsedHead>("malformed X-Sim-Body");
      }
    } else if (iequals(key, "X-Sim-Body")) {
      parsed.simulated_body = std::stoull(value);
    } else if (!iequals(key, "Content-Length")) {
      parsed.headers.emplace_back(std::move(key), std::move(value));
    }
  }
  parsed.body = text.substr(head_end + 4);
  return parsed;
}

inline net::TcpMessage to_tcp_message(const std::string& start_line,
                                      const http::Headers& headers, const std::string& body,
                                      std::size_t simulated_body) {
  const std::string text =
      start_line + "\r\n" + serialize_headers(headers, simulated_body, body.size()) + body;
  net::TcpMessage msg;
  msg.bytes.assign(text.begin(), text.end());
  msg.simulated_body_bytes = simulated_body;
  return msg;
}

}  // namespace detail

inline Result<http::Url> parse_url(const std::string& text) {
  http::Url url;
  std::string_view rest{text};
  if (const auto scheme_end = rest.find("://"); scheme_end != std::string_view::npos) {
    url.scheme = std::string(rest.substr(0, scheme_end));
    std::transform(url.scheme.begin(), url.scheme.end(), url.scheme.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (url.scheme != "http" && url.scheme != "https") {
      return make_error<http::Url>("unsupported scheme: " + url.scheme);
    }
    rest.remove_prefix(scheme_end + 3);
  }
  const auto path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (authority.empty()) return make_error<http::Url>("missing host");
  if (const auto colon = authority.find(':'); colon != std::string_view::npos) {
    url.host = std::string(authority.substr(0, colon));
    const std::string_view port_text = authority.substr(colon + 1);
    if (port_text.empty() ||
        !std::all_of(port_text.begin(), port_text.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      return make_error<http::Url>("invalid port");
    }
    const unsigned long port = std::stoul(std::string(port_text));
    if (port == 0 || port > 65535) return make_error<http::Url>("port out of range");
    url.port = static_cast<std::uint16_t>(port);
  } else {
    url.host = std::string(authority);
  }
  std::transform(url.host.begin(), url.host.end(), url.host.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (url.host.empty()) return make_error<http::Url>("missing host");
  if (path_start == std::string_view::npos) {
    url.path = "/";
  } else {
    std::string_view path_and_query = rest.substr(path_start);
    if (const auto qmark = path_and_query.find('?'); qmark != std::string_view::npos) {
      url.path = std::string(path_and_query.substr(0, qmark));
      url.query = std::string(path_and_query.substr(qmark + 1));
    } else {
      url.path = std::string(path_and_query);
    }
  }
  return url;
}

inline net::TcpMessage to_tcp(const http::HttpRequest& req) {
  http::Headers with_host = req.headers;
  if (detail::find_header(with_host, "Host") == nullptr) {
    with_host.emplace_back("Host", req.url.host);
  }
  const std::string start = req.method + " " + req.url.path +
                            (req.url.query.empty() ? "" : "?" + req.url.query) + " HTTP/1.1";
  return detail::to_tcp_message(start, with_host, req.body, req.simulated_body_bytes);
}

inline net::TcpMessage to_tcp(const http::HttpResponse& resp) {
  const std::string start =
      "HTTP/1.1 " + std::to_string(resp.status) + " " +
      (resp.status == 200 ? "OK" : resp.status == 404 ? "Not Found" : "Status");
  return detail::to_tcp_message(start, resp.headers, resp.body, resp.simulated_body_bytes);
}

inline Result<http::HttpRequest> request_from_tcp(const net::TcpMessage& msg,
                                                   SimBody sim_body = SimBody::Stoull) {
  auto head = detail::parse_head(msg, sim_body);
  if (!head) return make_error<http::HttpRequest>(head.error().message);
  std::istringstream line(head.value().start_line);
  http::HttpRequest req;
  std::string target, version;
  if (!(line >> req.method >> target >> version)) {
    return make_error<http::HttpRequest>("malformed request line");
  }
  const std::string* host = detail::find_header(head.value().headers, "Host");
  const std::string url_text =
      target.starts_with("http") ? target : ("http://" + (host ? *host : "unknown") + target);
  auto url = parse_url(url_text);
  if (!url) return make_error<http::HttpRequest>("bad request target: " + url.error().message);
  req.url = std::move(url.value());
  req.headers = std::move(head.value().headers);
  req.body = std::move(head.value().body);
  req.simulated_body_bytes = head.value().simulated_body;
  return req;
}

inline Result<http::HttpResponse> response_from_tcp(const net::TcpMessage& msg,
                                                     SimBody sim_body = SimBody::Stoull) {
  auto head = detail::parse_head(msg, sim_body);
  if (!head) return make_error<http::HttpResponse>(head.error().message);
  std::istringstream line(head.value().start_line);
  std::string version;
  int status = 0;
  if (!(line >> version >> status) || status < 100 || status > 599) {
    return make_error<http::HttpResponse>("malformed status line");
  }
  http::HttpResponse resp;
  resp.status = status;
  resp.headers = std::move(head.value().headers);
  resp.body = std::move(head.value().body);
  resp.simulated_body_bytes = head.value().simulated_body;
  return resp;
}

}  // namespace ape::wire_oracle
