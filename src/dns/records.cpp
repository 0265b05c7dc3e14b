// ape-lint: hot-path
#include "dns/message.hpp"

#include <string_view>

namespace ape::dns {

const ResourceRecord* DnsMessage::find_answer(RrType type) const noexcept {
  for (const auto& rr : answers) {
    if (rr.type == type) return &rr;
  }
  return nullptr;
}

const ResourceRecord* DnsMessage::find_additional(RrType type) const noexcept {
  for (const auto& rr : additionals) {
    if (rr.type == type) return &rr;
  }
  return nullptr;
}

std::vector<std::uint8_t> encode_a_rdata(net::IpAddress ip) {
  return {
      static_cast<std::uint8_t>(ip.v4 >> 24),
      static_cast<std::uint8_t>(ip.v4 >> 16),
      static_cast<std::uint8_t>(ip.v4 >> 8),
      static_cast<std::uint8_t>(ip.v4),
  };
}

Result<net::IpAddress> decode_a_rdata(const std::vector<std::uint8_t>& rdata) {
  if (rdata.size() != 4) return make_error<net::IpAddress>("A RDATA must be 4 bytes");
  return net::IpAddress{(std::uint32_t{rdata[0]} << 24) | (std::uint32_t{rdata[1]} << 16) |
                        (std::uint32_t{rdata[2]} << 8) | std::uint32_t{rdata[3]}};
}

std::vector<std::uint8_t> encode_cname_rdata(const DnsName& target) {
  // Uncompressed wire-format name; compression inside RDATA is legal for
  // CNAME but never required, and avoiding it keeps RDATA self-contained.
  const std::string_view wire = target.wire();
  std::vector<std::uint8_t> out;
  out.reserve(target.wire_length());
  out.assign(wire.begin(), wire.end());
  out.push_back(0);
  return out;
}

Result<DnsName> decode_cname_rdata(const std::vector<std::uint8_t>& rdata) {
  DnsName name;
  std::size_t pos = 0;
  while (true) {
    if (pos >= rdata.size()) return make_error<DnsName>("truncated CNAME RDATA");
    const std::uint8_t len = rdata[pos++];
    if (len == 0) break;
    if ((len & 0xC0u) != 0) return make_error<DnsName>("compressed CNAME RDATA unsupported");
    if (pos + len > rdata.size()) return make_error<DnsName>("truncated CNAME label");
    const std::string_view label(reinterpret_cast<const char*>(rdata.data() + pos), len);
    if (auto ok = name.append_label(label); !ok) {
      return make_error<DnsName>(ok.error().message);
    }
    pos += len;
  }
  return name;
}

ResourceRecord make_a_record(const DnsName& name, net::IpAddress ip, std::uint32_t ttl) {
  ResourceRecord rr;
  rr.name = name;
  rr.type = RrType::A;
  rr.rr_class = static_cast<std::uint16_t>(RrClass::In);
  rr.ttl = ttl;
  rr.rdata = encode_a_rdata(ip);
  return rr;
}

ResourceRecord make_cname_record(const DnsName& name, const DnsName& target, std::uint32_t ttl) {
  ResourceRecord rr;
  rr.name = name;
  rr.type = RrType::Cname;
  rr.rr_class = static_cast<std::uint16_t>(RrClass::In);
  rr.ttl = ttl;
  rr.rdata = encode_cname_rdata(target);
  return rr;
}

ResourceRecord make_opt_record(std::uint16_t udp_payload_size) {
  ResourceRecord rr;
  rr.name = DnsName{};  // root
  rr.type = RrType::Opt;
  rr.rr_class = udp_payload_size;  // OPT overloads CLASS as payload size
  rr.ttl = 0;                      // extended RCODE/flags, all zero
  return rr;
}

DnsMessage make_response_for(const DnsMessage& query, Rcode rcode) {
  DnsMessage resp;
  resp.header.id = query.header.id;
  resp.header.qr = true;
  resp.header.opcode = query.header.opcode;
  resp.header.rd = query.header.rd;
  resp.header.ra = true;
  resp.header.rcode = rcode;
  resp.questions = query.questions;
  return resp;
}

}  // namespace ape::dns
