// DNS-Cache protocol inspector: builds the exact messages APE-CACHE puts
// on the wire (paper Fig. 8), hexdumps them, decodes them back, and walks
// through the three flag outcomes — a debugging/reference tool for anyone
// implementing the protocol against this library.
#include <cstdio>

#include "core/dns_cache_record.hpp"
#include "common/url_hash.hpp"
#include "dns/codec.hpp"

using namespace ape;

namespace {

void hexdump(const std::vector<std::uint8_t>& bytes) {
  for (std::size_t i = 0; i < bytes.size(); i += 16) {
    std::printf("  %04zx  ", i);
    for (std::size_t j = 0; j < 16; ++j) {
      if (i + j < bytes.size()) {
        std::printf("%02x ", bytes[i + j]);
      } else {
        std::printf("   ");
      }
      if (j == 7) std::printf(" ");
    }
    std::printf(" |");
    for (std::size_t j = 0; j < 16 && i + j < bytes.size(); ++j) {
      const std::uint8_t c = bytes[i + j];
      std::printf("%c", c >= 0x20 && c < 0x7F ? static_cast<char>(c) : '.');
    }
    std::printf("|\n");
  }
}

void describe(const dns::DnsMessage& message) {
  std::printf("  id=0x%04x %s rcode=%d questions=%zu answers=%zu additionals=%zu\n",
              message.header.id, message.is_query() ? "QUERY" : "RESPONSE",
              static_cast<int>(message.header.rcode), message.questions.size(),
              message.answers.size(), message.additionals.size());
  if (auto view = core::extract_dns_cache(message)) {
    std::printf("  DNS-Cache %s for %s:\n",
                view.value().is_request ? "REQUEST" : "RESPONSE",
                view.value().domain.to_string().c_str());
    for (const auto& entry : view.value().entries) {
      std::printf("    hash=%s flag=%s\n", hash_to_string(entry.hash).c_str(),
                  core::to_string(entry.flag));
    }
  }
}

}  // namespace

int main() {
  const auto domain = dns::DnsName::parse("api.movietrailer.app").value();
  const std::string url = "http://api.movietrailer.app/getThumbnail";
  const UrlHash hash = hash_url(url);

  std::printf("URL: %s\nbase-URL hash (FNV-1a 64): %s\n\n", url.c_str(),
              hash_to_string(hash).c_str());

  // --- the client's DNS-Cache request --------------------------------
  dns::DnsMessage request;
  request.header.id = 0x4150;  // "AP"
  request.header.rd = true;
  request.questions.push_back(dns::Question{domain, dns::RrType::A, dns::RrClass::In});
  request.additionals.push_back(
      core::make_cache_request_rr(domain, {{hash, core::CacheFlag::Delegation}}));

  const auto request_wire = dns::encode(request);
  std::printf("DNS-Cache REQUEST (%zu bytes on the wire):\n", request_wire.size());
  hexdump(request_wire);
  describe(dns::decode(request_wire).value());

  // --- the AP's three possible responses ------------------------------
  struct Case {
    core::CacheFlag flag;
    net::IpAddress ip;
    std::uint32_t ttl;
    const char* note;
  };
  const Case cases[] = {
      {core::CacheFlag::CacheHit, net::kDummyIp, 0,
       "object cached on the AP; dummy IP short-circuits upstream DNS"},
      {core::CacheFlag::Delegation, net::kDummyIp, 0,
       "AP will fetch on the client's behalf; client never needs the edge IP"},
      {core::CacheFlag::CacheMiss, net::IpAddress::from_octets(10, 1, 0, 2), 20,
       "block-listed object; client receives the real edge address"},
  };

  for (const Case& c : cases) {
    dns::DnsMessage response = dns::make_response_for(request, dns::Rcode::NoError);
    response.answers.push_back(dns::make_a_record(domain, c.ip, c.ttl));
    response.additionals.push_back(core::make_cache_response_rr(domain, {{hash, c.flag}}));
    const auto wire = dns::encode(response);
    std::printf("\nDNS-Cache RESPONSE, flag=%s (%zu bytes) — %s:\n",
                core::to_string(c.flag), wire.size(), c.note);
    hexdump(wire);
    describe(dns::decode(wire).value());
  }

  std::printf("\nRDATA layout per Fig. 8: repeated <HASH(URL):8 bytes big-endian,"
              " FLAG:1 byte>;\nTYPE=300, CLASS=REQUEST(0x%04x)/RESPONSE(0x%04x).\n",
              static_cast<unsigned>(dns::RrClass::CacheRequest),
              static_cast<unsigned>(dns::RrClass::CacheResponse));
  return 0;
}
