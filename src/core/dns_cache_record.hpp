// The DNS-Cache resource record (paper Fig. 8).
//
//   <NAME>      hostname the lookup batches on
//   <TYPE>      300 (RrType::DnsCache)
//   <CLASS>     REQUEST | RESPONSE
//   <RDLENGTH>  byte size of RDATA
//   <RDATA>     list of <HASH(URL) : 8 bytes big-endian, FLAG : 1 byte>
//
// A REQUEST carries the hashes the client wants status for (flags unused,
// sent as 0); the RESPONSE carries the status of *every* URL the AP knows
// under the queried domain (the batching accommodation of Sec. IV-B3).
#pragma once

#include <vector>

#include "common/result.hpp"
#include "common/url_hash.hpp"
#include "dns/message.hpp"

namespace ape::core {

// Cache status flags (paper Sec. IV-B1).
enum class CacheFlag : std::uint8_t {
  Delegation = 0,  // unknown/expired: AP is willing to fetch-and-cache
  CacheHit = 1,    // stored on the AP, fetch it there
  CacheMiss = 2,   // block-listed: go straight to the edge
};

[[nodiscard]] const char* to_string(CacheFlag flag) noexcept;

struct CacheLookupEntry {
  UrlHash hash = 0;
  CacheFlag flag = CacheFlag::Delegation;

  friend bool operator==(const CacheLookupEntry&, const CacheLookupEntry&) = default;
};

// --- RR <-> typed view ---------------------------------------------------

[[nodiscard]] dns::ResourceRecord make_cache_request_rr(
    const dns::DnsName& domain, const std::vector<CacheLookupEntry>& entries);
[[nodiscard]] dns::ResourceRecord make_cache_response_rr(
    const dns::DnsName& domain, const std::vector<CacheLookupEntry>& entries);

struct DnsCacheView {
  bool is_request = false;
  dns::DnsName domain;
  std::vector<CacheLookupEntry> entries;
};

// Finds + parses the DNS-Cache RR in a message's Additional section.
// Returns an error when absent or malformed.
[[nodiscard]] Result<DnsCacheView> extract_dns_cache(const dns::DnsMessage& message);

// RDATA-level codec, exposed for fuzz/property tests.
[[nodiscard]] std::vector<std::uint8_t> encode_cache_rdata(
    const std::vector<CacheLookupEntry>& entries);
[[nodiscard]] Result<std::vector<CacheLookupEntry>> decode_cache_rdata(
    const std::vector<std::uint8_t>& rdata);

}  // namespace ape::core
