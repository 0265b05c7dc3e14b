#include "core/dns_cache_record.hpp"

#include "dns/codec.hpp"

namespace ape::core {

const char* to_string(CacheFlag flag) noexcept {
  switch (flag) {
    case CacheFlag::Delegation: return "Delegation";
    case CacheFlag::CacheHit: return "Cache-Hit";
    case CacheFlag::CacheMiss: return "Cache-Miss";
  }
  return "?";
}

namespace {
constexpr std::size_t kTupleBytes = 9;  // HASH(URL) : 8 bytes, FLAG : 1 byte
}  // namespace

std::vector<std::uint8_t> encode_cache_rdata(const std::vector<CacheLookupEntry>& entries) {
  dns::ByteWriter w;
  w.reserve(kTupleBytes * entries.size());
  for (const auto& e : entries) {
    w.u64(e.hash);
    w.u8(static_cast<std::uint8_t>(e.flag));
  }
  return std::move(w).take();
}

Result<std::vector<CacheLookupEntry>> decode_cache_rdata(
    const std::vector<std::uint8_t>& rdata) {
  if (rdata.size() % kTupleBytes != 0) {
    return make_error<std::vector<CacheLookupEntry>>("DNS-Cache RDATA not a tuple multiple");
  }
  dns::ByteReader r(rdata);
  std::vector<CacheLookupEntry> out;
  out.reserve(rdata.size() / kTupleBytes);
  while (r.remaining() > 0) {
    CacheLookupEntry e;
    auto hash = r.u64();
    auto flag = r.u8();
    if (!hash || !flag) {
      return make_error<std::vector<CacheLookupEntry>>("truncated DNS-Cache tuple");
    }
    if (flag.value() > static_cast<std::uint8_t>(CacheFlag::CacheMiss)) {
      return make_error<std::vector<CacheLookupEntry>>("unknown DNS-Cache flag");
    }
    e.hash = hash.value();
    e.flag = static_cast<CacheFlag>(flag.value());
    out.push_back(e);
  }
  return out;
}

namespace {
dns::ResourceRecord make_cache_rr(const dns::DnsName& domain, dns::RrClass rr_class,
                                  const std::vector<CacheLookupEntry>& entries) {
  dns::ResourceRecord rr;
  rr.name = domain;
  rr.type = dns::RrType::DnsCache;
  rr.rr_class = static_cast<std::uint16_t>(rr_class);
  rr.ttl = 0;  // cache status is point-in-time; never DNS-cache it
  rr.rdata = encode_cache_rdata(entries);
  return rr;
}
}  // namespace

dns::ResourceRecord make_cache_request_rr(const dns::DnsName& domain,
                                          const std::vector<CacheLookupEntry>& entries) {
  return make_cache_rr(domain, dns::RrClass::CacheRequest, entries);
}

dns::ResourceRecord make_cache_response_rr(const dns::DnsName& domain,
                                           const std::vector<CacheLookupEntry>& entries) {
  return make_cache_rr(domain, dns::RrClass::CacheResponse, entries);
}

Result<DnsCacheView> extract_dns_cache(const dns::DnsMessage& message) {
  const dns::ResourceRecord* rr = message.find_additional(dns::RrType::DnsCache);
  if (rr == nullptr) return make_error<DnsCacheView>("no DNS-Cache RR present");

  DnsCacheView view;
  view.domain = rr->name;
  if (rr->rr_class == static_cast<std::uint16_t>(dns::RrClass::CacheRequest)) {
    view.is_request = true;
  } else if (rr->rr_class == static_cast<std::uint16_t>(dns::RrClass::CacheResponse)) {
    view.is_request = false;
  } else {
    return make_error<DnsCacheView>("DNS-Cache RR with unknown CLASS");
  }

  auto entries = decode_cache_rdata(rr->rdata);
  if (!entries) return make_error<DnsCacheView>(entries.error().message);
  view.entries = std::move(entries.value());
  return view;
}

}  // namespace ape::core
