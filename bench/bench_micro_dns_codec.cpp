// Microbenchmarks: DNS wire codec throughput (encode/decode, with and
// without the DNS-Cache RR) — the per-query CPU work the AP's dnsmasq
// replacement performs on every lookup.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "core/dns_cache_record.hpp"
#include "common/url_hash.hpp"
#include "dns/codec.hpp"

namespace {

using namespace ape;

dns::DnsMessage make_query(std::size_t cache_entries) {
  dns::DnsMessage m;
  m.header.id = 0x1234;
  m.header.rd = true;
  const auto domain = dns::DnsName::parse("api.movietrailer.app").value();
  m.questions.push_back(dns::Question{domain, dns::RrType::A, dns::RrClass::In});
  if (cache_entries > 0) {
    std::vector<core::CacheLookupEntry> entries;
    for (std::size_t i = 0; i < cache_entries; ++i) {
      entries.push_back(core::CacheLookupEntry{
          hash_url("http://api.movietrailer.app/obj" + std::to_string(i)),
          core::CacheFlag::Delegation});
    }
    m.additionals.push_back(core::make_cache_request_rr(domain, entries));
  }
  return m;
}

dns::DnsMessage make_response(std::size_t answers) {
  dns::DnsMessage m = make_query(0);
  m.header.qr = true;
  const auto name = m.questions[0].name;
  for (std::size_t i = 0; i < answers; ++i) {
    m.answers.push_back(
        dns::make_a_record(name, net::IpAddress::from_octets(10, 0, 0, 1), 30));
  }
  return m;
}

void BM_EncodePlainQuery(benchmark::State& state) {
  const auto msg = make_query(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_EncodePlainQuery);

void BM_EncodeDnsCacheQuery(benchmark::State& state) {
  const auto msg = make_query(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_EncodeDnsCacheQuery)->Arg(1)->Arg(5)->Arg(20);

void BM_DecodeDnsCacheQuery(benchmark::State& state) {
  const auto wire = dns::encode(make_query(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_DecodeDnsCacheQuery)->Arg(1)->Arg(5)->Arg(20);

void BM_DecodeResponseWithCompression(benchmark::State& state) {
  const auto wire = dns::encode(make_response(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_DecodeResponseWithCompression)->Arg(1)->Arg(4)->Arg(16);

void BM_HashUrl(benchmark::State& state) {
  const std::string url = "http://api.movietrailer.app/getThumbnail";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_url(url));
  }
}
BENCHMARK(BM_HashUrl);

void BM_CacheRdataRoundTrip(benchmark::State& state) {
  std::vector<core::CacheLookupEntry> entries;
  for (int i = 0; i < state.range(0); ++i) {
    entries.push_back(core::CacheLookupEntry{static_cast<std::uint64_t>(i) * 7919u,
                                             core::CacheFlag::CacheHit});
  }
  for (auto _ : state) {
    auto rdata = core::encode_cache_rdata(entries);
    benchmark::DoNotOptimize(core::decode_cache_rdata(rdata));
  }
}
BENCHMARK(BM_CacheRdataRoundTrip)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

APE_MICRO_BENCH_MAIN("micro_dns_codec")
