// URL hashing, the DNS-Cache RR codec (paper Fig. 8), the frequency
// tracker, and the declarative programming model.
#include <gtest/gtest.h>

#include "core/dns_cache_record.hpp"
#include "core/frequency_tracker.hpp"
#include "core/programming_model.hpp"
#include "common/url_hash.hpp"
#include "dns/codec.hpp"

namespace ape::core {
namespace {

// -------------------------------------------------------------- UrlHash

TEST(UrlHash, DeterministicAndCompileTime) {
  constexpr UrlHash h = hash_url("http://api.example.com/obj");
  EXPECT_EQ(h, hash_url("http://api.example.com/obj"));
  static_assert(hash_url("a") != hash_url("b"));
}

TEST(UrlHash, DifferentUrlsDiffer) {
  EXPECT_NE(hash_url("http://a.com/x"), hash_url("http://a.com/y"));
  EXPECT_NE(hash_url("http://a.com/x"), hash_url("http://b.com/x"));
}

TEST(UrlHash, EmptyIsOffsetBasis) {
  EXPECT_EQ(hash_url(""), 14695981039346656037ull);
}

TEST(UrlHash, ToStringIs16HexDigits) {
  const std::string text = hash_to_string(hash_url("http://x/y"));
  EXPECT_EQ(text.size(), 16u);
  EXPECT_EQ(text.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(UrlHash, ToStringZeroPadded) {
  EXPECT_EQ(hash_to_string(0x1), "0000000000000001");
  EXPECT_EQ(hash_to_string(0xFFFFFFFFFFFFFFFFull), "ffffffffffffffff");
}

// ------------------------------------------------------ DNS-Cache RDATA

TEST(DnsCacheRecord, RdataRoundTrip) {
  std::vector<CacheLookupEntry> entries{
      {hash_url("http://a/1"), CacheFlag::CacheHit},
      {hash_url("http://a/2"), CacheFlag::Delegation},
      {hash_url("http://a/3"), CacheFlag::CacheMiss},
  };
  const auto rdata = encode_cache_rdata(entries);
  EXPECT_EQ(rdata.size(), 27u);  // 3 x (8 + 1) bytes per Fig. 8
  const auto decoded = decode_cache_rdata(rdata);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), entries);
}

TEST(DnsCacheRecord, EmptyRdataIsValid) {
  const auto decoded = decode_cache_rdata({});
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(DnsCacheRecord, RejectsNonTupleMultiple) {
  EXPECT_FALSE(decode_cache_rdata(std::vector<std::uint8_t>(10, 0)).ok());
}

TEST(DnsCacheRecord, RejectsUnknownFlag) {
  std::vector<std::uint8_t> rdata(9, 0);
  rdata[8] = 7;  // flags are 0..2
  EXPECT_FALSE(decode_cache_rdata(rdata).ok());
}

TEST(DnsCacheRecord, RequestRrHasType300AndRequestClass) {
  const auto domain = dns::DnsName::parse("api.example.com").value();
  const auto rr = make_cache_request_rr(domain, {{42, CacheFlag::Delegation}});
  EXPECT_EQ(static_cast<std::uint16_t>(rr.type), 300u);
  EXPECT_EQ(rr.rr_class, static_cast<std::uint16_t>(dns::RrClass::CacheRequest));
  EXPECT_EQ(rr.ttl, 0u);
  EXPECT_EQ(rr.name, domain);
}

TEST(DnsCacheRecord, ExtractFromFullMessage) {
  const auto domain = dns::DnsName::parse("api.example.com").value();
  dns::DnsMessage msg;
  msg.header.qr = true;
  msg.additionals.push_back(
      make_cache_response_rr(domain, {{7, CacheFlag::CacheHit}, {9, CacheFlag::CacheMiss}}));

  // Survive a wire round trip too.
  const auto decoded = dns::decode(dns::encode(msg));
  ASSERT_TRUE(decoded.ok());
  const auto view = extract_dns_cache(decoded.value());
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view.value().is_request);
  EXPECT_EQ(view.value().domain, domain);
  ASSERT_EQ(view.value().entries.size(), 2u);
  EXPECT_EQ(view.value().entries[0].hash, 7u);
  EXPECT_EQ(view.value().entries[0].flag, CacheFlag::CacheHit);
}

TEST(DnsCacheRecord, ExtractFailsWithoutRr) {
  dns::DnsMessage msg;
  EXPECT_FALSE(extract_dns_cache(msg).ok());
}

TEST(DnsCacheRecord, ExtractFailsOnUnknownClass) {
  const auto domain = dns::DnsName::parse("x.com").value();
  dns::DnsMessage msg;
  auto rr = make_cache_request_rr(domain, {});
  rr.rr_class = 1;  // IN, not REQUEST/RESPONSE
  msg.additionals.push_back(rr);
  EXPECT_FALSE(extract_dns_cache(msg).ok());
}

TEST(DnsCacheRecord, FlagNames) {
  EXPECT_STREQ(to_string(CacheFlag::CacheHit), "Cache-Hit");
  EXPECT_STREQ(to_string(CacheFlag::CacheMiss), "Cache-Miss");
  EXPECT_STREQ(to_string(CacheFlag::Delegation), "Delegation");
}

// Property: arbitrary entry lists round-trip through the codec.
class DnsCacheRdataProperty : public ::testing::TestWithParam<int> {};

TEST_P(DnsCacheRdataProperty, RoundTrips) {
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9u + 1;
  std::vector<CacheLookupEntry> entries;
  for (int i = 0; i < GetParam(); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    entries.push_back(CacheLookupEntry{x, static_cast<CacheFlag>(x % 3)});
  }
  const auto decoded = decode_cache_rdata(encode_cache_rdata(entries));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), entries);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DnsCacheRdataProperty,
                         ::testing::Values(0, 1, 2, 5, 16, 64, 200));

// ---------------------------------------------------- FrequencyTracker

TEST(FrequencyTracker, UnknownAppIsZero) {
  FrequencyTracker t(0.7, sim::seconds(60.0));
  EXPECT_DOUBLE_EQ(t.frequency(1, sim::Time{}), 0.0);
}

TEST(FrequencyTracker, LiveCountBeforeFirstWindowCloses) {
  FrequencyTracker t(0.7, sim::seconds(60.0));
  t.record_request(1, sim::Time{sim::seconds(1.0)});
  t.record_request(1, sim::Time{sim::seconds(2.0)});
  EXPECT_DOUBLE_EQ(t.frequency(1, sim::Time{sim::seconds(3.0)}), 2.0);
}

TEST(FrequencyTracker, PaperEwmaAcrossWindows) {
  // Windows anchor at the app's first request (t=0 here), 60 s wide.
  FrequencyTracker t(0.7, sim::seconds(60.0));
  // Window [0, 60): 3 requests.
  for (int i = 0; i < 3; ++i) t.record_request(1, sim::Time{sim::seconds(10.0 * i)});
  // Window [60, 120): 5 requests.
  for (int i = 0; i < 5; ++i) {
    t.record_request(1, sim::Time{sim::seconds(61.0 + i)});
  }
  // After w1: R = 0.3*0 + 0.7*3 = 2.1.  After w2: R = 0.3*2.1 + 0.7*5 = 4.13.
  const double r = t.frequency(1, sim::Time{sim::seconds(121.0)});
  EXPECT_NEAR(r, 0.3 * (0.7 * 3.0) + 0.7 * 5.0, 1e-9);
}

TEST(FrequencyTracker, IdleWindowsDecayTowardZero) {
  FrequencyTracker t(0.7, sim::seconds(60.0));
  for (int i = 0; i < 10; ++i) t.record_request(1, sim::Time{sim::seconds(i * 6.0)});
  const double active = t.frequency(1, sim::Time{sim::seconds(61.0)});
  EXPECT_GT(active, 0.0);
  const double after_idle = t.frequency(1, sim::Time{sim::seconds(601.0)});
  EXPECT_LT(after_idle, active * 0.01);
}

TEST(FrequencyTracker, AppsAreIndependent) {
  FrequencyTracker t(0.7, sim::seconds(60.0));
  t.record_request(1, sim::Time{sim::seconds(1.0)});
  t.record_request(2, sim::Time{sim::seconds(1.0)});
  t.record_request(2, sim::Time{sim::seconds(2.0)});
  EXPECT_DOUBLE_EQ(t.frequency(1, sim::Time{sim::seconds(3.0)}), 1.0);
  EXPECT_DOUBLE_EQ(t.frequency(2, sim::Time{sim::seconds(3.0)}), 2.0);
  EXPECT_EQ(t.tracked_apps(), 2u);
}

TEST(FrequencyTracker, SteadyRateConverges) {
  FrequencyTracker t(0.7, sim::seconds(60.0));
  // 3 per minute for 30 minutes.
  for (int i = 0; i < 90; ++i) t.record_request(1, sim::Time{sim::seconds(i * 20.0)});
  EXPECT_NEAR(t.frequency(1, sim::Time{sim::seconds(1801.0)}), 3.0, 0.2);
}

// ----------------------------------------------------- programming model

TEST(ProgrammingModel, AnnotationsRegisterWithRuntime) {
  AnnotatedApp app("demo", 9);
  app.cacheable_field("movieId", "http://api.demo/id", 2, 30)
      .cacheable_field("thumb", "http://api.demo/thumb", 2, 60)
      .cacheable_field("plot", "http://api.demo/plot", 1, 30);
  EXPECT_EQ(app.annotation_count(), 3u);

  // A minimal runtime hosting nothing; registration is all we check.
  sim::Simulator sim;
  net::Topology topo;
  net::Network network(sim, topo);
  const auto node = topo.add_node("phone");
  network.assign_ip(node, net::IpAddress::from_octets(10, 0, 0, 1));
  net::TcpTransport tcp(network);
  ClientRuntime runtime(network, tcp, node, 40000, {});

  app.attach(runtime);
  EXPECT_EQ(runtime.cacheable_count(), 3u);
  const CacheableSpec* spec = runtime.find_cacheable("http://api.demo/id");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->priority, 2);
  EXPECT_EQ(spec->ttl_minutes, 30u);
  EXPECT_EQ(spec->app, 9u);
  EXPECT_EQ(spec->ttl_seconds(), 1800u);
}

TEST(ProgrammingModel, EffortComparisonFavorsAnnotations) {
  AnnotatedApp app("MovieTrailer", 1);
  for (int i = 0; i < 5; ++i) {
    app.cacheable_field("f" + std::to_string(i), "http://api/obj" + std::to_string(i), 1, 30);
  }
  const ProgrammingEffort effort = measure_effort(app, /*request_sites=*/10);
  EXPECT_EQ(effort.annotation_locs, 5u);
  EXPECT_EQ(effort.api_locs, 30u);
  EXPECT_TRUE(effort.rewrites_logic);
  EXPECT_LT(effort.annotation_locs, effort.api_locs);
}

}  // namespace
}  // namespace ape::core
