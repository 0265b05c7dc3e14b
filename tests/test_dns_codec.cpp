#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "core/dns_cache_record.hpp"
#include "core/trace_propagation.hpp"
#include "dns/codec.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "fleet/directory.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "wire_mutator.hpp"
#include "wire_oracle.hpp"

namespace ape::dns {
namespace {

// -------------------------------------------------------------- DnsName

TEST(DnsName, ParsesAndRoundTrips) {
  const auto name = DnsName::parse("www.Apple.COM");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value().to_string(), "www.apple.com");  // lowercased
  EXPECT_EQ(name.value().label_count(), 3u);
}

TEST(DnsName, TrailingDotAccepted) {
  EXPECT_EQ(DnsName::parse("example.com.").value().to_string(), "example.com");
}

TEST(DnsName, RootName) {
  const auto root = DnsName::parse("");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root.value().empty());
  EXPECT_EQ(root.value().to_string(), ".");
  EXPECT_EQ(root.value().wire_length(), 1u);
}

TEST(DnsName, RejectsEmptyLabel) {
  EXPECT_FALSE(DnsName::parse("a..b").ok());
  EXPECT_FALSE(DnsName::parse(".a").ok());
}

TEST(DnsName, RejectsOverlongLabel) {
  EXPECT_FALSE(DnsName::parse(std::string(64, 'x') + ".com").ok());
  EXPECT_TRUE(DnsName::parse(std::string(63, 'x') + ".com").ok());
}

TEST(DnsName, RejectsOverlongName) {
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcde.";
  long_name += "com";  // > 253 chars
  EXPECT_FALSE(DnsName::parse(long_name).ok());
}

TEST(DnsName, RejectsBadCharacters) {
  EXPECT_FALSE(DnsName::parse("sp ace.com").ok());
  EXPECT_FALSE(DnsName::parse("semi;colon.com").ok());
}

TEST(DnsName, SubdomainMatching) {
  const auto www = DnsName::parse("www.apple.com").value();
  const auto apex = DnsName::parse("apple.com").value();
  const auto other = DnsName::parse("apple.org").value();
  EXPECT_TRUE(www.is_subdomain_of(apex));
  EXPECT_TRUE(www.is_subdomain_of(www));
  EXPECT_FALSE(apex.is_subdomain_of(www));
  EXPECT_FALSE(www.is_subdomain_of(other));
  EXPECT_TRUE(www.is_subdomain_of(DnsName{}));  // everything under root
}

TEST(DnsName, WireLength) {
  // 3www5apple3com0 = 1+3 + 1+5 + 1+3 + 1 = 15.
  EXPECT_EQ(DnsName::parse("www.apple.com").value().wire_length(), 15u);
}

TEST(DnsName, EqualityIsCaseInsensitiveViaNormalization) {
  EXPECT_EQ(DnsName::parse("A.B.C").value(), DnsName::parse("a.b.c").value());
}

TEST(DnsName, WireFormIsLengthPrefixedLowercaseLabels) {
  EXPECT_EQ(DnsName::parse("WWW.Apple.com").value().wire(),
            std::string_view("\x03www\x05"
                             "apple\x03"
                             "com"));
  EXPECT_EQ(DnsName{}.wire(), "");
  EXPECT_EQ(DnsName::parse("www.apple.com").value().label_count(), 3u);
}

TEST(DnsName, HashIsFnvOverDottedLabels) {
  // The value every unordered map of names iterates by: FNV-1a over each
  // label followed by '.'.
  std::size_t expect = 1469598103934665603ull;
  for (char c : std::string_view("www.apple.com.")) {
    expect ^= static_cast<unsigned char>(c);
    expect *= 1099511628211ull;
  }
  EXPECT_EQ(DnsNameHash{}(DnsName::parse("www.Apple.com").value()), expect);
  EXPECT_EQ(DnsNameHash{}(DnsName{}), 1469598103934665603ull);
}

TEST(DnsName, AppendLabelRejectsWhatParseRejects) {
  for (const std::string label :
       {std::string("ok"), std::string("A-b_9"), std::string(63, 'x'), std::string(64, 'x'),
        std::string(), std::string("sp ace"), std::string("semi;colon"), std::string("a.b"),
        std::string("."), std::string("\xc3\xa9"), std::string(1, '\0')}) {
    DnsName name;
    const bool expect = !label.empty() && label.find('.') == std::string::npos &&
                        DnsName::parse(label).ok();
    EXPECT_EQ(name.append_label(label).ok(), expect) << label;
    EXPECT_EQ(name.label_count(), expect ? 1u : 0u);
  }
  // The 253-byte presentation limit, checked as the name grows.
  DnsName name;
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += (i == 0 ? "" : ".") + std::string("abcd");
    const bool appended = name.append_label("ABCD").ok();
    ASSERT_EQ(appended, DnsName::parse(text).ok()) << i;
    if (!appended) break;
    EXPECT_EQ(name, DnsName::parse(text).value());
  }
}

TEST(DnsName, SubdomainMatchesWholeLabelsOnly) {
  // A 45-byte label's length byte is '-', so this one-label name's wire
  // form ends in the suffix's wire bytes without sharing a label.
  const DnsName suffix = DnsName::parse(std::string(45, 'a')).value();
  const DnsName name = DnsName::parse("xxxx-" + std::string(45, 'a')).value();
  ASSERT_TRUE(name.wire().ends_with(suffix.wire()));
  EXPECT_FALSE(name.is_subdomain_of(suffix));
  EXPECT_TRUE(DnsName::parse("b." + std::string(45, 'a')).value().is_subdomain_of(suffix));
}

TEST(DnsName, HashConsistentWithEquality) {
  DnsNameHash hasher;
  EXPECT_EQ(hasher(DnsName::parse("X.Y").value()), hasher(DnsName::parse("x.y").value()));
}

// ------------------------------------------------------- message codec

DnsMessage sample_query() {
  DnsMessage m;
  m.header.id = 0xBEEF;
  m.header.rd = true;
  m.questions.push_back(
      Question{DnsName::parse("www.apple.com").value(), RrType::A, RrClass::In});
  return m;
}

TEST(Codec, QueryRoundTrip) {
  const DnsMessage original = sample_query();
  const auto wire = encode(original);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().header.id, 0xBEEF);
  EXPECT_TRUE(decoded.value().header.rd);
  EXPECT_FALSE(decoded.value().header.qr);
  ASSERT_EQ(decoded.value().questions.size(), 1u);
  EXPECT_EQ(decoded.value().questions[0], original.questions[0]);
}

TEST(Codec, ResponseRoundTripAllSections) {
  DnsMessage m = sample_query();
  m.header.qr = true;
  m.header.aa = true;
  m.header.rcode = Rcode::NoError;
  const auto name = DnsName::parse("www.apple.com").value();
  const auto cname = DnsName::parse("www.apple.com.edgekey.net").value();
  m.answers.push_back(make_cname_record(name, cname, 3600));
  m.answers.push_back(make_a_record(cname, net::IpAddress::from_octets(2, 3, 4, 5), 20));
  m.authorities.push_back(make_a_record(DnsName::parse("ns1.apple.com").value(),
                                        net::IpAddress::from_octets(6, 7, 8, 9), 300));
  m.additionals.push_back(make_opt_record(4096));

  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers, m.answers);
  EXPECT_EQ(decoded.value().authorities, m.authorities);
  EXPECT_EQ(decoded.value().additionals, m.additionals);
  EXPECT_TRUE(decoded.value().header.aa);
}

TEST(Codec, HeaderFlagsRoundTrip) {
  DnsMessage m = sample_query();
  m.header.qr = true;
  m.header.tc = true;
  m.header.ra = true;
  m.header.rcode = Rcode::NxDomain;
  m.header.opcode = Opcode::Status;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().header.qr);
  EXPECT_TRUE(decoded.value().header.tc);
  EXPECT_TRUE(decoded.value().header.ra);
  EXPECT_EQ(decoded.value().header.rcode, Rcode::NxDomain);
  EXPECT_EQ(decoded.value().header.opcode, Opcode::Status);
}

TEST(Codec, NameCompressionShrinksRepeatedNames) {
  DnsMessage m = sample_query();
  m.header.qr = true;
  const auto name = m.questions[0].name;
  for (int i = 0; i < 4; ++i) {
    m.answers.push_back(make_a_record(name, net::IpAddress::from_octets(1, 1, 1, 1), 60));
  }
  const auto wire = encode(m);
  // Each repeated name costs 2 pointer bytes instead of 15.
  // Uncompressed would be >= 12 + (15+4) + 4*(15+10+4); assert well below.
  EXPECT_LT(wire.size(), 120u);

  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  for (const auto& rr : decoded.value().answers) {
    EXPECT_EQ(rr.name, name);
  }
}

TEST(Codec, CompressionSharesSuffixes) {
  DnsMessage m;
  m.header.id = 1;
  m.questions.push_back(
      Question{DnsName::parse("a.example.com").value(), RrType::A, RrClass::In});
  m.questions.push_back(
      Question{DnsName::parse("b.example.com").value(), RrType::A, RrClass::In});
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().questions[0].name.to_string(), "a.example.com");
  EXPECT_EQ(decoded.value().questions[1].name.to_string(), "b.example.com");
}

TEST(Codec, DecodeRejectsTruncatedHeader) {
  const std::vector<std::uint8_t> tiny{0x12, 0x34, 0x01};
  EXPECT_FALSE(decode(tiny).ok());
}

TEST(Codec, DecodeRejectsTruncatedQuestion) {
  auto wire = encode(sample_query());
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Codec, DecodeRejectsCountsBeyondData) {
  auto wire = encode(sample_query());
  wire[5] = 9;  // QDCOUNT = 9, but only one question present
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Codec, DecodeRejectsCompressionLoop) {
  // Hand-built packet: header + question whose name points at itself.
  ByteWriter w;
  w.u16(1);     // id
  w.u16(0);     // flags
  w.u16(1);     // qd
  w.u16(0);
  w.u16(0);
  w.u16(0);
  w.u16(0xC00C);  // pointer to offset 12 = itself
  w.u16(1);       // qtype
  w.u16(1);       // qclass
  EXPECT_FALSE(decode(std::move(w).take()).ok());
}

TEST(Codec, DecodeRejectsPointerOutOfRange) {
  ByteWriter w;
  w.u16(1);
  w.u16(0);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  w.u16(0xC0FF);  // pointer to offset 255, beyond packet end
  w.u16(1);
  w.u16(1);
  EXPECT_FALSE(decode(std::move(w).take()).ok());
}

TEST(Codec, DecodeRejectsReservedLabelType) {
  ByteWriter w;
  w.u16(1);
  w.u16(0);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  w.u8(0x80);  // 10xxxxxx: reserved label type
  w.u8(0);
  w.u16(1);
  w.u16(1);
  EXPECT_FALSE(decode(std::move(w).take()).ok());
}

// One question whose name is `labels` (raw wire labels, no validation).
std::vector<std::uint8_t> query_with_labels(std::initializer_list<std::string_view> labels) {
  ByteWriter w;
  w.u16(1);
  w.u16(0);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  for (std::string_view label : labels) {
    w.u8(static_cast<std::uint8_t>(label.size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  }
  w.u8(0);
  w.u16(1);
  w.u16(1);
  return std::move(w).take();
}

// The old decoder rebuilt dotted text and re-parsed it, so a '.' inside a
// wire label split it: a.b|com decoded as the 3-label a.b.com, which
// encodes to different bytes.
TEST(Codec, DotInsideWireLabelIsRejected) {
  const auto wire = query_with_labels({"a.b", "com"});
  EXPECT_FALSE(decode(wire).ok());
  const auto old = wire_oracle::decode(wire);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old.value().questions[0].name.to_string(), "a.b.com");
  EXPECT_NE(wire_oracle::encode(old.value()), wire);
}

// ...and a one-label name "." decoded as the root.
TEST(Codec, DotOnlyLabelIsNotTheRoot) {
  const auto wire = query_with_labels({"."});
  EXPECT_FALSE(decode(wire).ok());
  const auto old = wire_oracle::decode(wire);
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(old.value().questions[0].name.labels().empty());
}

TEST(Codec, DecodeLowercasesWireLabels) {
  const auto decoded = decode(query_with_labels({"WWW", "Apple", "com"}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().questions[0].name, DnsName::parse("www.apple.com").value());
}

TEST(Codec, CompressionPointsAtFirstOccurrenceOfLongestSuffix) {
  DnsMessage m;
  m.header.id = 7;
  for (const char* name : {"a.example.com", "b.example.com", "example.com", "b.example.com"}) {
    m.questions.push_back(Question{DnsName::parse(name).value(), RrType::A, RrClass::In});
  }
  // 12: a.example.com (15 bytes) + 4; 31: "b" + ptr(14) + 4; 39: ptr(14) + 4;
  // 45: ptr(31) + 4.
  const auto wire = encode(m);
  EXPECT_EQ(wire, wire_oracle::encode(wire_oracle::to_oracle(m)));
  ASSERT_EQ(wire.size(), 51u);
  EXPECT_EQ(wire[33], 0xC0);
  EXPECT_EQ(wire[34], 14);
  EXPECT_EQ(wire[39], 0xC0);
  EXPECT_EQ(wire[40], 14);
  EXPECT_EQ(wire[45], 0xC0);
  EXPECT_EQ(wire[46], 31);
}

TEST(Codec, DecodeEmptyPacketFails) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{}).ok());
}

// ----------------------------------------------------- mutation campaign
//
// CodecFuzzTest runs every parser that reads simulated-network bytes over
// seeded input, one seed per test instance, so any failure replays
// exactly:
//   - random garbage into dns::decode;
//   - random well-formed DNS messages (compression-heavy, TYPE=300/301,
//     RDATA past the 14-bit pointer range) through both codecs;
//   - the corpus under tests/corpus/ (captured from bench_smoke and
//     bench_fleet), mutated by wire_mutator.hpp, into dns::decode,
//     decode_cache_rdata, decode_cname_rdata, extract_trace_context,
//     HttpRequest/HttpResponse::from_tcp, Url::parse and both directory
//     on_datagram readers.
// Properties: nothing throws; decode -> encode -> decode reaches a fixed
// point; results equal the reference codecs in wire_oracle.hpp wherever
// they accept without throwing, with the '.'-label and X-Sim-Body fixes
// switched on in the oracle (DESIGN.md §5a).

namespace oracle = ape::wire_oracle;
namespace mut = ape::wire_mutator;

constexpr std::size_t kMutationsPerEntry = 8;

std::vector<mut::Bytes> corpus(const char* name) {
  auto entries = mut::load_corpus(std::string(APE_CORPUS_DIR) + "/" + name);
  EXPECT_FALSE(entries.empty()) << "empty corpus " << name;
  return entries;
}

::testing::AssertionResult same_message(const DnsMessage& a, const DnsMessage& b) {
  const Header& x = a.header;
  const Header& y = b.header;
  if (x.id != y.id || x.qr != y.qr || x.opcode != y.opcode || x.aa != y.aa || x.tc != y.tc ||
      x.rd != y.rd || x.ra != y.ra || x.rcode != y.rcode) {
    return ::testing::AssertionFailure() << "headers differ";
  }
  const char* differs = a.questions != b.questions     ? "questions"
                        : a.answers != b.answers         ? "answers"
                        : a.authorities != b.authorities ? "authorities"
                        : a.additionals != b.additionals ? "additionals"
                                                         : nullptr;
  if (differs != nullptr) return ::testing::AssertionFailure() << differs << " differ";
  return ::testing::AssertionSuccess();
}

// Every DNS property for one input.
void check_dns(const std::vector<std::uint8_t>& wire) {
  Result<DnsMessage> got = make_error<DnsMessage>("not decoded");
  ASSERT_NO_THROW(got = decode(wire));
  const auto fixed = oracle::decode(wire, oracle::DotLabels::Reject);
  const auto split = oracle::decode(wire, oracle::DotLabels::Split);
  ASSERT_EQ(got.ok(), fixed.ok()) << (got.ok() ? fixed.error().message : got.error().message);
  // The '.'-label fix only ever rejects; it never changes an accepted value.
  if (fixed.ok()) {
    ASSERT_TRUE(split.ok());
    EXPECT_TRUE(same_message(oracle::from_oracle(fixed.value()),
                             oracle::from_oracle(split.value())));
  }
  if (!got.ok()) return;
  const DnsMessage& m = got.value();
  EXPECT_TRUE(same_message(m, oracle::from_oracle(fixed.value())));

  const auto wire2 = encode(m);
  EXPECT_EQ(wire2, oracle::encode(oracle::to_oracle(m)));
  const auto again = decode(wire2);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_TRUE(same_message(again.value(), m));
  EXPECT_EQ(encode(again.value()), wire2);

  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    for (const ResourceRecord& rr : *section) {
      if (rr.type == RrType::DnsCache) {
        Result<std::vector<core::CacheLookupEntry>> entries =
            make_error<std::vector<core::CacheLookupEntry>>("not decoded");
        ASSERT_NO_THROW(entries = core::decode_cache_rdata(rr.rdata));
        if (entries) EXPECT_EQ(core::encode_cache_rdata(entries.value()), rr.rdata);
      } else if (rr.type == RrType::Cname) {
        Result<DnsName> target = make_error<DnsName>("not decoded");
        ASSERT_NO_THROW(target = decode_cname_rdata(rr.rdata));
        const auto ref = oracle::decode_cname_rdata(rr.rdata, oracle::DotLabels::Reject);
        ASSERT_EQ(target.ok(), ref.ok());
        if (target) {
          EXPECT_EQ(target.value(), oracle::from_oracle(ref.value()));
          EXPECT_EQ(encode_cname_rdata(target.value()),
                    oracle::encode_cname_rdata(ref.value()));
        }
      }
    }
  }
  EXPECT_NO_THROW(static_cast<void>(core::extract_trace_context(m)));
  EXPECT_NO_THROW(static_cast<void>(core::extract_dns_cache(m)));
}

// A well-formed message drawn from a small label pool, so names share
// suffixes and compression has plenty to do.
DnsMessage random_message(mut::Rng& rng) {
  static const char* const kLabels[] = {"www", "api",     "App3", "example", "com",
                                        "net", "edgecdn", "a",    "b-1",     "x_y",
                                        "cdn", "EDGEKEY", "akadns"};
  const auto random_name = [&rng]() {
    if (rng.below(12) == 0) return DnsName{};
    std::string text;
    const std::size_t labels = 1 + rng.below(5);
    for (std::size_t i = 0; i < labels; ++i) {
      if (i != 0) text += '.';
      const bool longest = rng.below(20) == 0;
      text += longest ? std::string(63, 'z') : kLabels[rng.below(std::size(kLabels))];
    }
    auto parsed = DnsName::parse(text);
    return parsed ? parsed.value() : DnsName{};
  };
  const auto random_rr = [&]() {
    const DnsName name = random_name();
    switch (rng.below(7)) {
      case 0:
        return make_a_record(name, net::IpAddress{static_cast<std::uint32_t>(rng.next())},
                             static_cast<std::uint32_t>(rng.below(4000)));
      case 1: return make_cname_record(name, random_name(), 60);
      case 2:
      case 3: {
        std::vector<core::CacheLookupEntry> entries(rng.below(20));
        for (auto& e : entries) {
          e.hash = rng.next();
          e.flag = static_cast<core::CacheFlag>(rng.below(3));
        }
        return rng.below(2) == 0 ? core::make_cache_request_rr(name, entries)
                                 : core::make_cache_response_rr(name, entries);
      }
      case 4:
        return core::make_trace_context_rr(name, obs::TraceContext{rng.next(), rng.next()});
      case 5: return make_opt_record(static_cast<std::uint16_t>(512 + rng.below(4096)));
      default: {
        ResourceRecord rr;
        rr.name = name;
        rr.type = static_cast<RrType>(rng.below(400));
        rr.rr_class = static_cast<std::uint16_t>(rng.next());
        rr.ttl = static_cast<std::uint32_t>(rng.next());
        // Now and then past 0x3FFF, where new suffixes stop being recorded.
        rr.rdata.resize(rng.below(8) == 0 ? 17'000 : rng.below(40));
        for (auto& b : rr.rdata) b = static_cast<std::uint8_t>(rng.next());
        return rr;
      }
    }
  };
  DnsMessage m;
  m.header.id = static_cast<std::uint16_t>(rng.next());
  m.header.qr = rng.below(2) == 0;
  m.header.opcode = rng.below(4) == 0 ? Opcode::Status : Opcode::Query;
  m.header.aa = rng.below(2) == 0;
  m.header.tc = rng.below(8) == 0;
  m.header.rd = rng.below(2) == 0;
  m.header.ra = rng.below(2) == 0;
  m.header.rcode = static_cast<Rcode>(rng.below(6));
  for (std::size_t i = rng.below(4); i > 0; --i) {
    m.questions.push_back(Question{random_name(), RrType::A, RrClass::In});
  }
  for (std::size_t i = rng.below(7); i > 0; --i) m.answers.push_back(random_rr());
  for (std::size_t i = rng.below(3); i > 0; --i) m.authorities.push_back(random_rr());
  for (std::size_t i = rng.below(5); i > 0; --i) m.additionals.push_back(random_rr());
  return m;
}

bool same_request(const http::HttpRequest& a, const http::HttpRequest& b) {
  return a.method == b.method && a.url == b.url && a.headers == b.headers &&
         a.body == b.body && a.simulated_body_bytes == b.simulated_body_bytes;
}

bool same_response(const http::HttpResponse& a, const http::HttpResponse& b) {
  return a.status == b.status && a.headers == b.headers && a.body == b.body &&
         a.simulated_body_bytes == b.simulated_body_bytes;
}

// Every HTTP property for one request or response input.
template <typename Message, typename OracleDecode, typename Same>
void check_http(const mut::Bytes& bytes, OracleDecode oracle_decode, Same same) {
  net::TcpMessage msg;
  msg.bytes = bytes;
  Result<Message> got = make_error<Message>("not decoded");
  ASSERT_NO_THROW(got = Message::from_tcp(msg));

  // std::stoul on an overlong URL port throws inside both oracle modes;
  // std::stoull on X-Sim-Body only without the fix.
  std::optional<Result<Message>> fixed;
  try {
    fixed = oracle_decode(msg, oracle::SimBody::Strict);
  } catch (const std::exception&) {
  }
  if (fixed) {
    ASSERT_EQ(got.ok(), fixed->ok()) << (got.ok() ? fixed->error().message
                                                  : got.error().message);
    if (got) EXPECT_TRUE(same(got.value(), fixed->value()));
  }
  try {
    const auto loose = oracle_decode(msg, oracle::SimBody::Stoull);
    // Accepted without the fix but rejected now: only a bad X-Sim-Body.
    if (loose && !got) EXPECT_TRUE(fixed && !fixed->ok());
  } catch (const std::exception&) {
  }
  if (!got) return;

  EXPECT_EQ(got.value().to_tcp().bytes, oracle::to_tcp(got.value()).bytes);
  // A '/' in a request's Host header moves the host/path seam of the URL
  // the request names ("http://" + host + target), so every round trip
  // prepends to the path, in the oracle as much as here: no fixed point.
  if constexpr (std::is_same_v<Message, http::HttpRequest>) {
    if (const std::string* host = http::find_header(got.value().headers, "Host");
        host != nullptr && host->find('/') != std::string::npos) {
      return;
    }
  }
  Message cur = got.value();
  bool stable = false;
  for (int round = 0; round < 3 && !stable; ++round) {
    auto next = Message::from_tcp(cur.to_tcp());
    ASSERT_TRUE(next.ok()) << next.error().message;
    stable = same(next.value(), cur);
    cur = std::move(next.value());
  }
  EXPECT_TRUE(stable) << "decode -> encode -> decode never settled: "
                      << ::testing::PrintToString(mut::as_text(bytes));
}

bool same_url_result(const Result<http::Url>& a, const Result<http::Url>& b) {
  return a.ok() == b.ok() && (!a.ok() || a.value() == b.value());
}

void check_url(const std::string& text) {
  Result<http::Url> got = make_error<http::Url>("not parsed");
  ASSERT_NO_THROW(got = http::Url::parse(text));
  try {
    const auto ref = oracle::parse_url(text);
    EXPECT_TRUE(same_url_result(got, ref)) << text;
  } catch (const std::exception&) {
  }
  // The AP's origin-form path equals parsing the joined text, wherever
  // the host/target seam falls.
  for (std::size_t cut = 0; cut <= text.size(); cut += 1 + text.size() / 6) {
    const std::string host = text.substr(0, cut);
    const std::string target = text.substr(cut);
    Result<http::Url> joined = make_error<http::Url>("not parsed");
    ASSERT_NO_THROW(joined = http::Url::from_origin_form(host, target));
    EXPECT_TRUE(same_url_result(joined, http::Url::parse("http://" + host + target)))
        << host << " | " << target;
  }
  if (!got) return;
  http::Url cur = got.value();
  bool stable = false;
  for (int round = 0; round < 3 && !stable; ++round) {
    auto next = http::Url::parse(cur.to_string());
    ASSERT_TRUE(next.ok()) << cur.to_string();
    stable = next.value() == cur;
    cur = std::move(next.value());
  }
  EXPECT_TRUE(stable) << text;
}

// One shard and one directory client on a two-node network.
struct DirectoryHarness {
  sim::Simulator sim;
  net::Topology topology;
  net::NodeId shard_node = topology.add_node("shard");
  net::NodeId ap_node = topology.add_node("ap");
  net::Network network{sim, topology};
  sim::ServiceQueue cpu{sim};
  const net::IpAddress shard_ip = net::IpAddress::from_octets(10, 0, 0, 1);
  const net::IpAddress ap_ip = net::IpAddress::from_octets(10, 0, 0, 2);
  std::unique_ptr<fleet::DirectoryShard> shard;
  std::unique_ptr<fleet::DirectoryClient> client;

  DirectoryHarness() {
    topology.add_link(shard_node, ap_node, net::LinkSpec{sim::microseconds(100)});
    network.assign_ip(shard_node, shard_ip);
    network.assign_ip(ap_node, ap_ip);
    shard = std::make_unique<fleet::DirectoryShard>(network, shard_node, cpu, 0, 1, nullptr);
    fleet::DirectoryClient::Options options;
    options.ap_id = 1;
    options.shards = {net::Endpoint{shard_ip, fleet::kDirectoryShardPort}};
    options.roster = {{1, ap_ip}, {3, net::IpAddress::from_octets(10, 0, 0, 3)}};
    client = std::make_unique<fleet::DirectoryClient>(network, ap_node, options);
  }

  void to_shard(std::string_view line) {
    static_cast<void>(network.send_datagram(
        ap_node, fleet::kDirectoryClientPort,
        net::Endpoint{shard_ip, fleet::kDirectoryShardPort}, mut::as_bytes(line)));
  }
  void to_client(std::string_view line) {
    static_cast<void>(network.send_datagram(
        shard_node, fleet::kDirectoryShardPort,
        net::Endpoint{ap_ip, fleet::kDirectoryClientPort}, mut::as_bytes(line)));
  }
  void settle() { sim.run_until(sim.now() + sim::milliseconds(5)); }
};

class CodecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property sweep: garbage of many sizes never crashes the decoder.
TEST_P(CodecFuzzTest, GarbageNeverCrashes) {
  std::uint64_t x = GetParam();
  std::vector<std::uint8_t> junk;
  const std::size_t size = (x % 120) + 1;
  for (std::size_t i = 0; i < size; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    junk.push_back(static_cast<std::uint8_t>(x >> 56));
  }
  check_dns(junk);
}

TEST_P(CodecFuzzTest, RandomMessagesEncodeLikeTheOracle) {
  mut::Rng rng(GetParam());
  for (int i = 0; i < 25; ++i) {
    const DnsMessage m = random_message(rng);
    const auto wire = encode(m);
    ASSERT_EQ(wire, oracle::encode(oracle::to_oracle(m))) << "message " << i;
    const auto decoded = decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_TRUE(same_message(decoded.value(), m));
    check_dns(wire);
  }
}

TEST_P(CodecFuzzTest, MutatedDnsCorpus) {
  mut::Rng rng(GetParam());
  for (const auto& entry : corpus("dns.hex")) {
    ASSERT_TRUE(decode(entry).ok());
    check_dns(entry);
    for (std::size_t i = 0; i < kMutationsPerEntry; ++i) check_dns(mut::mutate(entry, rng));
  }
}

TEST_P(CodecFuzzTest, MutatedHttpCorpus) {
  mut::Rng rng(GetParam());
  const auto requests = [](const net::TcpMessage& m, oracle::SimBody s) {
    return oracle::request_from_tcp(m, s);
  };
  const auto responses = [](const net::TcpMessage& m, oracle::SimBody s) {
    return oracle::response_from_tcp(m, s);
  };
  for (const auto& entry : corpus("http_requests.hex")) {
    check_http<http::HttpRequest>(entry, requests, same_request);
    for (std::size_t i = 0; i < kMutationsPerEntry; ++i) {
      check_http<http::HttpRequest>(mut::mutate(entry, rng), requests, same_request);
    }
  }
  for (const auto& entry : corpus("http_responses.hex")) {
    check_http<http::HttpResponse>(entry, responses, same_response);
    for (std::size_t i = 0; i < kMutationsPerEntry; ++i) {
      check_http<http::HttpResponse>(mut::mutate(entry, rng), responses, same_response);
    }
  }
  for (const auto& entry : corpus("urls.hex")) {
    ASSERT_TRUE(http::Url::parse(mut::as_text(entry)).ok());
    check_url(mut::as_text(entry));
    for (std::size_t i = 0; i < kMutationsPerEntry; ++i) {
      check_url(mut::as_text(mut::mutate(entry, rng)));
    }
  }
}

TEST_P(CodecFuzzTest, MutatedDirectoryCorpus) {
  mut::Rng rng(GetParam());
  DirectoryHarness dir;
  const auto lines = corpus("directory.hex");
  for (const auto& entry : lines) {
    for (std::size_t i = 0; i < kMutationsPerEntry; ++i) {
      const std::string line = mut::as_text(mut::mutate(entry, rng));
      ASSERT_NO_THROW(dir.to_shard(line));
      ASSERT_NO_THROW(dir.to_client(line));
      ASSERT_NO_THROW(dir.settle());
    }
  }
  // The readers still act on well-formed lines afterwards.
  const std::size_t publishes = dir.shard->publishes();
  dir.to_shard("PUBLISH 7 00000000000000aa 60");
  dir.settle();
  EXPECT_EQ(dir.shard->publishes(), publishes + 1);
}

// The old readers ran an istringstream over the line and acted on whatever
// it left behind: zeros and an empty key.
TEST(DirectoryWire, MalformedShardLinesAreDropped) {
  DirectoryHarness dir;
  for (const char* line :
       {"PUBLISH", "PUBLISH zz 00000000000000aa 60", "PUBLISH 7 00000000000000aa",
        "PUBLISH 7 00000000000000aa 60 extra", "PUBLISH -7 00000000000000aa 60",
        "RETRACT x 00000000000000aa", "LOOKUP 1 1", "LEASE 1 7"}) {
    dir.to_shard(line);
  }
  dir.settle();
  EXPECT_EQ(dir.shard->publishes(), 0u);
  EXPECT_EQ(dir.shard->key_count(), 0u);
  EXPECT_EQ(dir.shard->lookups(), 0u);

  dir.to_shard("PUBLISH 7 00000000000000aa 60");
  dir.to_shard("LOOKUP 1 1 00000000000000aa");
  dir.settle();
  EXPECT_EQ(dir.shard->publishes(), 1u);
  EXPECT_EQ(dir.shard->key_count(), 1u);
  EXPECT_EQ(dir.shard->lookups(), 1u);
}

TEST(DirectoryWire, MalformedRepliesLeaveTheEpochTableAlone) {
  DirectoryHarness dir;
  for (const char* line : {"FOUND 5 0 7 notanap\n", "LEASEACK 5 0 9\n", "MISS 5 0 8x\n",
                           "MISS 5 0\n", "HELLO 5 0 6\n"}) {
    dir.to_client(line);
  }
  dir.settle();
  EXPECT_EQ(dir.client->shard_epoch(0), 0u);
  dir.to_client("MISS 5 0 7\n");
  dir.settle();
  EXPECT_EQ(dir.client->shard_epoch(0), 7u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// Mutation property: flipping any single byte of a valid packet never
// crashes the decoder.
TEST(Codec, SingleByteMutationsNeverCrash) {
  DnsMessage m = sample_query();
  m.header.qr = true;
  m.answers.push_back(make_a_record(m.questions[0].name,
                                    net::IpAddress::from_octets(1, 2, 3, 4), 60));
  const auto wire = encode(m);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
      auto mutated = wire;
      mutated[i] ^= flip;
      const auto result = decode(mutated);
      (void)result;
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------- RDATA types

TEST(Rdata, ARecordRoundTrip) {
  const auto ip = net::IpAddress::from_octets(203, 0, 113, 7);
  const auto rdata = encode_a_rdata(ip);
  EXPECT_EQ(rdata.size(), 4u);
  EXPECT_EQ(decode_a_rdata(rdata).value(), ip);
}

TEST(Rdata, ARecordRejectsWrongSize) {
  EXPECT_FALSE(decode_a_rdata({1, 2, 3}).ok());
  EXPECT_FALSE(decode_a_rdata({1, 2, 3, 4, 5}).ok());
}

TEST(Rdata, CnameRoundTrip) {
  const auto target = DnsName::parse("cache.cdn.example").value();
  EXPECT_EQ(decode_cname_rdata(encode_cname_rdata(target)).value(), target);
}

TEST(Rdata, CnameRejectsDotInsideLabel) {
  const std::vector<std::uint8_t> rdata{3, 'a', '.', 'b', 3, 'c', 'o', 'm', 0};
  EXPECT_FALSE(decode_cname_rdata(rdata).ok());
  EXPECT_EQ(wire_oracle::decode_cname_rdata(rdata).value().to_string(), "a.b.com");
}

TEST(Rdata, CnameRejectsTruncation) {
  auto rdata = encode_cname_rdata(DnsName::parse("a.b").value());
  rdata.pop_back();
  rdata.pop_back();
  EXPECT_FALSE(decode_cname_rdata(rdata).ok());
}

TEST(Rdata, OptRecordCarriesPayloadSizeInClass) {
  const auto opt = make_opt_record(4096);
  EXPECT_EQ(opt.type, RrType::Opt);
  EXPECT_EQ(opt.rr_class, 4096);
  EXPECT_TRUE(opt.name.empty());
}

TEST(Rdata, MakeResponseForCopiesIdentity) {
  const DnsMessage q = sample_query();
  const DnsMessage r = make_response_for(q, Rcode::NxDomain);
  EXPECT_EQ(r.header.id, q.header.id);
  EXPECT_TRUE(r.header.qr);
  EXPECT_EQ(r.header.rcode, Rcode::NxDomain);
  EXPECT_EQ(r.questions, q.questions);
}

TEST(Message, FindAnswerAndAdditional) {
  DnsMessage m = sample_query();
  const auto name = m.questions[0].name;
  m.answers.push_back(make_a_record(name, net::IpAddress::from_octets(1, 1, 1, 1), 5));
  m.additionals.push_back(make_opt_record(512));
  EXPECT_NE(m.find_answer(RrType::A), nullptr);
  EXPECT_EQ(m.find_answer(RrType::Cname), nullptr);
  EXPECT_NE(m.find_additional(RrType::Opt), nullptr);
  EXPECT_EQ(m.find_additional(RrType::A), nullptr);
}

}  // namespace
}  // namespace ape::dns
