// ape-lint: hot-path
#include "dns/codec.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <string_view>

namespace ape::dns {

// ---------------------------------------------------------------- writer

template <std::size_t N>
void ByteWriter::put_be(std::uint64_t v) {
  const std::size_t at = out_.size();
  out_.resize(at + N);
  for (std::size_t i = N; i-- > 0; v >>= 8) out_[at + i] = static_cast<std::uint8_t>(v);
}

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }
void ByteWriter::u16(std::uint16_t v) { put_be<2>(v); }
void ByteWriter::u32(std::uint32_t v) { put_be<4>(v); }
void ByteWriter::u64(std::uint64_t v) { put_be<8>(v); }

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

// ---------------------------------------------------------------- reader

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return make_error<std::uint8_t>("truncated packet (u8)");
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return make_error<std::uint16_t>("truncated packet (u16)");
  const std::uint16_t v =
      static_cast<std::uint16_t>((std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  auto hi = u16();
  if (!hi) return make_error<std::uint32_t>(hi.error().message);
  auto lo = u16();
  if (!lo) return make_error<std::uint32_t>(lo.error().message);
  return (std::uint32_t{hi.value()} << 16) | lo.value();
}

Result<std::uint64_t> ByteReader::u64() {
  auto hi = u32();
  if (!hi) return make_error<std::uint64_t>(hi.error().message);
  auto lo = u32();
  if (!lo) return make_error<std::uint64_t>(lo.error().message);
  return (std::uint64_t{hi.value()} << 32) | lo.value();
}

Result<std::span<const std::uint8_t>> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) {
    return make_error<std::span<const std::uint8_t>>("truncated packet (bytes)");
  }
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

// --------------------------------------------------------- name encoding

namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string_view as_chars(std::span<const std::uint8_t> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

// §4.1.4 compression state for one message: every name suffix written so
// far, as its wire form, with the packet offset where it starts.  The
// views point into the DnsNames of the message being encoded.  A message
// holds a handful of distinct suffixes, so a linear scan beats hashing;
// past kInline entries the rest spill to the heap.
class SuffixTable {
 public:
  [[nodiscard]] const std::uint16_t* find(std::string_view suffix) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Entry& e = i < kInline ? inline_[i] : spill_[i - kInline];
      if (e.suffix == suffix) return &e.offset;
    }
    return nullptr;
  }

  void add(std::string_view suffix, std::uint16_t offset) {
    if (size_ < kInline) {
      inline_[size_] = {suffix, offset};
    } else {
      spill_.push_back({suffix, offset});
    }
    ++size_;
  }

 private:
  struct Entry {
    std::string_view suffix;
    std::uint16_t offset = 0;
  };
  static constexpr std::size_t kInline = 16;
  std::array<Entry, kInline> inline_{};
  std::vector<Entry> spill_;
  std::size_t size_ = 0;
};

// Writes `name` with §4.1.4 compression: the longest suffix already in
// the packet becomes a 2-byte pointer to its first occurrence.  Suffixes
// are recorded only while their offset fits the 14-bit pointer.
void write_name(ByteWriter& w, const DnsName& name, SuffixTable& suffixes) {
  const std::string_view wire = name.wire();
  for (std::size_t pos = 0; pos < wire.size();) {
    const std::string_view suffix = wire.substr(pos);
    if (const std::uint16_t* offset = suffixes.find(suffix); offset != nullptr) {
      w.u16(static_cast<std::uint16_t>(0xC000u | *offset));
      return;
    }
    if (w.size() <= 0x3FFF) suffixes.add(suffix, static_cast<std::uint16_t>(w.size()));
    const std::size_t len = static_cast<std::uint8_t>(wire[pos]);
    w.bytes(as_bytes(wire.substr(pos, 1 + len)));
    pos += 1 + len;
  }
  w.u8(0);  // root
}

Result<DnsName> read_name(ByteReader& r) {
  DnsName name;
  std::size_t jumps = 0;
  constexpr std::size_t kMaxJumps = 32;  // loop guard
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
    if (auto ok = name.append_label(as_chars(label.value())); !ok) {
      return make_error<DnsName>(ok.error().message);
    }
  }
  if (jumped) r.seek(return_pos);
  return name;
}

std::uint16_t pack_flags(const Header& h) {
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

Header unpack_flags(std::uint16_t id, std::uint16_t f) {
  Header h;
  h.id = id;
  h.qr = (f & 0x8000u) != 0;
  h.opcode = static_cast<Opcode>((f >> 11) & 0xF);
  h.aa = (f & 0x0400u) != 0;
  h.tc = (f & 0x0200u) != 0;
  h.rd = (f & 0x0100u) != 0;
  h.ra = (f & 0x0080u) != 0;
  h.rcode = static_cast<Rcode>(f & 0xF);
  return h;
}

void write_rr(ByteWriter& w, const ResourceRecord& rr, SuffixTable& suffixes) {
  write_name(w, rr.name, suffixes);
  w.u16(static_cast<std::uint16_t>(rr.type));
  w.u16(rr.rr_class);
  w.u32(rr.ttl);
  w.u16(static_cast<std::uint16_t>(rr.rdata.size()));
  w.bytes(rr.rdata);
}

Result<ResourceRecord> read_rr(ByteReader& r) {
  ResourceRecord rr;
  auto name = read_name(r);
  if (!name) return make_error<ResourceRecord>(name.error().message);
  rr.name = std::move(name.value());

  auto type = r.u16();
  if (!type) return make_error<ResourceRecord>(type.error().message);
  rr.type = static_cast<RrType>(type.value());

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

// Uncompressed size: an upper bound on the encoded size, so one reserve
// covers the whole message.
std::size_t uncompressed_size(const DnsMessage& m) {
  std::size_t n = 12;
  for (const auto& q : m.questions) n += q.name.wire_length() + 4;
  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    for (const auto& rr : *section) n += rr.name.wire_length() + 10 + rr.rdata.size();
  }
  return n;
}

}  // namespace

// --------------------------------------------------------------- encode

std::vector<std::uint8_t> encode(const DnsMessage& m) {
  ByteWriter w;
  w.reserve(uncompressed_size(m));
  SuffixTable suffixes;

  w.u16(m.header.id);
  w.u16(pack_flags(m.header));
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authorities.size()));
  w.u16(static_cast<std::uint16_t>(m.additionals.size()));

  for (const auto& q : m.questions) {
    write_name(w, q.name, suffixes);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : m.answers) write_rr(w, rr, suffixes);
  for (const auto& rr : m.authorities) write_rr(w, rr, suffixes);
  for (const auto& rr : m.additionals) write_rr(w, rr, suffixes);

  return std::move(w).take();
}

// --------------------------------------------------------------- decode

Result<DnsMessage> decode(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  DnsMessage m;

  auto id = r.u16();
  if (!id) return make_error<DnsMessage>("truncated header");
  auto flags = r.u16();
  if (!flags) return make_error<DnsMessage>("truncated header");
  m.header = unpack_flags(id.value(), flags.value());

  auto qd = r.u16();
  auto an = r.u16();
  auto ns = r.u16();
  auto ar = r.u16();
  if (!qd || !an || !ns || !ar) return make_error<DnsMessage>("truncated header counts");

  // Counts come off the wire, so reserve no more entries than the bytes
  // left could hold (a question is >= 5 bytes, an RR >= 11).
  m.questions.reserve(std::min<std::size_t>(qd.value(), r.remaining() / 5));
  for (std::uint16_t i = 0; i < qd.value(); ++i) {
    Question q;
    auto name = read_name(r);
    if (!name) return make_error<DnsMessage>("bad question name: " + name.error().message);
    q.name = std::move(name.value());
    auto qtype = r.u16();
    auto qclass = r.u16();
    if (!qtype || !qclass) return make_error<DnsMessage>("truncated question");
    q.qtype = static_cast<RrType>(qtype.value());
    q.qclass = static_cast<RrClass>(qclass.value());
    m.questions.push_back(std::move(q));
  }

  auto read_section = [&r](std::uint16_t count,
                           std::vector<ResourceRecord>& out) -> Result<bool> {
    out.reserve(std::min<std::size_t>(count, r.remaining() / 11));
    for (std::uint16_t i = 0; i < count; ++i) {
      auto rr = read_rr(r);
      if (!rr) return make_error<bool>(rr.error().message);
      out.push_back(std::move(rr.value()));
    }
    return true;
  };

  if (auto ok = read_section(an.value(), m.answers); !ok) {
    return make_error<DnsMessage>("bad answer: " + ok.error().message);
  }
  if (auto ok = read_section(ns.value(), m.authorities); !ok) {
    return make_error<DnsMessage>("bad authority: " + ok.error().message);
  }
  if (auto ok = read_section(ar.value(), m.additionals); !ok) {
    return make_error<DnsMessage>("bad additional: " + ok.error().message);
  }
  return m;
}

}  // namespace ape::dns
