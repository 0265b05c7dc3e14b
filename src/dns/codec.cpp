#include "dns/codec.hpp"

#include <map>
#include <string>

namespace ape::dns {

// ---------------------------------------------------------------- writer

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

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

Result<std::vector<std::uint8_t>> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) return make_error<std::vector<std::uint8_t>>("truncated packet (bytes)");
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

// --------------------------------------------------------- name encoding

namespace {

// Writes `name` with §4.1.4 compression: the longest previously-emitted
// suffix is replaced by a 2-byte pointer.  `offsets` maps the dotted
// representation of each emitted suffix to its packet offset.
void write_name(ByteWriter& w, const DnsName& name,
                std::map<std::string, std::uint16_t>& offsets) {
  const auto& labels = name.labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::string suffix;
    for (std::size_t j = i; j < labels.size(); ++j) {
      if (!suffix.empty()) suffix += '.';
      suffix += labels[j];
    }
    if (auto it = offsets.find(suffix); it != offsets.end()) {
      w.u16(static_cast<std::uint16_t>(0xC000u | it->second));
      return;
    }
    if (w.size() <= 0x3FFF) {
      offsets.emplace(std::move(suffix), static_cast<std::uint16_t>(w.size()));
    }
    w.u8(static_cast<std::uint8_t>(labels[i].size()));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(labels[i].data()),
                      labels[i].size()));
  }
  w.u8(0);  // root
}

Result<DnsName> read_name(ByteReader& r) {
  std::string dotted;
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
    if (!dotted.empty()) dotted += '.';
    dotted.append(label.value().begin(), label.value().end());
  }
  if (jumped) r.seek(return_pos);
  return DnsName::parse(dotted);
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

void write_rr(ByteWriter& w, const ResourceRecord& rr,
              std::map<std::string, std::uint16_t>& offsets) {
  write_name(w, rr.name, offsets);
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
  rr.rdata = std::move(rdata.value());
  return rr;
}

}  // namespace

// --------------------------------------------------------------- encode

std::vector<std::uint8_t> encode(const DnsMessage& m) {
  ByteWriter w;
  std::map<std::string, std::uint16_t> offsets;

  w.u16(m.header.id);
  w.u16(pack_flags(m.header));
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authorities.size()));
  w.u16(static_cast<std::uint16_t>(m.additionals.size()));

  for (const auto& q : m.questions) {
    write_name(w, q.name, offsets);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : m.answers) write_rr(w, rr, offsets);
  for (const auto& rr : m.authorities) write_rr(w, rr, offsets);
  for (const auto& rr : m.additionals) write_rr(w, rr, offsets);

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
