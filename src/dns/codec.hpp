// RFC 1035 §4 wire-format encoder/decoder.
//
// Encoding applies name compression (§4.1.4) across all sections; decoding
// accepts compression pointers with loop/bound protection.  Decoding never
// throws — malformed packets from the network come back as errors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "dns/message.hpp"

namespace ape::dns {

[[nodiscard]] std::vector<std::uint8_t> encode(const DnsMessage& message);
[[nodiscard]] Result<DnsMessage> decode(std::span<const std::uint8_t> wire);

// Low-level cursor primitives, exposed for the DNS-Cache RDATA codec and
// for tests that build malformed packets.
class ByteWriter {
 public:
  void reserve(std::size_t n) { out_.reserve(n); }
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);   // big-endian
  void u32(std::uint32_t v);   // big-endian
  void u64(std::uint64_t v);   // big-endian
  void bytes(std::span<const std::uint8_t> data);

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(out_); }
  [[nodiscard]] const std::vector<std::uint8_t>& view() const noexcept { return out_; }

 private:
  template <std::size_t N>
  void put_be(std::uint64_t v);

  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  // A view into the packet; valid as long as the bytes the reader wraps.
  [[nodiscard]] Result<std::span<const std::uint8_t>> bytes(std::size_t n);

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  void seek(std::size_t pos) noexcept { pos_ = pos < data_.size() ? pos : data_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> data() const noexcept { return data_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ape::dns
