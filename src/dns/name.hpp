// Domain names as label sequences (RFC 1035 §3.1).
//
// Names are stored lowercased (DNS matching is case-insensitive) and
// validated: labels 1..63 bytes of letters, digits, '-' and '_', total
// presentation length <= 253.  The storage is the uncompressed wire form
// without the root byte — each label prefixed by its length — so the codec
// writes and reads names without rebuilding dotted text (DESIGN.md §5a).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace ape::dns {

class DnsName {
 public:
  DnsName() = default;

  // Parses dotted presentation form ("www.apple.com", trailing dot ok).
  [[nodiscard]] static Result<DnsName> parse(std::string_view text);

  // Appends one label (lowercased).  Rejects exactly what parse() rejects:
  // an empty or over-long label, any octet other than a letter, digit, '-'
  // or '_' (so a '.' inside a wire label is an error, not a label split),
  // and a name that would grow past 253 presentation bytes.  On error the
  // name is unchanged.
  [[nodiscard]] Result<bool> append_label(std::string_view label);

  [[nodiscard]] bool empty() const noexcept { return label_count_ == 0; }
  [[nodiscard]] std::size_t label_count() const noexcept { return label_count_; }

  // Length-prefixed labels without the root byte ("" for the root name).
  [[nodiscard]] std::string_view wire() const noexcept { return wire_; }

  [[nodiscard]] std::string to_string() const;

  // True if this name equals `suffix` or ends with it ("www.apple.com"
  // is_subdomain_of "apple.com" and "com", and of itself).
  [[nodiscard]] bool is_subdomain_of(const DnsName& suffix) const;

  // Wire-format length without compression: sum(1 + label) + 1 root byte.
  [[nodiscard]] std::size_t wire_length() const noexcept { return wire_.size() + 1; }

  friend bool operator==(const DnsName& a, const DnsName& b) noexcept {
    return a.wire_ == b.wire_;
  }

 private:
  std::string wire_;
  std::uint8_t label_count_ = 0;  // <= 127: every label costs >= 2 of 254 wire bytes
};

// Hash for unordered_map keys: FNV-1a over each label followed by '.', the
// canonical dotted form with a trailing dot.
struct DnsNameHash {
  std::size_t operator()(const DnsName& n) const noexcept {
    std::size_t h = 1469598103934665603ull;
    const std::string_view wire = n.wire();
    for (std::size_t pos = 0; pos < wire.size();) {
      const std::size_t len = static_cast<std::uint8_t>(wire[pos]);
      for (char c : wire.substr(pos + 1, len)) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= '.';
      h *= 1099511628211ull;
      pos += 1 + len;
    }
    return h;
  }
};

}  // namespace ape::dns
