// The cache identity: a hash of the base URL (DESIGN.md §5m).
//
// The paper names a cached object by hash(URL) and puts that hash, not the
// URL, into (unencrypted) DNS messages "to maintain confidentiality"
// (Sec. IV-B1).  We use FNV-1a 64-bit over the *base* URL (query
// parameters stripped): fixed width, dependency-free, stable across
// platforms.
//
// UrlHash keys every store, policy, block list and directory map on the
// APE data path; it lives in common/ because the obs layer's analytics
// plane, below cache, keys on it too.  Hex text is rendered only where a
// key leaves a component as text.  Fixed-width lowercase hex sorts like
// the number, so an ordered walk over hashes is in rendered-text order.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ape {

using UrlHash = std::uint64_t;

[[nodiscard]] constexpr UrlHash hash_url(std::string_view base_url) noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (char c : base_url) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

// Width of a rendered key: 16 lowercase hex digits, zero-padded.
inline constexpr std::size_t kUrlHashTextBytes = 16;

// The rendered key in a stack buffer, for callers that only hash or copy
// the text (the fleet's shard placement, SHARDS sampling).
struct UrlHashText {
  std::array<char, kUrlHashTextBytes> chars{};

  [[nodiscard]] constexpr std::string_view view() const noexcept {
    return {chars.data(), chars.size()};
  }
};

[[nodiscard]] constexpr UrlHashText render_url_hash(UrlHash h) noexcept {
  constexpr std::string_view kHex = "0123456789abcdef";
  UrlHashText out;
  for (std::size_t i = kUrlHashTextBytes; i-- > 0;) {
    out.chars[i] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

// The rendered key as a string: wire lines, span keys, exports.
[[nodiscard]] inline std::string hash_to_string(UrlHash h) {
  return std::string(render_url_hash(h).view());
}

}  // namespace ape
