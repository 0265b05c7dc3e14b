// ape-lint: hot-path
#include "dns/name.hpp"

namespace ape::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 253;

// ASCII only: the classic-locale std::isalnum without the locale lookup.
constexpr bool valid_label_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '_';
}

constexpr char to_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
}  // namespace

Result<DnsName> DnsName::parse(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return DnsName{};  // the root name
  if (text.size() > kMaxName) return make_error<DnsName>("name too long");

  DnsName name;
  name.wire_.reserve(text.size() + 1);
  while (true) {
    const std::size_t dot = text.find('.');
    if (auto ok = name.append_label(text.substr(0, dot)); !ok) {
      return make_error<DnsName>(ok.error().message);
    }
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  return name;
}

Result<bool> DnsName::append_label(std::string_view label) {
  if (label.empty()) return make_error<bool>("empty label");
  if (label.size() > kMaxLabel) return make_error<bool>("label too long");
  for (char c : label) {
    if (!valid_label_char(c)) return make_error<bool>("invalid character in label");
  }
  // Presentation length after the append: the wire form minus its first
  // length byte, i.e. every label plus one '.' between neighbours.
  if (wire_.size() + label.size() > kMaxName) return make_error<bool>("name too long");
  const std::size_t start = wire_.size() + 1;
  wire_.push_back(static_cast<char>(label.size()));
  wire_.append(label);
  for (std::size_t i = start; i < wire_.size(); ++i) wire_[i] = to_lower(wire_[i]);
  ++label_count_;
  return true;
}

std::string DnsName::to_string() const {
  if (wire_.empty()) return ".";
  std::string out(wire_.begin() + 1, wire_.end());
  // Every later length byte becomes the '.' in front of its label.
  for (std::size_t pos = static_cast<std::uint8_t>(wire_[0]); pos < out.size();) {
    const std::size_t len = static_cast<std::uint8_t>(out[pos]);
    out[pos] = '.';
    pos += 1 + len;
  }
  return out;
}

bool DnsName::is_subdomain_of(const DnsName& suffix) const {
  if (suffix.label_count_ > label_count_) return false;
  // Skip to the label boundary where a suffix with that many labels starts;
  // a byte-wise tail match elsewhere could straddle a label.
  std::size_t pos = 0;
  for (std::size_t skip = label_count_ - suffix.label_count_; skip > 0; --skip) {
    pos += 1 + static_cast<std::uint8_t>(wire_[pos]);
  }
  return std::string_view(wire_).substr(pos) == suffix.wire_;
}

}  // namespace ape::dns
