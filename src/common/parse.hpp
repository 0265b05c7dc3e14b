// Total parsing of text read off the simulated network.
//
// `std::sto*` throws on junk and on overflow, and nothing in src/ catches,
// so one malformed header would abort a whole run.  parse_int never
// throws: the whole input must be a base-10 integer that fits in T (no
// leading whitespace, no '+', no trailing characters).  ape-lint's
// `stoi-family` check keeps `std::sto*` out of src/.
#pragma once

#include <charconv>
#include <concepts>
#include <string_view>
#include <system_error>

#include "common/result.hpp"

namespace ape {

template <std::integral T>
[[nodiscard]] Result<T> parse_int(std::string_view text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) return make_error<T>("integer out of range");
  if (ec != std::errc{} || ptr != last) return make_error<T>("not an integer");
  return value;
}

// The classic-locale isspace set, which `istream >>` splits fields on.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

[[nodiscard]] constexpr std::string_view skip_space(std::string_view s) noexcept {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

// Next whitespace-delimited field of `line` (empty at the end); `line`
// advances past it.  A view, so reading a line allocates nothing.
[[nodiscard]] constexpr std::string_view next_field(std::string_view& line) noexcept {
  line = skip_space(line);
  std::size_t end = 0;
  while (end < line.size() && !is_space(line[end])) ++end;
  const std::string_view field = line.substr(0, end);
  line.remove_prefix(end);
  return field;
}

// Reads one line of a text protocol field by field, in place.  Each
// getter fails on a missing or malformed field, so a caller can chain them
// and drop the line at the first failure.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) noexcept : rest_(line) {}

  // The next field as it stands; fails at the end of the line.
  [[nodiscard]] bool word(std::string_view& out) noexcept {
    out = next_field(rest_);
    return !out.empty();
  }

  template <std::integral T>
  [[nodiscard]] bool number(T& out) {
    const auto parsed = parse_int<T>(next_field(rest_));
    if (!parsed) return false;
    out = parsed.value();
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return skip_space(rest_).empty(); }

 private:
  std::string_view rest_;
};

}  // namespace ape
