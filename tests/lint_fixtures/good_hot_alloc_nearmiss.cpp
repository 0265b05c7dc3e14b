// Fixture: hot-alloc near-misses in a hot-path file — zero findings
// expected.  Only a call of the free function hash_to_string renders a
// cache key into a heap string; the stack form, a member or a declaration
// that shares the name, and an identifier that merely contains it are fine.
// ape-lint: hot-path
#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace fixture {

using UrlHash = std::uint64_t;

struct UrlHashText {
  std::array<char, 16> chars{};
  std::string_view view() const { return {chars.data(), chars.size()}; }
};

// Free-function declaration: the return type sits directly before the name.
std::string hash_to_string(UrlHash h);
UrlHashText render_url_hash(UrlHash h);

struct Renderer {
  std::string hash_to_string(UrlHash h) const;  // member declaration
};

inline std::size_t wire_line(const Renderer& r, const Renderer* p, std::string& line) {
  line.append(render_url_hash(42).view());  // the sanctioned stack form
  const std::size_t hash_to_string_calls = r.hash_to_string(1).size() +   // member call
                                           p->hash_to_string(2).size();  // through `->`
  return line.size() + hash_to_string_calls;
}

}  // namespace fixture
