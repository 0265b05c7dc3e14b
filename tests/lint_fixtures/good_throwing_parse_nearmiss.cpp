// Fixture: throwing-parse near-misses — zero findings expected.  Only a
// call of the standard functions fires; a member or a declaration that
// shares the name is another function, and ape::parse_int is the
// sanctioned replacement.
#include <charconv>
#include <string_view>

namespace fixture {

struct Codec {
  int stoi(std::string_view text) const;  // member declaration
};

// Free-function declaration: the return type sits directly before the name.
unsigned long stoul(std::string_view text);

inline int parse(const Codec& codec, const Codec* ptr, std::string_view text) {
  int total = codec.stoi(text) + ptr->stoi(text);  // member calls
  int value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  const int stoi_count = 2;  // an identifier, not a call
  return total + value + stoi_count;
}

}  // namespace fixture
