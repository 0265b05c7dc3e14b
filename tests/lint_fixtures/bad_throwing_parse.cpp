// Fixture: every std::sto* call must fire, qualified or brought in by a
// using-declaration.  Not compiled — consumed by ape_lint.py --fixtures.
#include <string>

namespace fixture {

inline unsigned long parse_everything(const std::string& text) {
  const int a = std::stoi(text);                                // expect-lint: throwing-parse
  const long b = std::stol(text);                               // expect-lint: throwing-parse
  const long long c = std::stoll(text);                         // expect-lint: throwing-parse
  const unsigned long d = std::stoul(text);                     // expect-lint: throwing-parse
  const unsigned long long e = std::stoull(text);               // expect-lint: throwing-parse
  const double f = std::stod(text) + std::stof(text);           // expect-lint: throwing-parse
  const long double g = std::stold(text);                       // expect-lint: throwing-parse
  using std::stoul;
  const unsigned long h = stoul(text);                          // expect-lint: throwing-parse
  return h + static_cast<unsigned long>(a + b + c) + d + e +
         static_cast<unsigned long>(f + static_cast<double>(g));
}

}  // namespace fixture
