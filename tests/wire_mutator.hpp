// Deterministic, seeded mutation of captured wire messages for the codec
// campaign in test_dns_codec.cpp.  No fuzzing engine: a splitmix64 stream
// picks every mutation, so a failing (file, line, seed) replays exactly.
//
// Corpus files under tests/corpus/ hold one message per line as lowercase
// hex; blank lines and lines starting with '#' are skipped.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace ape::wire_mutator {

using Bytes = std::vector<std::uint8_t>;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform-enough in [0, n); n == 0 yields 0.
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

inline std::vector<Bytes> load_corpus(const std::string& path) {
  std::vector<Bytes> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() == '#') continue;
    Bytes b;
    for (std::size_t i = 0; i + 1 < line.size(); i += 2) {
      b.push_back(static_cast<std::uint8_t>(std::stoul(line.substr(i, 2), nullptr, 16)));
    }
    out.push_back(std::move(b));
  }
  return out;
}

inline std::string as_text(const Bytes& b) { return std::string(b.begin(), b.end()); }
inline Bytes as_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

// One mutation, chosen by `rng`:
//   0 bit flips        1-4 random bits flipped;
//   1 truncation       cut at a random length;
//   2 length splice    a length/count-sized value (0, 1, 63, 64, 0xFF, the
//                      remaining length, or random) over one byte or a
//                      big-endian u16;
//   3 pointer loop     a compression pointer (0xC0xx) aimed at itself or
//                      at an earlier offset;
//   4 slice splice     a random slice of the message inserted elsewhere;
//   5 number splice    a decimal run replaced by junk, a sign, whitespace or
//                      an overlong value (the text protocols' numbers);
//   6 delimiter splice one byte replaced by a delimiter one of the formats
//                      splits on: '.', ' ', ':', '/', '?', '\r', '\n' or NUL.
inline Bytes mutate_once(Bytes b, Rng& rng) {
  if (b.empty()) {
    b.push_back(static_cast<std::uint8_t>(rng.next()));
    return b;
  }
  switch (rng.below(7)) {
    case 0: {
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t i = 0; i < flips; ++i) {
        b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    }
    case 1:
      b.resize(rng.below(b.size()));
      break;
    case 2: {
      const std::size_t pos = rng.below(b.size());
      const std::uint64_t picks[] = {0, 1, 63, 64, 0xFF, b.size() - pos, rng.next()};
      const std::uint64_t v = picks[rng.below(std::size(picks))];
      if (rng.below(2) == 0 || pos + 1 >= b.size()) {
        b[pos] = static_cast<std::uint8_t>(v);
      } else {
        b[pos] = static_cast<std::uint8_t>(v >> 8);
        b[pos + 1] = static_cast<std::uint8_t>(v);
      }
      break;
    }
    case 3: {
      if (b.size() < 2) break;
      const std::size_t pos = rng.below(b.size() - 1);
      const std::size_t target = rng.below(2) == 0 ? pos : rng.below(pos + 1);
      b[pos] = static_cast<std::uint8_t>(0xC0u | ((target >> 8) & 0x3Fu));
      b[pos + 1] = static_cast<std::uint8_t>(target);
      break;
    }
    case 4: {
      const std::size_t from = rng.below(b.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(b.size() - from, 16));
      const Bytes slice(b.begin() + static_cast<std::ptrdiff_t>(from),
                        b.begin() + static_cast<std::ptrdiff_t>(from + len));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(rng.below(b.size() + 1)), slice.begin(),
               slice.end());
      break;
    }
    case 5: {
      std::vector<std::size_t> runs;  // starts of decimal runs
      for (std::size_t i = 0; i < b.size(); ++i) {
        const bool digit = b[i] >= '0' && b[i] <= '9';
        const bool prev_digit = i > 0 && b[i - 1] >= '0' && b[i - 1] <= '9';
        if (digit && !prev_digit) runs.push_back(i);
      }
      if (runs.empty()) break;
      const std::size_t start = runs[rng.below(runs.size())];
      std::size_t end = start;
      while (end < b.size() && b[end] >= '0' && b[end] <= '9') ++end;
      const char* junk[] = {"",   "zz", "-1", "+5", " 7", "12ab", "0",
                            "99999999999999999999999", "4294967296", "65536"};
      const std::string_view with = junk[rng.below(std::size(junk))];
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(start),
              b.begin() + static_cast<std::ptrdiff_t>(end));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(start), with.begin(), with.end());
      break;
    }
    default: {
      const char delimiters[] = {'.', ' ', ':', '/', '?', '\r', '\n', '\0'};
      b[rng.below(b.size())] = static_cast<std::uint8_t>(delimiters[rng.below(8)]);
      break;
    }
  }
  return b;
}

// 1-3 stacked mutations.
inline Bytes mutate(Bytes b, Rng& rng) {
  const std::size_t rounds = 1 + rng.below(3);
  for (std::size_t i = 0; i < rounds; ++i) b = mutate_once(std::move(b), rng);
  return b;
}

}  // namespace ape::wire_mutator
