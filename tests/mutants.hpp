#pragma once

// Deterministic in-tree mutation fuzzing of the wire decoders: seeded
// mutants of a real encoding, each of which a decoder must either reject or
// accept under its round-trip invariant.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace gpufi::fuzz {

/// Feeds `n` seeded mutants of `original` to `try_decode`: byte flips (one
/// bit, or a byte from `alphabet`), digit or space insertions, line
/// deletions and duplications, truncations. A mutant equal to the original
/// is skipped. `try_decode(mutant, i)` returns whether the decoder accepted
/// mutant i and checks the invariant of an accepted one itself. Both
/// outcomes must occur, or the mutants did not exercise the decoder.
template <class TryDecode>
void for_each_mutant(const std::string& original, int n,
                     std::string_view alphabet, TryDecode&& try_decode) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state](std::uint64_t bound) {  // splitmix64, mod bound
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % bound;
  };
  const auto line_bounds = [&](const std::string& m) {
    std::size_t start = next(m.size());
    start = start == 0 ? 0 : m.rfind('\n', start - 1) + 1;
    return std::make_pair(start, m.find('\n', start) + 1 - start);
  };
  std::size_t rejected = 0, accepted = 0;
  for (int i = 0; i < n; ++i) {
    std::string m = original;
    switch (next(5)) {
      case 0:  // byte flip: one bit, or a byte the grammar uses
        if (next(2) == 0)
          m[next(m.size())] ^= static_cast<char>(1u << next(8));
        else
          m[next(m.size())] = alphabet[next(alphabet.size())];
        break;
      case 1:  // digit or space insertion
        m.insert(next(m.size() + 1), 1, "0123456789 "[next(11)]);
        break;
      case 2: {  // line deletion
        const auto [at, len] = line_bounds(m);
        m.erase(at, len);
        break;
      }
      case 3: {  // line duplication
        const auto [at, len] = line_bounds(m);
        m.insert(at, m.substr(at, len));
        break;
      }
      default:  // truncation
        m.resize(next(m.size()));
    }
    if (m == original) continue;
    ++(try_decode(m, i) ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace gpufi::fuzz
