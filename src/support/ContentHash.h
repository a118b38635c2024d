//===- support/ContentHash.h - Dual-family content hash --------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content key of the two content caches (the session's record memo
/// and the scanner's unit-digest cache): two 64-bit hashes from different
/// families over one byte stream, FNV-1a (H1) and a golden-ratio
/// multiply-add (H2). FNV variants that differ only in seed collide
/// together, so the second hash mixes differently rather than just
/// starting differently. Callers key on both plus the input lengths.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_CONTENTHASH_H
#define DIFFCODE_SUPPORT_CONTENTHASH_H

#include "support/FaultInjection.h"

#include <cstdint>
#include <string_view>

namespace diffcode {
namespace support {

struct ContentHash {
  std::uint64_t H1 = 0xcbf29ce484222325ull; ///< FNV-1a.
  std::uint64_t H2 = 0x9e3779b97f4a7c15ull; ///< Golden-ratio multiply-add.

  ContentHash() = default;
  /// Seeds both families from \p Seed, so keys made under one seed (say,
  /// one analysis configuration) never alias another's.
  explicit ContentHash(std::uint64_t Seed) {
    H1 ^= faultMix(Seed);
    H2 ^= faultMix(Seed + 1);
  }

  void byte(std::uint8_t B) {
    H1 = (H1 ^ B) * 0x100000001b3ull;
    H2 = (H2 ^ B) * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
  }
  void bytes(std::string_view S) {
    for (unsigned char B : S)
      byte(B);
  }
  /// Feeds \p W as eight little-endian bytes (length framing).
  void word(std::uint64_t W) {
    for (unsigned I = 0; I < 8; ++I)
      byte(static_cast<std::uint8_t>(W >> (I * 8)));
  }
};

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_CONTENTHASH_H
