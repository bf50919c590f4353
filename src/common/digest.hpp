// 128-bit content digests for artifact-cache keys.
//
// The stage-artifact cache (core/stage_cache.hpp) keys cached stage
// artifacts by (dataset digest, config fingerprint). The digest only has to be
// deterministic across runs and collision-resistant enough that two
// *accidentally* different inputs never share a key — it is not a
// cryptographic commitment. Two independently-seeded FNV-1a streams give
// 128 bits; every absorbed field is length- or tag-prefixed so field
// boundaries cannot alias ("ab","c" != "a","bc").
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace focus::common {

struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest&, const Digest&) = default;

  /// 32 lowercase hex characters, hi then lo.
  std::string hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kHex[(hi >> (4 * i)) & 0xf];
      out[31 - i] = kHex[(lo >> (4 * i)) & 0xf];
    }
    return out;
  }
};

/// Streaming digest builder. Absorb order matters; callers fix a canonical
/// field order per key kind (see core/stage_cache.cpp).
class Hasher {
 public:
  Hasher() = default;
  /// Domain-separated: two Hashers seeded with different tags never collide
  /// on the same byte stream.
  explicit Hasher(std::uint64_t domain_tag) { u64(domain_tag); }

  Hasher& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      a_ = (a_ ^ p[i]) * kPrime;
      b_ = (b_ ^ p[i]) * kPrime2;
    }
    return *this;
  }

  Hasher& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Hasher& u32(std::uint32_t v) { return u64(v); }
  Hasher& boolean(bool v) { return u64(v ? 1 : 2); }
  Hasher& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  Hasher& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  Hasher& digest(const Digest& d) { return u64(d.hi).u64(d.lo); }

  Digest finish() const {
    // One avalanche round (splitmix64 finalizer) per stream so short inputs
    // still diffuse into all 128 bits.
    return {mix(a_), mix(b_)};
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;   // FNV-1a
  static constexpr std::uint64_t kPrime2 = 0x9e3779b97f4a7c15ull | 1ull;

  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t a_ = 0xcbf29ce484222325ull;  // FNV offset basis
  std::uint64_t b_ = 0x6a09e667f3bcc909ull;  // sqrt(2) fraction
};

}  // namespace focus::common
