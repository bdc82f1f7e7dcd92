// FNV-1a mixing shared by the sweep digest pipeline.  Both the
// per-scenario history fingerprint (scenario.cpp) and the aggregate
// sweep digest (sweep.cpp) must use the exact same primitive: these
// values are compared byte-for-byte across runs, machines, and
// commits, so there is deliberately one copy of the constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rlt::sweep {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_mix_bytes(std::uint64_t& h, const void* data,
                          std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// Mixes a 64-bit value little-endian byte by byte (endianness-stable).
inline void fnv_mix_u64(std::uint64_t& h, std::uint64_t x) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

inline void fnv_mix_str(std::uint64_t& h, const std::string& s) noexcept {
  fnv_mix_u64(h, s.size());
  fnv_mix_bytes(h, s.data(), s.size());
}

/// Mixes one store line and its newline (a shard trailer's "bytes").
inline void fnv_mix_line(std::uint64_t& h, const std::string& line) noexcept {
  fnv_mix_bytes(h, line.data(), line.size());
  fnv_mix_bytes(h, "\n", 1);
}

}  // namespace rlt::sweep
