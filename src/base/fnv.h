// FNV-1a hashes, 32- and 64-bit. Package checksums, quarantine keys,
// object-cache checksums and interned string symbol names (`str.h%08x`)
// are all derived from these values and some are persisted, so the
// functions must never change their output.

#ifndef KSPLICE_BASE_FNV_H_
#define KSPLICE_BASE_FNV_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace ks {

inline uint32_t Fnv1a32(std::span<const uint8_t> data) {
  uint32_t hash = 2166136261u;
  for (uint8_t byte : data) {
    hash ^= byte;
    hash *= 16777619u;
  }
  return hash;
}

inline uint32_t Fnv1a32(std::string_view data) {
  return Fnv1a32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

inline uint64_t Fnv1a64(std::span<const uint8_t> data) {
  uint64_t hash = 14695981039346656037ull;
  for (uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

}  // namespace ks

#endif  // KSPLICE_BASE_FNV_H_
