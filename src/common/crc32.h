// CRC32 (Castagnoli polynomial) used for key → vBucket mapping, exactly the
// role CRC32 plays in the paper's Figure 5, and for storage-engine record
// checksums.
#ifndef COUCHKV_COMMON_CRC32_H_
#define COUCHKV_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace couchkv {

// Computes CRC32C over `data`. `seed` allows incremental computation. Uses
// the SSE4.2 crc32 instruction when the CPU has it, the table otherwise.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

// The table-driven CRC32C: the fallback, and the reference the instruction
// path is tested against.
uint32_t Crc32Table(const void* data, size_t n, uint32_t seed = 0);

}  // namespace couchkv

#endif  // COUCHKV_COMMON_CRC32_H_
