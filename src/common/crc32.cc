#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace couchkv {
namespace {

// Table-driven CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// SSE4.2's crc32 computes CRC32C with the same reflected polynomial, eight
// bytes per instruction.
__attribute__((target("sse4.2"))) uint32_t Crc32Sse42(const uint8_t* p,
                                                      size_t n, uint32_t seed) {
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool HaveSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

uint32_t Crc32Table(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  static const bool kHardware = HaveSse42();
  if (kHardware) {
    return Crc32Sse42(static_cast<const uint8_t*>(data), n, seed);
  }
#endif
  return Crc32Table(data, n, seed);
}

}  // namespace couchkv
