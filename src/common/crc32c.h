// CRC32C (Castagnoli) used for segment summaries, checkpoints, and log
// records. Every log record is checksummed on append and on read, so this
// is one of the simulator's hottest host-CPU paths (virtual time is charged
// by the cost model, never by how long the CRC takes). Extend uses the
// SSE4.2 `crc32` instruction when the CPU has it, chosen once at run time,
// and a byte-at-a-time table otherwise; both give identical results.
#ifndef LFSTX_COMMON_CRC32C_H_
#define LFSTX_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lfstx::crc32c {

/// Extend an existing CRC with `n` more bytes. Seed a fresh CRC with 0.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// Byte-table software form of Extend: what Extend runs on hosts without
/// a CRC instruction. Exposed so tests can check it on every host.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// CRC of a standalone buffer.
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked form (LevelDB trick) so a CRC stored alongside the data it covers
/// does not look like valid data itself.
inline uint32_t Mask(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + 0xa282ead8u; }
inline uint32_t Unmask(uint32_t m) {
  uint32_t r = m - 0xa282ead8u;
  return (r << 15) | (r >> 17);
}

}  // namespace lfstx::crc32c

#endif  // LFSTX_COMMON_CRC32C_H_
