#include "libtp/page_diff.h"

#include <bit>
#include <cstring>

#include "disk/disk_model.h"
#include "libtp/log_record.h"

namespace lfstx {
namespace {

// Shortest interior unchanged run worth splitting a diff at: below this,
// one log record is cheaper than two record headers.
constexpr uint32_t kMinDiffGap = 128;

static_assert(sizeof(Lsn) == 8 && kBlockSize % 8 == 0,
              "the diff steps through the page a word at a time");
static_assert(std::endian::native == std::endian::little,
              "a diff word's low-order byte is its first in memory");

// XOR of the two images' 8 bytes at `off`: byte i of the word is nonzero
// exactly where the images differ at off + i.
uint64_t DiffWord(const char* before, const char* after, uint32_t off) {
  uint64_t b, a;
  memcpy(&b, before + off, sizeof(b));
  memcpy(&a, after + off, sizeof(a));
  return b ^ a;
}

// Offsets within a nonzero diff word of its first and last changed byte.
uint32_t FirstChanged(uint64_t d) { return std::countr_zero(d) / 8; }
uint32_t LastChanged(uint64_t d) { return 7 - std::countl_zero(d) / 8; }

}  // namespace

PageDiff DiffPage(const char* before, const char* after) {
  // One pass, a word at a time. An unchanged run that lies inside a single
  // word is shorter than 8 bytes and can never reach kMinDiffGap, so only
  // runs that cross a word boundary are measured: each one ends at a word's
  // first changed byte and starts after an earlier word's last changed one.
  uint32_t lo = kBlockSize;  // first changed byte
  uint32_t hi = 0;           // one past the last changed byte seen so far
  uint32_t gap_lo = 0, gap_len = 0;
  for (uint32_t off = sizeof(Lsn); off < kBlockSize; off += 8) {
    uint64_t d = DiffWord(before, after, off);
    if (d == 0) continue;
    uint32_t first = off + FirstChanged(d);
    if (lo == kBlockSize) {
      lo = first;
    } else if (first - hi > gap_len) {
      gap_lo = hi;
      gap_len = first - hi;
    }
    hi = off + LastChanged(d) + 1;
  }
  PageDiff out;
  if (lo == kBlockSize) return out;
  if (gap_len >= kMinDiffGap) {
    out.count = 2;
    out.ranges[0] = {lo, gap_lo};
    out.ranges[1] = {gap_lo + gap_len, hi};
  } else {
    out.count = 1;
    out.ranges[0] = {lo, hi};
  }
  return out;
}

}  // namespace lfstx
