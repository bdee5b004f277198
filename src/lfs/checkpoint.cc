#include "lfs/checkpoint.h"

#include <cstring>

#include "common/crc32c.h"
#include "lfs/segment_usage.h"

namespace lfstx {

namespace {
struct RawCpHeader {
  uint32_t magic;
  uint32_t n_imap;
  uint32_t n_usage_bytes;
  uint32_t cur_segment;
  uint32_t cur_offset;
  uint32_t cur_generation;
  uint64_t seq;
  uint64_t timestamp;
  uint64_t next_write_seq;
  uint32_t crc;
  uint32_t next_segment;
};
static_assert(sizeof(RawCpHeader) == 56);
constexpr uint32_t kCpMagic = 0x43504B31;  // "CPK1"
}  // namespace

uint32_t CheckpointData::BlocksNeeded(uint32_t n_imap_blocks,
                                      uint32_t nsegments) {
  size_t bytes = sizeof(RawCpHeader) + 8ull * n_imap_blocks +
                 16ull * nsegments;
  return static_cast<uint32_t>((bytes + kBlockSize - 1) / kBlockSize);
}

void CheckpointData::Encode(char* out, uint32_t nblocks) const {
  size_t total = static_cast<size_t>(nblocks) * kBlockSize;
  memset(out, 0, total);
  RawCpHeader h{};
  h.magic = kCpMagic;
  h.n_imap = static_cast<uint32_t>(imap_addrs.size());
  h.n_usage_bytes = static_cast<uint32_t>(usage_bytes.size());
  h.cur_segment = cur_segment;
  h.cur_offset = cur_offset;
  h.cur_generation = cur_generation;
  h.next_segment = next_segment;
  h.seq = seq;
  h.timestamp = timestamp;
  h.next_write_seq = next_write_seq;
  h.crc = 0;
  char* p = out + sizeof(h);
  memcpy(p, imap_addrs.data(), imap_addrs.size() * sizeof(BlockAddr));
  p += imap_addrs.size() * sizeof(BlockAddr);
  memcpy(p, usage_bytes.data(), usage_bytes.size());
  memcpy(out, &h, sizeof(h));
  h.crc = crc32c::Mask(crc32c::Value(out, total));
  memcpy(out, &h, sizeof(h));
}

Result<CheckpointData> CheckpointData::Decode(const char* in,
                                              uint32_t nblocks) {
  size_t total = static_cast<size_t>(nblocks) * kBlockSize;
  RawCpHeader h;
  memcpy(&h, in, sizeof(h));
  if (h.magic != kCpMagic) return Status::Corruption("not a checkpoint");
  if (sizeof(h) + 8ull * h.n_imap + h.n_usage_bytes > total) {
    return Status::Corruption("checkpoint tables exceed region");
  }
  std::vector<char> copy(in, in + total);
  RawCpHeader zeroed = h;
  zeroed.crc = 0;
  memcpy(copy.data(), &zeroed, sizeof(zeroed));
  if (crc32c::Mask(crc32c::Value(copy.data(), total)) != h.crc) {
    return Status::Corruption("checkpoint CRC mismatch");
  }
  CheckpointData cp;
  cp.seq = h.seq;
  cp.timestamp = h.timestamp;
  cp.cur_segment = h.cur_segment;
  cp.cur_offset = h.cur_offset;
  cp.cur_generation = h.cur_generation;
  cp.next_segment = h.next_segment;
  cp.next_write_seq = h.next_write_seq;
  cp.imap_addrs.resize(h.n_imap);
  const char* p = in + sizeof(h);
  memcpy(cp.imap_addrs.data(), p, 8ull * h.n_imap);
  p += 8ull * h.n_imap;
  cp.usage_bytes.assign(p, p + h.n_usage_bytes);
  return cp;
}

}  // namespace lfstx
