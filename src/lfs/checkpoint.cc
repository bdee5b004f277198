#include "lfs/checkpoint.h"

#include <cstring>

#include "common/check_macros.h"
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
  uint64_t redo_seq;
  uint64_t redo_addr;
  uint32_t n_redo_files;  // RedoFile rows after the usage bytes
  uint32_t pad;
};
static_assert(sizeof(RawCpHeader) == 80);
constexpr uint32_t kCpMagic = 0x43504B32;  // "CPK2"

size_t TablesBytes(uint64_t n_imap_blocks, uint64_t usage_bytes) {
  return sizeof(RawCpHeader) + 8 * n_imap_blocks + usage_bytes;
}
}  // namespace

uint32_t CheckpointData::BlocksNeeded(uint32_t n_imap_blocks,
                                      uint32_t nsegments) {
  size_t bytes = TablesBytes(n_imap_blocks, 16ull * nsegments);
  return static_cast<uint32_t>((bytes + kBlockSize - 1) / kBlockSize);
}

uint32_t CheckpointData::MaxRedoFiles(uint32_t nblocks,
                                      uint32_t n_imap_blocks,
                                      uint32_t nsegments) {
  size_t total = static_cast<size_t>(nblocks) * kBlockSize;
  size_t tables = TablesBytes(n_imap_blocks, 16ull * nsegments);
  return tables >= total
             ? 0
             : static_cast<uint32_t>((total - tables) / sizeof(RedoFile));
}

void CheckpointData::Encode(char* out, uint32_t nblocks) const {
  size_t total = static_cast<size_t>(nblocks) * kBlockSize;
  LFSTX_CHECK(TablesBytes(imap_addrs.size(), usage_bytes.size()) +
                      redo_files.size() * sizeof(RedoFile) <=
                  total,
              "checkpoint tables and redo files overflow the region");
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
  h.redo_seq = redo_seq;
  h.redo_addr = redo_addr;
  h.n_redo_files = static_cast<uint32_t>(redo_files.size());
  h.crc = 0;
  char* p = out + sizeof(h);
  memcpy(p, imap_addrs.data(), imap_addrs.size() * sizeof(BlockAddr));
  p += imap_addrs.size() * sizeof(BlockAddr);
  memcpy(p, usage_bytes.data(), usage_bytes.size());
  p += usage_bytes.size();
  if (!redo_files.empty()) {  // an empty vector's data() may be null
    memcpy(p, redo_files.data(), redo_files.size() * sizeof(RedoFile));
  }
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
  if (TablesBytes(h.n_imap, h.n_usage_bytes) +
          static_cast<uint64_t>(h.n_redo_files) * sizeof(RedoFile) >
      total) {
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
  cp.redo_seq = h.redo_seq;
  cp.redo_addr = h.redo_addr;
  cp.imap_addrs.resize(h.n_imap);
  const char* p = in + sizeof(h);
  memcpy(cp.imap_addrs.data(), p, 8ull * h.n_imap);
  p += 8ull * h.n_imap;
  cp.usage_bytes.assign(p, p + h.n_usage_bytes);
  p += h.n_usage_bytes;
  cp.redo_files.resize(h.n_redo_files);
  if (h.n_redo_files > 0) {
    memcpy(cp.redo_files.data(), p, h.n_redo_files * sizeof(RedoFile));
  }
  return cp;
}

}  // namespace lfstx
