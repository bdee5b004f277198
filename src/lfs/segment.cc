#include "lfs/segment.h"

#include <cstring>

#include "common/check_macros.h"
#include "common/crc32c.h"

namespace lfstx {

namespace {
// Fixed-size header laid out at the front of the summary block.
struct RawHeader {
  uint32_t magic;
  uint32_t nblocks;
  uint64_t write_seq;
  uint64_t timestamp;
  uint32_t generation;
  uint32_t flags;  // bit 0: txn_commit, bit 1: redo_final
  uint64_t next_addr;
  uint64_t txn;
  uint32_t crc;  // masked CRC32C of header (crc=0) + entries + payload
  uint32_t nredo;  // redo rows after the nblocks entries
};
static_assert(sizeof(RawHeader) == 56);
constexpr uint32_t kFlagTxnCommit = 0x1;
constexpr uint32_t kFlagRedoFinal = 0x2;
}  // namespace

uint32_t Summary::MaxEntries() {
  return static_cast<uint32_t>((kBlockSize - sizeof(RawHeader)) /
                               sizeof(SummaryEntry));
}

void Summary::Encode(char* block, const char* payload) const {
  memset(block, 0, kBlockSize);
  RawHeader h{};
  h.magic = kSummaryMagic;
  h.nblocks = nblocks();
  h.write_seq = write_seq;
  h.timestamp = timestamp;
  h.generation = generation;
  h.flags =
      (txn_commit ? kFlagTxnCommit : 0) | (redo_final ? kFlagRedoFinal : 0);
  h.next_addr = next_addr;
  h.txn = txn;
  h.crc = 0;
  h.nredo = static_cast<uint32_t>(redo.size());
  LFSTX_CHECK(h.nblocks + h.nredo <= MaxEntries(),
              "summary entries and redo rows overflow the summary block");
  memcpy(block, &h, sizeof(h));
  char* at = block + sizeof(h);
  memcpy(at, entries.data(), entries.size() * sizeof(SummaryEntry));
  if (!redo.empty()) {  // an empty vector's data() may be null
    memcpy(at + entries.size() * sizeof(SummaryEntry), redo.data(),
           redo.size() * sizeof(RedoRow));
  }
  uint32_t crc = crc32c::Value(block, kBlockSize);
  crc = crc32c::Extend(crc, payload,
                       static_cast<size_t>(nblocks()) * kBlockSize);
  h.crc = crc32c::Mask(crc);
  memcpy(block, &h, sizeof(h));
}

Result<uint32_t> Summary::PeekNBlocks(const char* block) {
  RawHeader h;
  memcpy(&h, block, sizeof(h));
  if (h.magic != kSummaryMagic) {
    return Status::Corruption("not a segment summary");
  }
  if (h.nblocks > MaxEntries()) {
    return Status::Corruption("summary block count out of range");
  }
  return h.nblocks;
}

namespace {
// The fields of a summary block whose header passed its checks.
Summary Parse(const RawHeader& h, const char* block) {
  Summary s;
  s.write_seq = h.write_seq;
  s.timestamp = h.timestamp;
  s.generation = h.generation;
  s.next_addr = h.next_addr;
  s.txn = h.txn;
  s.txn_commit = (h.flags & kFlagTxnCommit) != 0;
  s.redo_final = (h.flags & kFlagRedoFinal) != 0;
  s.entries.resize(h.nblocks);
  s.redo.resize(h.nredo);
  const char* at = block + sizeof(RawHeader);
  memcpy(s.entries.data(), at,
         static_cast<size_t>(h.nblocks) * sizeof(SummaryEntry));
  if (h.nredo > 0) {
    memcpy(s.redo.data(),
           at + static_cast<size_t>(h.nblocks) * sizeof(SummaryEntry),
           static_cast<size_t>(h.nredo) * sizeof(RedoRow));
  }
  return s;
}

Status CheckHeader(const RawHeader& h, size_t payload_available_blocks) {
  if (h.magic != kSummaryMagic) {
    return Status::Corruption("not a segment summary");
  }
  if (h.nblocks > Summary::MaxEntries() ||
      h.nblocks > payload_available_blocks ||
      h.nredo > Summary::MaxEntries() - h.nblocks) {
    return Status::Corruption("summary block count out of range");
  }
  return Status::OK();
}
}  // namespace

Result<Summary> Summary::Decode(const char* block, const char* payload,
                                size_t payload_available_blocks) {
  RawHeader h;
  memcpy(&h, block, sizeof(h));
  LFSTX_RETURN_IF_ERROR(CheckHeader(h, payload_available_blocks));
  // Re-CRC with the stored value zeroed.
  char copy[kBlockSize];
  memcpy(copy, block, kBlockSize);
  RawHeader zeroed = h;
  zeroed.crc = 0;
  memcpy(copy, &zeroed, sizeof(zeroed));
  uint32_t crc = crc32c::Value(copy, kBlockSize);
  crc = crc32c::Extend(crc, payload,
                       static_cast<size_t>(h.nblocks) * kBlockSize);
  if (crc32c::Mask(crc) != h.crc) {
    return Status::Corruption("segment summary CRC mismatch (torn write)");
  }
  return Parse(h, block);
}

Result<Summary> Summary::DecodeWithoutPayload(const char* block) {
  RawHeader h;
  memcpy(&h, block, sizeof(h));
  LFSTX_RETURN_IF_ERROR(CheckHeader(h, MaxEntries()));
  return Parse(h, block);
}

}  // namespace lfstx
