// On-disk segment format of the log-structured file system.
//
// The disk beyond the superblock and the two checkpoint regions is divided
// into fixed-size segments (default 128 blocks = 512 KiB). Each *write* to
// the log is a "partial segment": one summary block followed by nblocks of
// data / indirect / inode / inode-map blocks, all transferred in a single
// contiguous disk request (this is the whole point — section 2).
//
// The summary records, per following block, which (inode, logical block) it
// holds (the usage table keeps the same owners in memory for the cleaner,
// segment_usage.h), and carries a CRC over the summary *and* the payload
// so recovery can detect torn writes. Summaries chain: each one names the
// disk address where the next summary will be written, which is what
// roll-forward follows after a crash.
//
// Transaction atomicity (embedded manager): a partial segment written on
// behalf of a transaction commit carries the txn id; the chunk that
// completes the commit sets txn_commit. Roll-forward stages tagged inode /
// imap updates and applies them only if the commit marker is reached.
//
// Deferred metadata (DESIGN.md §14): a flush that logs a file's data blocks
// without its inode and indirect blocks (an fsync, or a transaction commit)
// lists that file and its size in every chunk's redo table. The table is
// then the redo record roll-forward re-applies: the chunk's data entries for
// a listed file give its new block addresses. The flush's last chunk sets
// redo_final (for a commit, the chunk with the commit marker), and the
// record holds only if that chunk is in the chain.
#ifndef LFSTX_LFS_SEGMENT_H_
#define LFSTX_LFS_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "fs/fs_types.h"

namespace lfstx {

constexpr uint32_t kDefaultSegmentBlocks = 128;  // 512 KiB
constexpr uint32_t kSummaryMagic = 0x53554D31;   // "SUM1"

/// What a block in a partial segment contains.
enum class BlockKind : uint32_t {
  kData = 1,      ///< file data block (inum, file lblock)
  kIndirect = 2,  ///< indirect block (inum, meta-namespace lblock)
  kInode = 3,     ///< packed DiskInodes (self-describing)
  kImap = 4,      ///< inode-map block (lblock = imap block index)
};

/// One per payload block in the partial segment.
struct SummaryEntry {
  uint32_t kind = 0;
  InodeNum inum = kInvalidInode;
  uint64_t lblock = 0;
};
static_assert(sizeof(SummaryEntry) == 16);

/// One row of a summary's redo table: a file whose data entries in the
/// chunk map blocks no logged inode names yet, and its size in bytes. Rows
/// follow the entries in the summary block and take an entry's room.
struct RedoRow {
  InodeNum inum = kInvalidInode;
  uint32_t pad = 0;
  uint64_t size = 0;
};
static_assert(sizeof(RedoRow) == sizeof(SummaryEntry));

/// \brief Decoded partial-segment summary.
struct Summary {
  uint64_t write_seq = 0;    ///< global monotonic partial-segment counter
  uint64_t timestamp = 0;    ///< virtual time of the write
  uint32_t generation = 0;   ///< of the containing segment (stale detection)
  BlockAddr next_addr = kInvalidBlock;  ///< where the next summary will go
  TxnId txn = kNoTxn;        ///< commit this chunk belongs to, if any
  bool txn_commit = false;   ///< this chunk completes `txn`'s commit
  /// The files the flush logged without their inodes, each with its size;
  /// every chunk of the flush carries the whole table.
  std::vector<RedoRow> redo;
  /// This chunk ends the flush: its redo record holds only once this chunk
  /// is in the chain.
  bool redo_final = false;
  std::vector<SummaryEntry> entries;

  uint32_t nblocks() const { return static_cast<uint32_t>(entries.size()); }

  /// Max payload blocks plus redo rows one summary block can describe.
  static uint32_t MaxEntries();

  /// Serialize into a 4 KiB summary block. `payload` (nblocks * 4 KiB) is
  /// covered by the CRC but not copied.
  void Encode(char* block, const char* payload) const;

  /// Parse + verify a summary block against its payload. Returns
  /// kCorruption for bad magic/CRC (i.e. end of log or torn write).
  static Result<Summary> Decode(const char* block, const char* payload,
                                size_t payload_available_blocks);

  /// Parse the summary block alone, without the CRC check, which needs the
  /// payload: for chunks a durable checkpoint vouches for (a redo span).
  static Result<Summary> DecodeWithoutPayload(const char* block);

  /// Parse the header only (enough to learn nblocks), without CRC check.
  static Result<uint32_t> PeekNBlocks(const char* block);
};

}  // namespace lfstx

#endif  // LFSTX_LFS_SEGMENT_H_
