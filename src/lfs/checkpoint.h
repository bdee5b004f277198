// Checkpoint regions: two fixed areas written alternately. A checkpoint
// snapshots the inode-map block addresses, the segment usage table, the
// log write position (with the successor segment when the write point is
// at a segment's end) and the redo point: the earliest chunk whose redo
// record a file still deferred at the capture needs (DESIGN.md §14).
// Recovery loads the newer valid one and rolls the log forward from the
// redo point.
#ifndef LFSTX_LFS_CHECKPOINT_H_
#define LFSTX_LFS_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "fs/fs_types.h"
#include "sim/clock.h"

namespace lfstx {

class SegmentUsage;

constexpr uint32_t kNoSegment = ~0u;

/// \brief Everything a checkpoint persists.
struct CheckpointData {
  uint64_t seq = 0;             ///< monotonic checkpoint counter
  SimTime timestamp = 0;
  uint32_t cur_segment = 0;     ///< write point at checkpoint time
  uint32_t cur_offset = 0;
  uint32_t cur_generation = 0;
  /// Where the log continues when the write point leaves no room for a
  /// chunk (the successor the last summary named), else kNoSegment.
  uint32_t next_segment = kNoSegment;
  uint64_t next_write_seq = 0;  ///< expected seq of the next partial segment
  /// The redo point: the earliest chunk a file deferred at the capture
  /// needs. Equal to next_write_seq (and redo_addr unused) when no file
  /// was deferred.
  uint64_t redo_seq = 0;
  BlockAddr redo_addr = kInvalidBlock;
  std::vector<BlockAddr> imap_addrs;
  std::vector<char> usage_bytes;  ///< SegmentUsage::Serialize output

  /// Blocks needed to hold a checkpoint with these table sizes.
  static uint32_t BlocksNeeded(uint32_t n_imap_blocks, uint32_t nsegments);

  /// Serialize into `nblocks` 4 KiB blocks (CRC-protected).
  void Encode(char* out, uint32_t nblocks) const;
  static Result<CheckpointData> Decode(const char* in, uint32_t nblocks);
};

}  // namespace lfstx

#endif  // LFSTX_LFS_CHECKPOINT_H_
