// The inode map ("inode map blocks" of Figure 1): inode number -> current
// log address of the inode, plus a version for inode-number reuse. The
// in-memory table is authoritative. As in Sprite LFS, dirty map blocks are
// serialized into the log only ahead of a checkpoint capture, during a
// cleaning pass, and after an inode is freed; their block addresses are
// recorded in the checkpoint. Roll-forward rebuilds every other change
// from the inode blocks written after the checkpoint.
#ifndef LFSTX_LFS_INODE_MAP_H_
#define LFSTX_LFS_INODE_MAP_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "fs/fs_types.h"

namespace lfstx {

struct ImapEntry {
  BlockAddr inode_addr = 0;  ///< 0 = free / never written
  uint32_t version = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(ImapEntry) == 16);

constexpr uint32_t kImapEntriesPerBlock = kBlockSize / sizeof(ImapEntry);

/// \brief In-memory inode map with per-block dirty tracking.
class InodeMap {
 public:
  explicit InodeMap(uint32_t max_inodes);

  uint32_t max_inodes() const { return max_inodes_; }
  uint32_t nblocks() const { return nblocks_; }

  const ImapEntry& Get(InodeNum inum) const;
  /// Update an entry, marking its map block dirty. Returns the previous
  /// inode address (0 if none) so the caller can decrement segment usage.
  BlockAddr Set(InodeNum inum, BlockAddr inode_addr, uint32_t version);
  /// Free an entry (file deleted): clears the address, bumps the version.
  BlockAddr Free(InodeNum inum);

  bool InUse(InodeNum inum) const {
    return Get(inum).inode_addr != 0 || reserved_.count(inum) != 0;
  }
  /// Reserve a free inode number. The reservation holds until the inode's
  /// first flush (Set) or deletion (Free), so consecutive allocations never
  /// hand out the same number.
  Result<InodeNum> AllocInum();

  /// Which map blocks changed since the last ClearDirty.
  std::vector<uint32_t> DirtyBlocks() const;
  void MarkBlockDirty(uint32_t block_idx);
  void ClearDirty();

  /// Serialize map block `idx` into a 4 KiB buffer / load it back.
  void EncodeBlock(uint32_t idx, char* out) const;
  void DecodeBlock(uint32_t idx, const char* in);

  /// Current on-disk address of each map block (0 = never written).
  std::vector<BlockAddr>& block_addrs() { return block_addrs_; }
  const std::vector<BlockAddr>& block_addrs() const { return block_addrs_; }

  /// Bumped by every logical mutation of the mapping (Set/Free/DecodeBlock,
  /// not reservations or dirty-bit churn). GenStamp<InodeMap> assertions
  /// and the `gens` checker use it to prove no foreign mutation occurred
  /// across a region that assumed the map was stable (see
  /// check/gen_stamp.h).
  uint64_t mutation_gen() const { return mutation_gen_; }

 private:
  uint32_t BlockOf(InodeNum inum) const { return inum / kImapEntriesPerBlock; }

  uint32_t max_inodes_;
  uint32_t nblocks_;
  std::vector<ImapEntry> entries_;     // indexed by inum, [0..max_inodes]
  std::vector<bool> dirty_;            // per map block
  std::vector<BlockAddr> block_addrs_; // per map block
  std::set<InodeNum> reserved_;        // allocated but never yet flushed
  uint64_t mutation_gen_ = 0;
};

}  // namespace lfstx

#endif  // LFSTX_LFS_INODE_MAP_H_
