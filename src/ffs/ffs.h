// The conventional, read-optimized file system (paper's "read-optimized" /
// Sprite-FFS baseline): blocks get permanent disk addresses at allocation,
// modified blocks are overwritten in place, and a near-contiguous layout
// policy favors future sequential reads at the cost of random writes.
//
// On-disk layout (4 KiB blocks):
//   block 0                superblock
//   blocks 1..B            free-space bitmap
//   blocks B+1..B+I        inode table (16 inodes per block)
//   blocks B+I+1..end      data region
#ifndef LFSTX_FFS_FFS_H_
#define LFSTX_FFS_FFS_H_

#include <unordered_map>

#include "ffs/allocator.h"
#include "fs/vfs.h"

namespace lfstx {

/// \brief Read-optimized file system.
class Ffs : public FsCore {
 public:
  Ffs(SimEnv* env, SimDisk* disk, BufferCache* cache);
  ~Ffs() override;

  const char* fs_name() const override { return "read-optimized"; }
  Status Format() override;
  Status Mount() override;
  Status Unmount() override;
  Status SyncAll() override;
  Status SyncFile(InodeNum inum) override;

  // WritebackHandler: overwrite in place.
  Status WriteBack(Buffer* buf) override;

  uint64_t free_blocks() const { return bitmap_.free_count(); }

  // Layout introspection for the CheckFfs invariant checker (src/check/):
  // lets an external walker cross-check the allocation bitmap against the
  // blocks actually reachable from inodes.
  const BlockBitmap& bitmap() const { return bitmap_; }
  uint64_t data_start() const { return sb_.data_start; }
  uint64_t total_blocks() const { return sb_.total_blocks; }
  uint32_t max_inodes() const { return sb_.max_inodes; }
  bool inode_in_use(InodeNum inum) const {
    return inum < inode_used_.size() && inode_used_[inum];
  }

 protected:
  Status LoadInode(InodeNum inum, DiskInode* out) override;
  Result<InodeNum> AllocInodeNum() override;
  Status ReleaseInodeNum(Inode* ino) override;
  Status NoteInodeDirty(Inode* ino) override;
  Result<BlockAddr> AllocBlockAddr(Inode* ino) override;
  void ReleaseBlockAddr(BlockAddr addr) override;
  /// Readahead anywhere inside the data region (FFS places a file's blocks
  /// near-contiguously there); never into the bitmap / inode table.
  uint64_t ExtentLimitBlocks(BlockAddr addr) const override {
    if (addr < sb_.data_start || addr >= sb_.total_blocks) return 1;
    return sb_.total_blocks - addr;
  }

 private:
  struct Superblock {
    uint32_t magic = kMagic;
    uint32_t max_inodes = 0;
    uint64_t total_blocks = 0;
    uint64_t bitmap_start = 0;
    uint32_t bitmap_blocks = 0;
    uint64_t itable_start = 0;
    uint32_t itable_blocks = 0;
    uint64_t data_start = 0;
  };
  static constexpr uint32_t kMagic = 0x46465331;  // "FFS1"

  BlockAddr ItableBlockOf(InodeNum inum) const;
  uint32_t ItableSlotOf(InodeNum inum) const;
  /// Pinned buffer over the inode-table block holding `inum`.
  Result<Buffer*> GetItableBuffer(InodeNum inum);
  /// Copy dirty in-core inodes into their inode-table buffers.
  Status FlushDirtyInodes();
  Status WriteBitmap();
  /// Issue one batch of writes through the disk queue and wait for all.
  Status WriteBatch(std::vector<Buffer*> bufs);

  Superblock sb_;
  BlockBitmap bitmap_;
  bool bitmap_dirty_ = false;
  std::vector<bool> inode_used_;
  std::unordered_map<InodeNum, BlockAddr> alloc_hint_;
  BlockAddr file_rotor_ = 0;  // spreads first blocks of new files
  uint64_t sync_batches_ = 0;
  uint64_t sync_blocks_ = 0;
};

}  // namespace lfstx

#endif  // LFSTX_FFS_FFS_H_
