// On-disk and in-memory inode representation shared by both file systems
// (paper section 2: index structure with direct, indirect, and doubly
// indirect blocks; section 4.1: extended with a transaction-protected flag).
#ifndef LFSTX_FS_INODE_H_
#define LFSTX_FS_INODE_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "disk/disk_model.h"
#include "fs/fs_types.h"
#include "sim/clock.h"
#include "sim/sim_env.h"

namespace lfstx {

constexpr uint32_t kNumDirect = 12;
constexpr uint32_t kPtrsPerBlock = kBlockSize / sizeof(uint64_t);  // 512
constexpr uint32_t kDiskInodeSize = 256;
constexpr uint32_t kInodesPerBlock = kBlockSize / kDiskInodeSize;  // 16

/// Largest representable file, in blocks.
constexpr uint64_t kMaxFileBlocks =
    kNumDirect + kPtrsPerBlock + uint64_t{kPtrsPerBlock} * kPtrsPerBlock;

enum class FileType : uint16_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
};

/// Inode flag bits.
constexpr uint16_t kInodeFlagTxnProtected = 0x1;  ///< section 4.1

/// \brief The exact 256-byte on-disk inode.
struct DiskInode {
  uint32_t inum = kInvalidInode;
  uint16_t type = 0;        // FileType
  uint16_t flags = 0;
  uint32_t nlink = 0;
  uint32_t version = 0;     // LFS: bumped when the inode number is reused
  uint64_t size = 0;        // bytes
  uint64_t atime = 0;
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  uint64_t direct[kNumDirect] = {};
  uint64_t indirect = 0;        // 0 = unallocated (block 0 is a superblock)
  uint64_t double_indirect = 0;
  char pad[kDiskInodeSize - 160] = {};

  FileType file_type() const { return static_cast<FileType>(type); }
  bool txn_protected() const { return (flags & kInodeFlagTxnProtected) != 0; }
  uint64_t size_blocks() const { return (size + kBlockSize - 1) / kBlockSize; }
};
static_assert(sizeof(DiskInode) == kDiskInodeSize);

/// Serialize / deserialize at a given slot of a 4 KiB inode block.
void EncodeInode(const DiskInode& ino, char* block, uint32_t slot);
void DecodeInode(const char* block, uint32_t slot, DiskInode* out);

/// \brief In-memory inode: the disk image plus runtime state.
struct Inode {
  DiskInode d;
  int refcount = 0;   ///< open handles
  bool dirty = false; ///< inode itself needs to reach disk
  /// LFS: since the inode was last logged, something changed that
  /// roll-forward cannot redo from a summary — anything that went through
  /// NoteInodeDirty (create, truncate, links, flags, a cleaner relocation,
  /// a new direct or indirect block, an aborted append's size rollback).
  /// Block pointers and Write's size growth leave it alone. Cleared when a
  /// flush logs the inode together with its own blocks.
  bool attrs_dirty = false;
  /// LFS: an fsync or a transaction commit logged data blocks of this file
  /// that only its summaries' redo records map; its inode and indirect
  /// blocks are still dirty in core (DESIGN.md §14). Cleared when the inode
  /// is logged.
  bool deferred = false;
  /// LFS, while `deferred`: the write_seq and disk address of the chunk
  /// its redo record starts at, the first one a data block of the file was
  /// placed in since the inode was last logged. A checkpoint names the
  /// earliest as its redo point, and writes the file whole once its record
  /// began before the previous capture.
  uint64_t redo_seq = 0;
  uint64_t redo_addr = 0;

  /// Kernel-mode cleaner lock (paper section 5.1: "when the cleaner runs,
  /// it locks out all accesses to the particular files being cleaned").
  bool being_cleaned = false;
  std::unique_ptr<WaitQueue> clean_wait;  // lazily created by the cleaner
  /// A truncate or remove is releasing this file's blocks. The cleaner
  /// must not copy them meanwhile: a copy would dirty (and its flush pin)
  /// buffers the free is about to drop.
  bool freeing = false;

  /// Sequential-read detector for clustered readahead: the logical block a
  /// purely sequential reader would touch next. A read of this block (or of
  /// block 0, restarting a scan) is treated as sequential and may trigger
  /// readahead; anything else is random access and reads one block.
  uint64_t ra_next_lblock = 0;

  InodeNum num() const { return d.inum; }
  /// Cache/lock namespace of this file's data blocks.
  FileId data_file_id() const { return DataFileId(d.inum); }
  /// Cache namespace of this file's indirect blocks.
  FileId meta_file_id() const { return MetaFileId(d.inum); }

  static FileId DataFileId(InodeNum inum) { return inum; }
  static FileId MetaFileId(InodeNum inum) {
    return static_cast<FileId>(inum) | (1ull << 40);
  }
};

/// Meta-namespace logical block layout: 0 = single indirect block,
/// 1 = double-indirect root, 2+k = double-indirect child k.
constexpr uint64_t kMetaSingleIndirect = 0;
constexpr uint64_t kMetaDoubleRoot = 1;
constexpr uint64_t kMetaDoubleChildBase = 2;

}  // namespace lfstx

#endif  // LFSTX_FS_INODE_H_
