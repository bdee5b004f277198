// The file system interface and FsCore, the implementation shared by both
// file systems: inode lifecycle, hierarchical directories, and the byte
// read/write data path through the buffer cache.
//
// FFS and LFS differ only in the virtuals: where inodes live, how block
// addresses are allocated (eagerly in place vs. lazily at segment-write
// time), and how dirty buffers reach the disk.
#ifndef LFSTX_FS_VFS_H_
#define LFSTX_FS_VFS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/buffer_cache.h"
#include "common/slice.h"
#include "common/status.h"
#include "disk/sim_disk.h"
#include "fs/directory.h"
#include "fs/inode.h"
#include "fs/path.h"
#include "sim/sim_env.h"

namespace lfstx {

/// \brief stat() result.
struct FileStat {
  InodeNum inum = kInvalidInode;
  FileType type = FileType::kFree;
  uint64_t size = 0;
  uint32_t nlink = 0;
  bool txn_protected = false;
  SimTime mtime = 0;
};

/// \brief Per-page transaction hook installed by the embedded transaction
/// manager (section 4.2: read/write system calls request page locks on
/// transaction-protected files).
class TxnHooks {
 public:
  virtual ~TxnHooks() = default;
  /// Called for each page of a *transaction-protected* file touched by
  /// read/write. Acquires the page lock, blocking if necessary. Returns the
  /// transaction that should own dirtied buffers, or kNoTxn when the
  /// calling process has no active transaction. Errors (e.g. kDeadlock)
  /// abort the file operation.
  virtual Result<TxnId> OnPageAccess(Inode* inode, uint64_t lblock,
                                     bool is_write) = 0;
};

/// \brief Public file system API (identical for FFS and LFS, and identical
/// for protected and unprotected files — the paper's design requirement).
class FileSystem : public WritebackHandler {
 public:
  ~FileSystem() override = default;

  virtual const char* fs_name() const = 0;
  virtual Status Format() = 0;
  virtual Status Mount() = 0;
  virtual Status Unmount() = 0;

  // -- namespace operations (absolute paths) --
  virtual Status Mkdir(const std::string& path) = 0;
  virtual Result<InodeNum> Create(const std::string& path) = 0;
  virtual Result<InodeNum> Open(const std::string& path) = 0;
  virtual Status Close(InodeNum inum) = 0;
  virtual Result<InodeNum> LookupPath(const std::string& path) = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Status ReadDir(const std::string& path,
                         std::vector<DirEntry>* out) = 0;
  virtual Status Stat(const std::string& path, FileStat* out) = 0;
  virtual Status StatInode(InodeNum inum, FileStat* out) = 0;

  // -- data operations --
  virtual Result<size_t> Read(InodeNum inum, uint64_t offset, size_t n,
                              char* out) = 0;
  virtual Status Write(InodeNum inum, uint64_t offset, Slice data) = 0;
  virtual Status Truncate(InodeNum inum, uint64_t new_size) = 0;

  // -- durability --
  virtual Status SyncFile(InodeNum inum) = 0;
  virtual Status SyncAll() = 0;

  // -- transaction protection attribute (section 4: "like protections or
  // access control lists ... turned on or off through a provided utility") --
  virtual Status SetTxnProtected(const std::string& path, bool on) = 0;

  /// Observability annotation (not a simulated syscall): tag `inum` as a
  /// write-ahead-log file so the byte-provenance accountant charges its
  /// blocks to LogByteCat::kWal instead of user data, and excludes its
  /// appends from the wa.logical denominator. In-core only — the log
  /// manager re-tags its file on every Open.
  virtual void MarkWalFile(InodeNum inum) { (void)inum; }
};

/// Default clustered-readahead window, in 4 KiB blocks (128 KiB — one LFS
/// segment is 512 KiB, so a window always fits inside a segment).
constexpr uint32_t kDefaultReadaheadBlocks = 32;

/// \brief Shared implementation core. See file comment.
class FsCore : public FileSystem {
 public:
  FsCore(SimEnv* env, SimDisk* disk, BufferCache* cache);

  void set_txn_hooks(TxnHooks* hooks) { hooks_ = hooks; }

  /// Clustered-readahead window in blocks; 0 or 1 disables readahead. A
  /// sequential cold read fetches up to this many blocks of the surrounding
  /// contiguous extent in ONE disk request (one seek + one rotational
  /// settle + N track transfers) and installs the extra blocks as clean
  /// prefetched cache frames. The effective window is further bounded by
  /// cache pressure (a quarter of the cache) and by ExtentLimitBlocks().
  void set_readahead_window(uint32_t blocks) { readahead_window_ = blocks; }
  uint32_t readahead_window() const { return readahead_window_; }
  SimEnv* env() const { return env_; }
  SimDisk* disk() const { return disk_; }
  BufferCache* cache() const { return cache_; }

  Status Mkdir(const std::string& path) override;
  Result<InodeNum> Create(const std::string& path) override;
  Result<InodeNum> Open(const std::string& path) override;
  Status Close(InodeNum inum) override;
  Result<InodeNum> LookupPath(const std::string& path) override;
  Status Remove(const std::string& path) override;
  Status ReadDir(const std::string& path, std::vector<DirEntry>* out) override;
  Status Stat(const std::string& path, FileStat* out) override;
  Status StatInode(InodeNum inum, FileStat* out) override;

  Result<size_t> Read(InodeNum inum, uint64_t offset, size_t n,
                      char* out) override;
  Status Write(InodeNum inum, uint64_t offset, Slice data) override;
  Status Truncate(InodeNum inum, uint64_t new_size) override;
  Status SetTxnProtected(const std::string& path, bool on) override;

  void MarkWalFile(InodeNum inum) override { wal_inums_.insert(inum); }
  /// True iff `f` is the data or meta file of a WAL-tagged inode. The
  /// global meta namespaces (itable, imap) are never WAL.
  bool IsWalFile(FileId f) const {
    if (f == kMetaFileId || f == kInodeMapFileId) return false;
    return wal_inums_.count(static_cast<InodeNum>(f & 0xffffffffu)) != 0;
  }

  /// In-core inode for `inum`, loading it if necessary.
  Result<Inode*> GetInode(InodeNum inum);

  /// Current on-disk address of a file block; kInvalidBlock when the block
  /// is sparse or only exists as a dirty buffer not yet assigned a home.
  Result<BlockAddr> MapBlock(Inode* ino, uint64_t lblock);

  /// Update the mapping entry for a block (used by the LFS segment writer
  /// when it assigns log addresses, and by the cleaner). Returns the
  /// previous address. Marks the affected metadata dirty.
  Result<BlockAddr> SetBlockMapping(Inode* ino, uint64_t lblock,
                                    BlockAddr addr);

  /// Update the on-disk home of an *indirect* block (meta-namespace
  /// lblock): 0 updates inode.indirect, 1 updates inode.double_indirect,
  /// 2+k updates entry k of the double-indirect root. Returns the previous
  /// home (kInvalidBlock if none).
  Result<BlockAddr> SetMetaBlockMapping(Inode* ino, uint64_t meta_lblock,
                                        BlockAddr addr);

  /// Current on-disk home of an indirect block (see SetMetaBlockMapping).
  Result<BlockAddr> GetMetaBlockHome(Inode* ino, uint64_t meta_lblock);

  /// Put back the size an aborted transaction's appends grew (embedded
  /// TxnAbort). An attribute change, like a truncate: the inode reaches
  /// disk with the next write, whole, even if a flush already logged the
  /// grown size.
  Status RollBackSize(Inode* ino, uint64_t size);

 protected:
  // ---- FS-specific policy, supplied by FFS / LFS ----

  /// Read inode `inum` from its on-disk home.
  virtual Status LoadInode(InodeNum inum, DiskInode* out) = 0;
  /// Reserve a fresh inode number.
  virtual Result<InodeNum> AllocInodeNum() = 0;
  /// Return an inode number to the free pool (file fully deleted).
  virtual Status ReleaseInodeNum(Inode* ino) = 0;
  /// The inode's fields changed; schedule it to reach disk.
  virtual Status NoteInodeDirty(Inode* ino) = 0;
  /// The inode's block pointers changed, or Write grew its size: state a
  /// summary can carry (LFS roll-forward redoes it). Same as
  /// NoteInodeDirty unless the file system tells them apart.
  virtual Status NoteMapDirty(Inode* ino) { return NoteInodeDirty(ino); }
  /// Allocate an on-disk address for a new block of `ino` (FFS), or return
  /// kInvalidBlock if addresses are assigned at write-back time (LFS).
  virtual Result<BlockAddr> AllocBlockAddr(Inode* ino) = 0;
  /// A block address was unmapped (overwrite, truncate, delete).
  virtual void ReleaseBlockAddr(BlockAddr addr) = 0;
  /// Block the caller while `ino` is locked by the kernel cleaner; default
  /// no-op (FFS has no cleaner).
  virtual Status EnterDataPath(Inode* ino) { (void)ino; return Status::OK(); }
  /// How many blocks starting at disk address `addr` one clustered read may
  /// cover before crossing an FS placement boundary (LFS: the end of the
  /// containing segment; FFS: the end of the data region). The readahead
  /// scan never crosses this limit, so a request stays within one unit the
  /// disk can service with a single seek. Must return >= 1 for any address
  /// MapBlock can produce.
  virtual uint64_t ExtentLimitBlocks(BlockAddr addr) const {
    (void)addr;
    return kMaxFileBlocks;  // base: no FS-specific boundary
  }

  // ---- shared machinery used by subclasses ----

  /// Allocate + initialize the root directory (called from Format()).
  Status InitRoot();
  /// Drop all in-core inodes (called from Unmount()).
  void ClearInodeTable();
  /// Walk every in-core dirty inode (FFS sync).
  std::vector<Inode*> DirtyInodes();
  /// Every in-core inode, in inode-number order (LFS segment writer).
  std::vector<Inode*> InCoreInodes() const;
  /// The in-core inode for `inum`, or null; never loads.
  Inode* FindInCore(InodeNum inum) const;
  /// Resolve a path to an inode, charging directory scan CPU.
  Result<Inode*> Resolve(const std::string& path);
  Result<Inode*> ResolveParent(const std::string& path, std::string* name);
  /// Insert an in-core inode built by recovery / format paths.
  Inode* InstallInode(const DiskInode& d);
  /// True if any in-core inode is open.
  bool AnyOpenFiles() const;

  SimEnv* env_;
  SimDisk* disk_;
  BufferCache* cache_;
  TxnHooks* hooks_ = nullptr;
  bool mounted_ = false;
  /// Inodes tagged as WAL files (see MarkWalFile); drives byte provenance.
  std::unordered_set<InodeNum> wal_inums_;

 private:
  enum class Access { kRead, kWritePartial, kWriteWhole };
  /// Pinned, valid data buffer for (ino, lblock); for writes, materializes
  /// the mapping chain first and sets buf->disk_addr to the block's home.
  Result<Buffer*> GetDataBuffer(Inode* ino, uint64_t lblock, Access access);
  /// Materialize the metadata chain for a write to `lblock` (allocating
  /// real addresses under FFS; just cache presence under LFS).
  Status EnsureMapped(Inode* ino, uint64_t lblock);
  /// Pinned metadata buffer (indirect block) by meta-namespace lblock.
  Result<Buffer*> GetMetaBuffer(Inode* ino, uint64_t meta_lblock,
                                BlockAddr home);
  /// Cache-miss load for a sequential read: fetch `addr` (home of `lblock`)
  /// plus the following contiguous, uncached, intra-extent blocks of `ino`
  /// in ONE disk request; the demand block lands in `dst`, the rest are
  /// installed as clean prefetched cache frames.
  Status ReadClustered(Inode* ino, uint64_t lblock, BlockAddr addr, char* dst);
  Result<TxnId> MaybeLock(Inode* ino, uint64_t lblock, bool write);

  // Directory plumbing.
  Status AddDirEntry(Inode* dir, const std::string& name, InodeNum inum);
  Status RemoveDirEntry(Inode* dir, const std::string& name);
  Result<InodeNum> FindInDir(Inode* dir, const std::string& name);
  Result<size_t> CountDirEntries(Inode* dir);

  Status FreeFileBlocks(Inode* ino, uint64_t from_block);

  uint32_t readahead_window_ = kDefaultReadaheadBlocks;
  std::unordered_map<InodeNum, std::unique_ptr<Inode>> inodes_;
};

}  // namespace lfstx

#endif  // LFSTX_FS_VFS_H_
