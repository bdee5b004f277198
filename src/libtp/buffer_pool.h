// The user-level buffer manager of section 3: "to reduce disk traffic, the
// system maintains a least-recently-used (LRU) buffer cache of database
// pages in shared memory".
//
// Every pool operation acquires and releases a shared-memory latch; on the
// paper's DECstation (no hardware test-and-set) each latch operation is a
// semaphore system call — SimEnv::LatchOp charges accordingly, and this is
// the entire user-vs-kernel performance gap of Figure 4.
//
// Steal/no-force with the WAL rule: a dirty page may be written back any
// time, but only after the log covering its last update is durable.
#ifndef LFSTX_LIBTP_BUFFER_POOL_H_
#define LFSTX_LIBTP_BUFFER_POOL_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/machine.h"
#include "libtp/log_manager.h"

namespace lfstx {

/// \brief A database page pinned in the user-level pool.
struct DbPage {
  char data[kBlockSize];
  uint32_t file_ref = 0;
  uint64_t pageno = 0;
  bool dirty = false;
  int pins = 0;
  /// Snapshot taken when the page was fetched with write intent; the
  /// before/after diff becomes the log record. Dropped with the last pin.
  std::unique_ptr<std::string> snapshot;

  std::list<DbPage*>::iterator lru_pos;
  bool in_lru = false;

  /// Page LSN lives in the first 8 bytes of every database page.
  Lsn lsn() const;
  void set_lsn(Lsn lsn);
};

/// \brief User-level LRU page cache over files accessed with read()/write().
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_writebacks = 0;
  };

  BufferPool(Kernel* kernel, LogManager* log, size_t capacity_pages);
  ~BufferPool();

  /// Open (or create) a database file; returns a small registry handle.
  Result<uint32_t> RegisterFile(const std::string& path, bool create);
  Status CloseAll();

  /// Pinned page; loads through a read() system call on a miss. With
  /// `write_intent` a pre-image snapshot is taken for later diff-logging.
  Result<DbPage*> Get(uint32_t file_ref, uint64_t pageno, bool write_intent);
  /// Unpin without modification.
  void Release(DbPage* page);
  /// Unpin a modified page: marks dirty. (Logging is the TxnManager's job,
  /// via the snapshot.)
  void ReleaseDirty(DbPage* page);

  /// True if the page is in the pool. Never loads, pins or charges.
  bool Resident(uint32_t file_ref, uint64_t pageno) const {
    return pages_.count(Key{file_ref, pageno}) != 0;
  }

  /// Pages currently in the file (grows via AllocPage).
  Result<uint64_t> FilePages(uint32_t file_ref);
  /// Redo hook: a log record proves `pageno` existed at crash time, so the
  /// registered page count (rebuilt from the possibly stale on-disk size)
  /// must cover it.
  void NoteRecoveredPage(uint32_t file_ref, uint64_t pageno) {
    if (pageno >= files_[file_ref].pages) {
      files_[file_ref].pages = pageno + 1;
    }
  }
  /// Extend the file by one zeroed page; returns its page number.
  Result<uint64_t> AllocPage(uint32_t file_ref);

  /// Write every dirty page back (checkpoint / shutdown path).
  Status FlushAll();
  /// Fsync every registered file: a checkpoint's page write-backs must
  /// reach the platter before the WAL below them is truncated or clamped
  /// by the low-water mark.
  Status FsyncAll();

  Kernel* kernel() const { return kernel_; }
  size_t file_count() const { return files_.size(); }
  const Stats& stats() const { return stats_; }
  const std::string& file_path(uint32_t file_ref) const;
  InodeNum file_inode(uint32_t file_ref) const;

 private:
  struct FileEntry {
    std::string path;
    InodeNum ino = kInvalidInode;
    uint64_t pages = 0;
  };
  struct Key {
    uint32_t file_ref;
    uint64_t pageno;
    bool operator<(const Key& o) const {
      return file_ref != o.file_ref ? file_ref < o.file_ref
                                    : pageno < o.pageno;
    }
  };

  Status WriteBackPage(DbPage* page);
  /// Drop one pin, and the pre-image snapshot with the last one.
  void Unpin(DbPage* page);
  Status EvictOne();
  void TouchLru(DbPage* page);

  Kernel* kernel_;
  LogManager* log_;
  size_t capacity_;
  std::vector<FileEntry> files_;
  std::map<Key, std::unique_ptr<DbPage>> pages_;
  std::list<DbPage*> lru_;
  Stats stats_;
};

}  // namespace lfstx

#endif  // LFSTX_LIBTP_BUFFER_POOL_H_
