// LIBTP: the user-level transaction system of paper section 3 — WAL +
// two-phase locking, a user-level buffer pool, and subroutine-interface
// transaction begin/commit/abort. Runs identically on either file system;
// Figure 4's left and middle bars are this manager on FFS and LFS.
#ifndef LFSTX_LIBTP_TXN_MANAGER_H_
#define LFSTX_LIBTP_TXN_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "libtp/buffer_pool.h"
#include "libtp/log_manager.h"
#include "txn/lock_manager.h"
#include "txn/txn_id.h"

namespace lfstx {

/// \brief The LIBTP library instance.
class LibTp {
 public:
  struct Options {
    size_t pool_pages = 2048;  ///< user buffer pool (8 MB default)
    LogManager::Options log;
    /// Automatic checkpoint (flush pool + truncate log) once this much
    /// log has accumulated, taken at the next commit with no other
    /// transaction active.
    uint64_t checkpoint_log_bytes = 4 * 1024 * 1024;
  };

  struct Stats {
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t deadlocks = 0;
    uint64_t update_records = 0;
  };

  explicit LibTp(Kernel* kernel);
  LibTp(Kernel* kernel, Options options);
  ~LibTp();

  /// Open the log (creating it if needed) and run restart recovery.
  Status Open(const std::string& log_path);
  /// Open with recovery deferred: crash-test rigs open the log first,
  /// re-register the database files in creation order (via
  /// pool()->RegisterFile — the redo pass resolves file_refs positionally
  /// against the registry and rebuilds each file's page count), call
  /// Recover(), and only then Db::Open the relations.
  Status Open(const std::string& log_path, bool run_recovery);
  Status Close();

  // -- transaction interface (the section 3 subroutine interface) --
  Result<TxnId> Begin();
  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  // -- page access for the db layer --
  /// Lock (two-phase) then pin a page. Shared-memory latch costs apply to
  /// both the lock manager and pool (section 5.1's semaphore syscalls).
  Result<DbPage*> GetPage(TxnId txn, uint32_t file_ref, uint64_t pageno,
                          LockMode mode);
  /// Unpin an unmodified page.
  void PutPage(DbPage* page);
  /// Unpin a modified page: diffs against its snapshot, appends a
  /// before/after-image log record, stamps the page LSN, marks it dirty.
  Status PutPageDirty(TxnId txn, DbPage* page);
  /// Early lock release for B-tree interior pages (high-concurrency
  /// B-tree locking, section 3 / Lehman-Yao).
  void UnlockPage(TxnId txn, uint32_t file_ref, uint64_t pageno);

  /// Flush all dirty pages, then truncate the log if no transaction ran
  /// since the flush began, else write a checkpoint record. One checkpoint
  /// runs at a time.
  Status Checkpoint();
  /// Restart recovery: redo committed work, undo losers (called by Open).
  Status Recover();

  BufferPool* pool() { return &pool_; }
  LockManager* locks() { return &locks_; }
  LogManager* log() { return &log_; }
  Kernel* kernel() { return kernel_; }
  const Stats& stats() const { return stats_; }
  uint32_t active_count() const { return active_; }
  /// Transactions still in Running/Committing/Aborting (CheckTxn: must be
  /// zero at any quiescent point).
  size_t live_txn_count() const {
    size_t n = 0;
    for (const auto& [id, st] : txns_) {
      if (st.status == TxnStatus::kRunning ||
          st.status == TxnStatus::kCommitting ||
          st.status == TxnStatus::kAborting) {
        n++;
      }
    }
    return n;
  }

 private:
  struct TxnState {
    TxnStatus status = TxnStatus::kIdle;
    Lsn last_lsn = kNullLsn;
    /// LSN of the transaction's first log record (kNullLsn until it logs
    /// one). Checkpoints take the min over live transactions as the replay
    /// low-water mark.
    Lsn first_lsn = kNullLsn;
  };

  /// Apply `image` at (page, offset) with the given record LSN; used by
  /// abort and recovery.
  Status ApplyImage(uint32_t file_ref, uint64_t pageno, uint32_t offset,
                    const std::string& image, Lsn stamp_lsn);

  Kernel* kernel_;
  Options options_;
  LogManager log_;
  BufferPool pool_;
  LockManager locks_;
  TxnIdAllocator ids_;
  std::unordered_map<TxnId, TxnState> txns_;
  uint32_t active_ = 0;
  Lsn last_checkpoint_lsn_ = 0;
  /// A checkpoint is running; later ones wait for it.
  bool checkpointing_ = false;
  /// The running checkpoint decided to truncate the log: Begin waits until
  /// the truncated log's header is durable.
  bool truncating_ = false;
  WaitQueue checkpoint_wait_;  ///< woken when either flag clears
  Stats stats_;
};

}  // namespace lfstx

#endif  // LFSTX_LIBTP_TXN_MANAGER_H_
