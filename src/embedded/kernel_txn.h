// The embedded (kernel) transaction manager of paper section 4.
//
// Transaction protection is a file attribute; the read/write system calls
// of protected files acquire page locks through the kernel lock table
// (OnPageAccess hook), dirtied pages go onto the inode's transaction
// buffer list instead of the dirty list, and:
//   txn_abort  — traverse the lock chain, release locks, invalidate the
//                transaction's buffers (the on-disk before-images, which
//                LFS never overwrote, remain the visible versions);
//   txn_commit — move the buffers to the dirty list, force them to disk
//                as segment writes (no separate log!), release locks when
//                the writes have completed.
// Group commit (section 4.4) batches concurrent commits into one segment
// write; at multiprogramming level 1 it adaptively degenerates to an
// immediate flush.
#ifndef LFSTX_EMBEDDED_KERNEL_TXN_H_
#define LFSTX_EMBEDDED_KERNEL_TXN_H_

#include <map>
#include <unordered_map>

#include "embedded/group_commit.h"
#include "lfs/lfs.h"
#include "txn/lock_manager.h"
#include "txn/txn_id.h"

namespace lfstx {

/// \brief Kernel transaction module (sections 4.1-4.4).
class EmbeddedTxnManager : public TxnHooks {
 public:
  struct Options {
    GroupCommitOptions group_commit;
  };

  struct Stats {
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t deadlocks = 0;
  };

  EmbeddedTxnManager(SimEnv* env, Lfs* lfs);
  EmbeddedTxnManager(SimEnv* env, Lfs* lfs, Options options);
  ~EmbeddedTxnManager();

  // System-call bodies (the Kernel facade charges the trap overhead).
  Status TxnBegin();
  Status TxnCommit();
  Status TxnAbort();

  /// TxnHooks: called per page from the read/write path of protected files.
  Result<TxnId> OnPageAccess(Inode* inode, uint64_t lblock,
                             bool is_write) override;

  /// Transaction of the calling process (kNoTxn if none).
  TxnId CurrentTxn() const;
  uint32_t active_count() const { return active_; }
  /// Per-process transaction slots still in Running/Committing/Aborting
  /// (CheckTxn: must be zero at any quiescent point).
  size_t live_txn_count() const {
    size_t n = 0;
    for (const auto& [proc, st] : by_proc_) {
      if (st.status == TxnStatus::kRunning ||
          st.status == TxnStatus::kCommitting ||
          st.status == TxnStatus::kAborting) {
        n++;
      }
    }
    return n;
  }
  const LockManager* locks() const { return &locks_; }
  GroupCommit* group_commit() { return &gc_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Per-process transaction state (the process-state extension of 4.1).
  struct TxnState {
    TxnId id = kNoTxn;
    TxnStatus status = TxnStatus::kIdle;
    /// File sizes at first touch, to roll back aborted extensions.
    std::map<InodeNum, uint64_t> size_at_first_touch;
  };

  TxnState* CurrentState();
  const TxnState* CurrentState() const;

  SimEnv* env_;
  Lfs* lfs_;
  Options options_;
  /// The kernel lock table (section 4.1): page locks by (file, block),
  /// chained by transaction for commit and abort. Locking charges nothing
  /// beyond the system call the caller already paid for, the asymmetry
  /// section 5.1 measures against LIBTP's user-level semaphores.
  LockManager locks_;
  TxnIdAllocator ids_;
  GroupCommit gc_;
  std::unordered_map<SimProc*, TxnState> by_proc_;
  uint32_t active_ = 0;
  Stats stats_;
};

}  // namespace lfstx

#endif  // LFSTX_EMBEDDED_KERNEL_TXN_H_
