// User-level write-ahead log manager. Appends are buffered in user space;
// FlushTo writes the tail through write()/fsync() system calls. A caller
// that finds a flush in flight waits for it; when that flush did not cover
// its records, it leads the next one, which writes everything appended
// meanwhile, so concurrent committers share an fsync (group commit, DeWitt
// et al. [3]).
#ifndef LFSTX_LIBTP_LOG_MANAGER_H_
#define LFSTX_LIBTP_LOG_MANAGER_H_

#include <functional>
#include <string>

#include "harness/machine.h"
#include "libtp/log_record.h"
#include "sim/sync.h"

namespace lfstx {

/// \brief Append-only WAL over a regular file.
class LogManager {
 public:
  struct Options {
    /// Preallocate the log file to this size at creation so appends stay
    /// inside a contiguous, already-mapped region (no inode updates on the
    /// fsync path — the classic dedicated-log-region setup the paper's
    /// user-level system assumes). Truncation reuses the region in place;
    /// record epochs prevent stale replay.
    uint64_t preallocate_bytes = 8 * 1024 * 1024;
  };

  struct Stats {
    uint64_t records = 0;
    uint64_t flushes = 0;       ///< fsync batches
    uint64_t bytes_appended = 0;
  };

  explicit LogManager(Kernel* kernel);
  LogManager(Kernel* kernel, Options options);
  ~LogManager();

  /// Create/open the log file.
  Status Open(const std::string& path);
  Status Close();

  /// Append a record (buffered). Fills rec->prev_lsn's successor chain via
  /// the caller; returns the record's LSN.
  Result<Lsn> Append(const LogRecord& rec);

  /// Make everything up to and including `lsn` durable. `txn` identifies
  /// the committing transaction (kNoTxn for non-commit flushes: buffer
  /// pool WAL pushes, truncation, close); it names the group-commit
  /// leader in blame attribution (wait_edge events,
  /// blame.log.leader_us).
  Status FlushTo(Lsn lsn, TxnId txn = kNoTxn);

  /// Read one record at `lsn` (served from the user-space tail when not
  /// yet flushed).
  Result<LogRecord> ReadRecord(Lsn lsn);

  /// \brief Forward pass over the log. Records below the user-space tail
  /// come from the log file in block-sized chunks, decoded from the
  /// reader's own buffer: one read() per block, not one per record. Each
  /// record decodes exactly as ReadRecord decodes it.
  class Reader {
   public:
    /// The record at lsn(), advancing past it. Corruption at a torn
    /// record or one from a previous epoch: the end of the log.
    Result<LogRecord> Next();
    /// LSN of the record the next Next() returns.
    Lsn lsn() const { return lsn_; }

   private:
    friend class LogManager;
    Reader(LogManager* log, Lsn from, Lsn tail_base)
        : log_(log), lsn_(from), tail_base_(tail_base), buf_lsn_(from) {}
    /// Buffers the bytes at lsn_ that ReadRecord would read there.
    Status Fill();

    LogManager* log_;
    Lsn lsn_;
    Lsn tail_base_;  ///< records from here on come from the tail
    std::string buf_;  ///< log file bytes starting at buf_lsn_
    Lsn buf_lsn_;
    bool eof_ = false;  ///< a read stopped at the end of the file
  };

  /// A Reader at `from` (clamped to the truncation point). `from` must be
  /// a record-start LSN — the checkpoint low-water mark always is.
  Reader ReadFrom(Lsn from);

  /// Scan the whole retained log in order; stops cleanly at a torn tail.
  Status ScanAll(
      const std::function<Status(Lsn, const LogRecord&)>& fn);

  /// Scan starting at `from` through a Reader, stopping cleanly at a
  /// torn tail.
  Status ScanFrom(Lsn from,
                  const std::function<Status(Lsn, const LogRecord&)>& fn);

  /// Persist the checkpoint position and the replay low-water mark in the
  /// log file header (one header write + fsync). The low-water mark is
  /// the min of the checkpoint-begin LSN and every live transaction's
  /// first LSN: all page updates below it are flushed, so redo may start
  /// there, and no loser has records before it, so undo stays complete.
  Status SetCheckpointLwm(Lsn checkpoint_lsn, Lsn low_water);

  /// Discard all records (checkpoint truncation). Only valid when no
  /// transaction is active; LSNs remain monotonic across truncations via
  /// the base-LSN header at the front of the log file.
  Status Truncate();

  Lsn next_lsn() const { return next_lsn_; }
  Lsn durable_lsn() const { return durable_lsn_; }
  /// LSN of the first retained record (truncation point).
  Lsn base_lsn() const { return base_lsn_; }
  /// LSN of the last checkpoint record (0 = none since truncation).
  Lsn checkpoint_lsn() const { return checkpoint_lsn_; }
  /// Replay may start here; 0 (pre-LWM log files) means scan everything.
  Lsn low_water_lsn() const { return low_water_lsn_; }
  /// Differential-recovery test hook: forget the low-water mark so the
  /// next Recover scans from the truncation point.
  void IgnoreLwmForTest() { low_water_lsn_ = 0; }
  uint32_t epoch() const { return epoch_; }
  const Stats& stats() const { return stats_; }

 private:
  Status WriteHeader();
  Kernel* kernel_;
  Options options_;
  InodeNum log_ino_ = kInvalidInode;
  std::string tail_;       ///< appended but not yet written
  Lsn tail_base_ = 0;      ///< LSN of tail_[0]
  Lsn base_lsn_ = 0;   ///< LSN of the first retained byte
  Lsn checkpoint_lsn_ = 0;
  Lsn low_water_lsn_ = 0;
  uint32_t epoch_ = 0;
  Lsn next_lsn_ = 0;
  Lsn durable_lsn_ = 0;
  bool flusher_active_ = false;
  TxnId flusher_txn_ = kNoTxn;  ///< txn leading the in-flight flush
  uint32_t pending_commits_ = 0;  ///< waiters on the in-flight flush
  WaitQueue flushed_;
  MetricHistogram* blame_hist_ = nullptr;  // blame.log.leader_us
  Stats stats_;
};

}  // namespace lfstx

#endif  // LFSTX_LIBTP_LOG_MANAGER_H_
