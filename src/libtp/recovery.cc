// LIBTP restart recovery: one forward redo pass (applying every update /
// CLR whose effect is missing from the page, judged by the page LSN), then
// a backward undo pass for transactions with no commit or abort record.
#include <algorithm>
#include <deque>
#include <map>

#include "common/check_macros.h"
#include "common/metrics.h"
#include "libtp/txn_manager.h"

namespace lfstx {

namespace {

// Reader processes reading pages ahead of redo. On perfbench's tpcb
// restart 32 keep the disk busy; 64 gain nothing more (DESIGN.md §10).
constexpr size_t kReaders = 32;
// The window ahead of redo: decoded records (host memory), and pages
// queued or read but not yet reached, which must still be in the kernel
// buffer cache when redo gets to them.
constexpr size_t kWindowRecords = 512;
constexpr size_t kWindowPages = 96;

/// \brief Redo's log pass with page read-ahead. Redo decodes a bounded
/// window of records ahead of the one it applies. Each page the window
/// names that the pool lacks is queued for a reader process, which read()s
/// it into the kernel buffer cache and drops the copy. Up to kReaders
/// reads are in flight, so the disk queue sorts them and redo's CPU runs
/// meanwhile; redo's own read of a page still loading waits on that load
/// (BufferCache::Get). Records reach redo in log order, as from ScanFrom.
class RedoReadahead {
 public:
  using Fn = std::function<Status(Lsn, const LogRecord&)>;

  RedoReadahead(Kernel* kernel, BufferPool* pool, LogManager::Reader reader,
                Lsn end)
      : kernel_(kernel),
        pool_(pool),
        reader_(std::move(reader)),
        end_(end),
        work_(kernel->env()),
        exited_(kernel->env()) {}
  ~RedoReadahead() {
    LFSTX_CHECK(live_ == 0, "redo read-ahead destroyed under a live reader");
  }

  /// Calls `fn` on each record up to `end`, stopping cleanly at a torn
  /// tail, like ScanFrom. Returns once every reader has exited.
  Status Scan(const Fn& fn) {
    Status s;
    for (;;) {
      Fill();
      if (window_.empty()) {
        s = read_status_;
        break;
      }
      Entry e = std::move(window_.front());
      window_.pop_front();
      Reached(e.rec);
      s = fn(e.lsn, e.rec);
      if (!s.ok()) break;
    }
    Drain();
    return s;
  }

  uint64_t pages_read() const { return pages_read_; }
  uint64_t waits() const { return waits_; }

 private:
  enum class PageState { kQueued, kReading, kRead };
  struct PageKey {
    uint32_t file_ref;
    uint64_t page;
    bool operator<(const PageKey& o) const {
      return file_ref != o.file_ref ? file_ref < o.file_ref : page < o.page;
    }
  };
  struct Entry {
    Lsn lsn;
    LogRecord rec;
  };

  static bool NamesPage(const LogRecord& rec) {
    return rec.type == LogRecType::kUpdate || rec.type == LogRecType::kClr;
  }

  /// Decodes records until the window is full or the log ends.
  void Fill() {
    while (!ended_ && window_.size() < kWindowRecords &&
           pages_.size() < kWindowPages) {
      Lsn lsn = reader_.lsn();
      if (lsn >= end_) {
        ended_ = true;
        break;
      }
      auto rec = reader_.Next();
      if (!rec.ok()) {
        // A torn tail ends the log; any other error ends redo once it
        // has applied every record before it.
        if (!rec.status().IsCorruption()) read_status_ = rec.status();
        ended_ = true;
        break;
      }
      QueuePage(rec.value());
      window_.push_back(Entry{lsn, std::move(rec.value())});
    }
  }

  /// Queues the record's page for a reader unless the pool has it, it is
  /// already queued or read, or it lies past the file's end. A record
  /// naming an unregistered file is left to redo, which reports it.
  void QueuePage(const LogRecord& rec) {
    if (!NamesPage(rec) || rec.file_ref >= pool_->file_count()) return;
    PageKey key{rec.file_ref, rec.page};
    if (pool_->Resident(key.file_ref, key.page) || pages_.count(key) != 0 ||
        key.page >= pool_->FilePages(key.file_ref).value()) {
      return;
    }
    pages_.emplace(key, PageState::kQueued);
    queue_.push_back(key);
    if (work_.waiters() > 0) {
      work_.WakeOne();
    } else if (live_ < kReaders) {
      live_++;
      kernel_->env()->Spawn("libtp-readahead", [this] { ReaderMain(); });
    }
  }

  /// Redo reached `rec`: its page leaves the window. A read not yet done
  /// is one redo waits on (or, still queued, does itself).
  void Reached(const LogRecord& rec) {
    if (!NamesPage(rec)) return;
    auto it = pages_.find(PageKey{rec.file_ref, rec.page});
    if (it == pages_.end()) return;
    if (it->second != PageState::kRead) waits_++;
    pages_.erase(it);
  }

  void ReaderMain() {
    while (!stopping_) {
      if (queue_.empty()) {
        if (work_.Sleep() == WakeReason::kStopped) break;
        continue;
      }
      PageKey key = queue_.front();
      queue_.pop_front();
      auto it = pages_.find(key);
      if (it == pages_.end() || it->second != PageState::kQueued) {
        continue;  // redo got there first
      }
      it->second = PageState::kReading;
      // Advisory: on a failed read redo reads the page and reports it.
      Status s = kernel_
                     ->Read(pool_->file_inode(key.file_ref),
                            key.page * kBlockSize, kBlockSize, scratch_.data())
                     .status();
      (void)s;
      pages_read_++;
      auto done = pages_.find(key);  // redo may have reached it meanwhile
      if (done != pages_.end() && done->second == PageState::kReading) {
        done->second = PageState::kRead;
      }
    }
    if (--live_ == 0) exited_.WakeAll();
  }

  /// Stops the readers and waits until every one has exited; reads in
  /// flight finish first.
  void Drain() {
    stopping_ = true;
    queue_.clear();
    work_.WakeAll();
    while (live_ > 0) {
      if (exited_.Sleep() == WakeReason::kStopped) kernel_->env()->Yield();
    }
  }

  Kernel* kernel_;
  BufferPool* pool_;
  LogManager::Reader reader_;
  Lsn end_;
  bool ended_ = false;
  Status read_status_;  ///< a log read error, returned after the window
  std::deque<Entry> window_;  ///< decoded, not yet applied, in log order
  std::map<PageKey, PageState> pages_;  ///< pages read ahead, not reached
  std::deque<PageKey> queue_;  ///< pages waiting for a reader
  /// Where every reader's read() copies the page: only the kernel
  /// cache's copy matters, so the readers share one buffer.
  std::string scratch_ = std::string(kBlockSize, '\0');
  WaitQueue work_;    ///< idle readers
  WaitQueue exited_;  ///< Drain waits here for the last reader
  size_t live_ = 0;   ///< readers spawned and not yet exited
  bool stopping_ = false;
  uint64_t pages_read_ = 0;
  uint64_t waits_ = 0;
};

}  // namespace

Status LibTp::Recover() {
  struct TxnInfo {
    Lsn last_lsn = kNullLsn;
    bool finished = false;  // saw commit or abort
  };
  std::map<TxnId, TxnInfo> seen;

  // Redo starts at the persisted low-water mark: every page update below
  // it was flushed by the checkpoint that wrote it, and no loser's chain
  // begins before it (the mark mins over live transactions' first LSNs).
  // Undo still follows prev_lsn chains through ReadRecord, which serves
  // any retained byte, so clamping only the *scan* is safe.
  Lsn start = std::max(log_.base_lsn(), log_.low_water_lsn());
  uint64_t scanned = 0;
  uint64_t redo_applied = 0;

  // ---- pass 1: redo (and analysis) ----
  RedoReadahead ahead(kernel_, &pool_, log_.ReadFrom(start), log_.next_lsn());
  Status scan = ahead.Scan([&](Lsn lsn, const LogRecord& rec) -> Status {
    scanned++;
    switch (rec.type) {
      case LogRecType::kUpdate:
      case LogRecType::kClr: {
        seen[rec.txn].last_lsn = lsn;
        if (rec.file_ref >= pool_.file_count()) {
          return Status::Corruption(
              "log references a database file that was not re-registered "
              "before recovery (RegisterFile order must match)");
        }
        // The record proves this page existed; the on-disk file may be
        // shorter (extensions reach it only at write-back).
        pool_.NoteRecoveredPage(rec.file_ref, rec.page);
        LFSTX_ASSIGN_OR_RETURN(DbPage * page,
                               pool_.Get(rec.file_ref, rec.page, false));
        const std::string& image = rec.after;
        if (page->lsn() <= lsn) {  // stored LSN = applied-record + 1
          memcpy(page->data + rec.offset, image.data(), image.size());
          page->set_lsn(lsn + 1);
          redo_applied++;
          pool_.ReleaseDirty(page);
        } else {
          pool_.Release(page);
        }
        break;
      }
      case LogRecType::kCommit:
      case LogRecType::kAbort:
        seen[rec.txn].finished = true;
        break;
      case LogRecType::kCheckpoint:
        break;
    }
    return Status::OK();
  });
  LFSTX_RETURN_IF_ERROR(scan);

  // ---- pass 2: undo losers ----
  uint64_t losers = 0;
  for (auto& [txn, info] : seen) {
    if (info.finished) continue;
    losers++;
    Lsn cursor = info.last_lsn;
    Lsn chain = info.last_lsn;
    while (cursor != kNullLsn) {
      LFSTX_ASSIGN_OR_RETURN(LogRecord rec, log_.ReadRecord(cursor));
      if (rec.type == LogRecType::kUpdate) {
        LogRecord clr;
        clr.type = LogRecType::kClr;
        clr.txn = txn;
        clr.prev_lsn = chain;
        clr.file_ref = rec.file_ref;
        clr.page = rec.page;
        clr.offset = rec.offset;
        clr.after = rec.before;
        LFSTX_ASSIGN_OR_RETURN(Lsn clr_lsn, log_.Append(clr));
        chain = clr_lsn;
        LFSTX_RETURN_IF_ERROR(ApplyImage(rec.file_ref, rec.page, rec.offset,
                                         rec.before, clr_lsn));
      }
      cursor = rec.prev_lsn;
    }
    LogRecord done;
    done.type = LogRecType::kAbort;
    done.txn = txn;
    done.prev_lsn = chain;
    LFSTX_RETURN_IF_ERROR(log_.Append(done).status());
  }

  MetricsRegistry* m = kernel_->env()->metrics();
  m->GetCounter("recovery.libtp.scanned", "count",
                "log records scanned during redo")
      ->Set(scanned);
  m->GetCounter("recovery.libtp.redo_applied", "count",
                "updates re-applied (page LSN behind record)")
      ->Set(redo_applied);
  m->GetCounter("recovery.libtp.losers", "count",
                "unfinished transactions rolled back")
      ->Set(losers);
  m->GetCounter("recovery.libtp.skipped_bytes", "bytes",
                "retained log below the low-water mark, not scanned")
      ->Set(start - log_.base_lsn());
  m->GetCounter("recovery.libtp.readahead_pages", "count",
                "pages read ahead of redo by its reader processes")
      ->Set(ahead.pages_read());
  m->GetCounter("recovery.libtp.readahead_waits", "count",
                "pages redo reached before their read-ahead finished")
      ->Set(ahead.waits());

  // Durably finish: flush pages, then note the clean point in the log.
  return Checkpoint();
}

}  // namespace lfstx
