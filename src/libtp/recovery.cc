// LIBTP restart recovery: an analysis pass that groups the log's updates
// and CLRs by page, a redo pass that brings each page up to date (applying
// every record whose effect is missing from it, judged by the page LSN),
// then a backward undo pass for transactions with no commit or abort
// record.
#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "libtp/txn_manager.h"

namespace lfstx {

namespace {

// Processes that fetch and redo pages at once. LIBTP cannot see where the
// file system put a page, so only concurrent reads let the disk queue's
// elevator order them; on perfbench's tpcb restart 32 beat 16 by a fifth
// on LFS (DESIGN.md §10).
constexpr size_t kRedoWorkers = 32;

/// An update or CLR as redo applies it.
struct RedoRecord {
  Lsn lsn;
  uint32_t offset;
  std::string after;
};

/// Each page's records in LSN order, under its (file_ref, page).
using PageRecords =
    std::map<std::pair<uint32_t, uint64_t>, std::vector<RedoRecord>>;

/// Redo's page pass. Records on different pages commute and one page's
/// records apply in LSN order, so each worker takes the next page in
/// (file_ref, page) order, fetches it once and applies its records under
/// the page-LSN test. There are no more workers than pool frames: each may
/// pin one across an eviction's write-back, and a pool with every frame
/// pinned refuses a miss. Returns the first error once every worker has
/// exited.
Status RedoPages(SimEnv* env, BufferPool* pool, const PageRecords& pages,
                 uint64_t* applied) {
  auto next = pages.begin();
  Status redo;
  size_t live = std::min({kRedoWorkers, pages.size(), pool->capacity()});
  WaitQueue exited(env);
  auto worker = [&] {
    while (redo.ok() && next != pages.end()) {
      const auto& [key, records] = *next++;
      auto got = pool->Get(key.first, key.second, false);
      if (!got.ok()) {
        if (redo.ok()) redo = got.status();
        break;
      }
      DbPage* page = got.value();
      bool dirty = false;
      for (const RedoRecord& r : records) {
        if (page->lsn() <= r.lsn) {  // stored LSN = applied-record + 1
          memcpy(page->data + r.offset, r.after.data(), r.after.size());
          page->set_lsn(r.lsn + 1);
          (*applied)++;
          dirty = true;
        }
      }
      if (dirty) {
        pool->ReleaseDirty(page);
      } else {
        pool->Release(page);
      }
    }
    if (--live == 0) exited.WakeAll();
  };
  for (size_t i = live; i > 0; i--) env->Spawn("libtp-redo", worker);
  while (live > 0) {
    if (exited.Sleep() == WakeReason::kStopped) env->Yield();
  }
  return redo;
}

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

  // ---- pass 1: analysis ----
  PageRecords pages;
  Status scan = log_.ScanFrom(
      start, [&](Lsn lsn, const LogRecord& rec) -> Status {
    scanned++;
    switch (rec.type) {
      case LogRecType::kUpdate:
      case LogRecType::kClr:
        seen[rec.txn].last_lsn = lsn;
        if (rec.file_ref >= pool_.file_count()) {
          return Status::Corruption(
              "log references a database file that was not re-registered "
              "before recovery (RegisterFile order must match)");
        }
        // The record proves this page existed; the on-disk file may be
        // shorter (extensions reach it only at write-back).
        pool_.NoteRecoveredPage(rec.file_ref, rec.page);
        pages[{rec.file_ref, rec.page}].push_back(
            RedoRecord{lsn, rec.offset, rec.after});
        break;
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

  // ---- pass 2: redo ----
  LFSTX_RETURN_IF_ERROR(
      RedoPages(kernel_->env(), &pool_, pages, &redo_applied));

  // ---- pass 3: undo losers ----
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
  m->GetCounter("recovery.libtp.pages", "count",
                "distinct pages redo fetched, each once")
      ->Set(pages.size());
  m->GetCounter("recovery.libtp.losers", "count",
                "unfinished transactions rolled back")
      ->Set(losers);
  m->GetCounter("recovery.libtp.skipped_bytes", "bytes",
                "retained log below the low-water mark, not scanned")
      ->Set(start - log_.base_lsn());

  // Durably finish: flush pages, then note the clean point in the log.
  return Checkpoint();
}

}  // namespace lfstx
