#include "libtp/txn_manager.h"

#include <algorithm>
#include <cstring>

#include "libtp/page_diff.h"

namespace lfstx {

LibTp::LibTp(Kernel* kernel) : LibTp(kernel, Options{}) {}

LibTp::LibTp(Kernel* kernel, Options options)
    : kernel_(kernel),
      options_(options),
      log_(kernel, options.log),
      pool_(kernel, &log_, options.pool_pages),
      locks_(kernel->env(), "lock.libtp"),
      checkpoint_wait_(kernel->env()) {
  // Instance-prefixed so a machine co-hosting both architectures (fig5)
  // reports each manager separately instead of first-wins swallowing one.
  MetricsRegistry* m = kernel_->env()->metrics();
  m->AddGauge(this, "txn.libtp.begun", "count", "transactions started",
              [this] { return static_cast<double>(stats_.begun); });
  m->AddGauge(this, "txn.libtp.committed", "count", "transactions committed",
              [this] { return static_cast<double>(stats_.committed); });
  m->AddGauge(this, "txn.libtp.aborted", "count", "transactions aborted",
              [this] { return static_cast<double>(stats_.aborted); });
  m->AddGauge(this, "txn.libtp.deadlocks", "count",
              "aborts forced by deadlock",
              [this] { return static_cast<double>(stats_.deadlocks); });
  m->AddGauge(this, "txn.libtp.update_records", "count",
              "before/after-image log records written",
              [this] { return static_cast<double>(stats_.update_records); });
  m->AddGauge(this, "txn.libtp.active", "count",
              "transactions running right now",
              [this] { return static_cast<double>(active_); });
}

LibTp::~LibTp() { kernel_->env()->metrics()->DropOwner(this); }

Status LibTp::Open(const std::string& log_path) {
  return Open(log_path, /*run_recovery=*/true);
}

Status LibTp::Open(const std::string& log_path, bool run_recovery) {
  LFSTX_RETURN_IF_ERROR(log_.Open(log_path));
  return run_recovery ? Recover() : Status::OK();
}

Status LibTp::Close() {
  LFSTX_RETURN_IF_ERROR(Checkpoint());
  LFSTX_RETURN_IF_ERROR(pool_.CloseAll());
  return log_.Close();
}

// ------------------------------------------------------------ txn control --

Result<TxnId> LibTp::Begin() {
  // A truncating checkpoint found no transaction running; none may append
  // to the log it is discarding.
  while (truncating_) {
    if (checkpoint_wait_.Sleep() == WakeReason::kStopped) {
      return Status::Busy("simulation stopped during a log truncate");
    }
  }
  kernel_->env()->Consume(kernel_->env()->costs().txn_bookkeeping_us);
  TxnId id = ids_.Next();
  txns_[id] = TxnState{TxnStatus::kRunning, kNullLsn, kNullLsn};
  active_++;
  stats_.begun++;
  kernel_->env()->profiler()->BeginSpan("libtp", id);
  LFSTX_TRACE(kernel_->env()->tracer(), TraceCat::kTxn, "txn_begin",
              {"txn", id}, {"active", active_});
  return id;
}

Status LibTp::Commit(TxnId txn) {
  SimEnv* env = kernel_->env();
  env->Consume(env->costs().txn_bookkeeping_us);
  // LFSTX_YIELD_OK(std::map nodes are stable and only this txn's own process erases its entry)
  auto it = txns_.find(txn);
  if (it == txns_.end() || it->second.status != TxnStatus::kRunning) {
    return Status::InvalidArgument("commit of unknown transaction");
  }
  it->second.status = TxnStatus::kCommitting;
  LogRecord rec;
  rec.type = LogRecType::kCommit;
  rec.txn = txn;
  rec.prev_lsn = it->second.last_lsn;
  env->LatchOp();  // log latch
  LFSTX_ASSIGN_OR_RETURN(Lsn lsn, log_.Append(rec));
  env->LatchOp();
  LFSTX_RETURN_IF_ERROR(log_.FlushTo(lsn, txn));
  env->LatchOp();  // lock-manager latch for the release pass
  locks_.UnlockAll(txn);
  env->LatchOp();
  it->second.status = TxnStatus::kCommitted;
  active_--;
  stats_.committed++;
  txns_.erase(it);
  env->profiler()->EndSpan("libtp", txn, true);
  LFSTX_TRACE(env->tracer(), TraceCat::kTxn, "txn_commit", {"txn", txn},
              {"commit_lsn", lsn}, {"active", active_});
  // Fuzzy checkpoints no longer need a quiescent point: any commit that
  // finds enough log accumulated takes one, live transactions and all,
  // unless another commit's checkpoint is already running.
  if (!checkpointing_ &&
      log_.next_lsn() - last_checkpoint_lsn_ >=
          options_.checkpoint_log_bytes) {
    LFSTX_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status LibTp::Abort(TxnId txn) {
  SimEnv* env = kernel_->env();
  env->Consume(env->costs().txn_bookkeeping_us);
  // LFSTX_YIELD_OK(std::map nodes are stable and only this txn's own process erases its entry)
  auto it = txns_.find(txn);
  if (it == txns_.end() || it->second.status != TxnStatus::kRunning) {
    return Status::InvalidArgument("abort of unknown transaction");
  }
  it->second.status = TxnStatus::kAborting;
  // Walk the transaction's record chain backwards applying before-images,
  // writing compensation records as we go.
  Lsn cursor = it->second.last_lsn;
  while (cursor != kNullLsn) {
    LFSTX_ASSIGN_OR_RETURN(LogRecord rec, log_.ReadRecord(cursor));
    if (rec.type == LogRecType::kUpdate) {
      LogRecord clr;
      clr.type = LogRecType::kClr;
      clr.txn = txn;
      clr.prev_lsn = it->second.last_lsn;
      clr.file_ref = rec.file_ref;
      clr.page = rec.page;
      clr.offset = rec.offset;
      clr.after = rec.before;  // redo-only undo
      env->LatchOp();
      LFSTX_ASSIGN_OR_RETURN(Lsn clr_lsn, log_.Append(clr));
      env->LatchOp();
      it->second.last_lsn = clr_lsn;
      LFSTX_RETURN_IF_ERROR(
          ApplyImage(rec.file_ref, rec.page, rec.offset, rec.before,
                     clr_lsn));
    }
    cursor = rec.prev_lsn;
  }
  LogRecord done;
  done.type = LogRecType::kAbort;
  done.txn = txn;
  done.prev_lsn = it->second.last_lsn;
  env->LatchOp();
  LFSTX_RETURN_IF_ERROR(log_.Append(done).status());
  env->LatchOp();
  env->LatchOp();
  locks_.UnlockAll(txn);
  env->LatchOp();
  it->second.status = TxnStatus::kAborted;
  active_--;
  stats_.aborted++;
  env->profiler()->EndSpan("libtp", txn, false);
  LFSTX_TRACE(env->tracer(), TraceCat::kTxn, "txn_abort", {"txn", txn},
              {"active", active_});
  return Status::OK();
}

// ------------------------------------------------------------ page access --

Result<DbPage*> LibTp::GetPage(TxnId txn, uint32_t file_ref, uint64_t pageno,
                               LockMode mode) {
  SimEnv* env = kernel_->env();
  env->LatchOp();  // lock-manager latch
  Status s = locks_.Lock(txn, LockId{file_ref, pageno}, mode);
  env->LatchOp();
  if (s.IsDeadlock()) stats_.deadlocks++;
  LFSTX_RETURN_IF_ERROR(s);
  return pool_.Get(file_ref, pageno, mode == LockMode::kExclusive);
}

void LibTp::PutPage(DbPage* page) { pool_.Release(page); }

Status LibTp::PutPageDirty(TxnId txn, DbPage* page) {
  SimEnv* env = kernel_->env();
  auto it = txns_.find(txn);
  if (it == txns_.end()) return Status::InvalidArgument("unknown txn");
  if (page->snapshot == nullptr) {
    return Status::Internal("dirty release without write intent");
  }
  // Diff the page against its pre-image; only the changed bytes are
  // logged, in at most two records (see DiffPage).
  const char* before = page->snapshot->data();
  const char* after = page->data;
  PageDiff diff = DiffPage(before, after);
  if (diff.count > 0) {
    for (int r = 0; r < diff.count; r++) {
      const PageRange& range = diff.ranges[r];
      LogRecord rec;
      rec.type = LogRecType::kUpdate;
      rec.txn = txn;
      rec.prev_lsn = it->second.last_lsn;
      rec.file_ref = page->file_ref;
      rec.page = page->pageno;
      rec.offset = range.lo;
      rec.before.assign(before + range.lo, range.hi - range.lo);
      rec.after.assign(after + range.lo, range.hi - range.lo);
      env->LatchOp();
      // Claim first_lsn *before* the append (no yield between here and
      // the record entering the log tail): a fuzzy checkpoint that runs
      // while Append is parked in its CPU charge must already see this
      // transaction in the low-water-mark min, or redo could start past
      // an update whose page flush the checkpoint missed.
      if (it->second.first_lsn == kNullLsn) {
        it->second.first_lsn = log_.next_lsn();
      }
      LFSTX_ASSIGN_OR_RETURN(Lsn lsn, log_.Append(rec));
      env->LatchOp();
      it->second.last_lsn = lsn;
      page->set_lsn(lsn + 1);  // stored LSN is rec+1 so 0 means "never"
      stats_.update_records++;
    }
    // Refresh the snapshot for updates under another pin of the page; the
    // release below drops it with the last pin.
    if (page->pins > 1) page->snapshot->assign(page->data, kBlockSize);
  }
  pool_.ReleaseDirty(page);
  return Status::OK();
}

void LibTp::UnlockPage(TxnId txn, uint32_t file_ref, uint64_t pageno) {
  SimEnv* env = kernel_->env();
  env->LatchOp();
  locks_.Unlock(txn, LockId{file_ref, pageno});
  env->LatchOp();
}

Status LibTp::ApplyImage(uint32_t file_ref, uint64_t pageno, uint32_t offset,
                         const std::string& image, Lsn stamp_lsn) {
  LFSTX_ASSIGN_OR_RETURN(DbPage * page, pool_.Get(file_ref, pageno, false));
  memcpy(page->data + offset, image.data(), image.size());
  page->set_lsn(stamp_lsn + 1);
  pool_.ReleaseDirty(page);
  return Status::OK();
}

Status LibTp::Checkpoint() {
  while (checkpointing_) {
    if (checkpoint_wait_.Sleep() == WakeReason::kStopped) {
      return Status::Busy("simulation stopped before a checkpoint");
    }
  }
  checkpointing_ = true;
  struct Done {  // clears both flags on every return path
    LibTp* tp;
    ~Done() {
      tp->checkpointing_ = false;
      tp->truncating_ = false;
      tp->checkpoint_wait_.WakeAll();
    }
  } done{this};
  // LSN fence and low-water mark, taken *before* the pool flush: records
  // appended while FlushAll yields are all >= cp_begin, and every live
  // transaction's first record is in the min, so redo from the low-water
  // mark cannot skip an update whose page write the flush missed.
  Lsn cp_begin = log_.next_lsn();
  Lsn lwm = cp_begin;
  for (const auto& [id, st] : txns_) {
    if (st.first_lsn != kNullLsn) lwm = std::min(lwm, st.first_lsn);
  }
  LFSTX_RETURN_IF_ERROR(pool_.FlushAll());
  // The write-backs above land in the kernel buffer cache; force them to
  // the platter before giving up any log — otherwise a crash after the
  // truncate (or low-water-mark advance) loses committed page state with
  // no records left to redo it.
  LFSTX_RETURN_IF_ERROR(pool_.FsyncAll());
  if (active_ == 0 && log_.next_lsn() == cp_begin) {
    // Every update is reflected in a durable page and nothing is in
    // flight: the old log is dead weight — reclaim it. A transaction that
    // ran during the flush has records past the fence whose pages the
    // flush may have missed, so the fuzzy path keeps them instead. From
    // here until the truncated log is durable no transaction may begin:
    // its records would land in a log the truncate is still rewriting.
    truncating_ = true;
    LFSTX_RETURN_IF_ERROR(log_.Truncate());
  } else {
    // Fuzzy checkpoint: transactions stay live. The checkpoint record
    // marks the flush; the persisted low-water mark bounds replay.
    LogRecord rec;
    rec.type = LogRecType::kCheckpoint;
    LFSTX_ASSIGN_OR_RETURN(Lsn lsn, log_.Append(rec));
    LFSTX_RETURN_IF_ERROR(log_.FlushTo(lsn));
    LFSTX_RETURN_IF_ERROR(log_.SetCheckpointLwm(lsn, lwm));
  }
  last_checkpoint_lsn_ = log_.next_lsn();
  return Status::OK();
}

}  // namespace lfstx
