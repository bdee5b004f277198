#include "embedded/kernel_txn.h"

namespace lfstx {

EmbeddedTxnManager::EmbeddedTxnManager(SimEnv* env, Lfs* lfs)
    : EmbeddedTxnManager(env, lfs, Options{}) {}

EmbeddedTxnManager::EmbeddedTxnManager(SimEnv* env, Lfs* lfs, Options options)
    : env_(env),
      lfs_(lfs),
      options_(options),
      locks_(env, "lock.kernel"),
      gc_(env, lfs, options.group_commit) {
  lfs_->set_txn_hooks(this);
  // Instance-prefixed so a machine co-hosting both architectures (fig5)
  // reports each manager separately instead of first-wins swallowing one.
  MetricsRegistry* m = env_->metrics();
  m->AddGauge(this, "txn.embedded.begun", "count", "transactions started",
              [this] { return static_cast<double>(stats_.begun); });
  m->AddGauge(this, "txn.embedded.committed", "count",
              "transactions committed",
              [this] { return static_cast<double>(stats_.committed); });
  m->AddGauge(this, "txn.embedded.aborted", "count", "transactions aborted",
              [this] { return static_cast<double>(stats_.aborted); });
  m->AddGauge(this, "txn.embedded.deadlocks", "count",
              "page accesses refused to break a deadlock",
              [this] { return static_cast<double>(stats_.deadlocks); });
  m->AddGauge(this, "txn.embedded.active", "count",
              "transactions running right now",
              [this] { return static_cast<double>(active_); });
}

EmbeddedTxnManager::~EmbeddedTxnManager() { env_->metrics()->DropOwner(this); }

EmbeddedTxnManager::TxnState* EmbeddedTxnManager::CurrentState() {
  auto it = by_proc_.find(SimEnv::Current());
  return it == by_proc_.end() ? nullptr : &it->second;
}

const EmbeddedTxnManager::TxnState* EmbeddedTxnManager::CurrentState() const {
  auto it = by_proc_.find(SimEnv::Current());
  return it == by_proc_.end() ? nullptr : &it->second;
}

TxnId EmbeddedTxnManager::CurrentTxn() const {
  const TxnState* st = CurrentState();
  return (st != nullptr && st->status == TxnStatus::kRunning) ? st->id
                                                              : kNoTxn;
}

Status EmbeddedTxnManager::TxnBegin() {
  env_->Consume(env_->costs().txn_bookkeeping_us);
  // "a transaction structure is either created or initialized (depending
  // on whether the process in question had previously ever invoked a
  // transaction)".
  TxnState& st = by_proc_[SimEnv::Current()];
  if (st.status == TxnStatus::kRunning) {
    // Restriction 4: one active transaction per process.
    return Status::InvalidArgument("process already has a transaction");
  }
  st.id = ids_.Next();
  st.status = TxnStatus::kRunning;
  st.size_at_first_touch.clear();
  active_++;
  stats_.begun++;
  env_->profiler()->BeginSpan("embedded", st.id);
  LFSTX_TRACE(env_->tracer(), TraceCat::kTxn, "txn_begin", {"txn", st.id},
              {"active", active_});
  return Status::OK();
}

Status EmbeddedTxnManager::TxnCommit() {
  env_->Consume(env_->costs().txn_bookkeeping_us);
  TxnState* st = CurrentState();
  if (st == nullptr || st->status != TxnStatus::kRunning) {
    return Status::InvalidArgument("no transaction to commit");
  }
  st->status = TxnStatus::kCommitting;
  // Move the transaction's buffers from the inodes' transaction lists to
  // their dirty lists...
  for (Buffer* buf : lfs_->cache()->TakeTxnBuffers(st->id)) {
    lfs_->cache()->MarkDirty(buf);
    lfs_->cache()->Release(buf);
  }
  // ...force them out (possibly sharing a group-commit segment write)...
  active_--;
  Status flushed = gc_.CommitFlush(st->id, active_ > 0);
  // ...and release locks once the writes have completed.
  locks_.UnlockAll(st->id);
  st->status = flushed.ok() ? TxnStatus::kCommitted : TxnStatus::kAborted;
  if (flushed.ok()) stats_.committed++;
  env_->profiler()->EndSpan("embedded", st->id, flushed.ok());
  LFSTX_TRACE(env_->tracer(), TraceCat::kTxn, "txn_commit", {"txn", st->id},
              {"ok", flushed.ok()}, {"active", active_});
  return flushed;
}

Status EmbeddedTxnManager::TxnAbort() {
  env_->Consume(env_->costs().txn_bookkeeping_us);
  TxnState* st = CurrentState();
  if (st == nullptr || st->status != TxnStatus::kRunning) {
    return Status::InvalidArgument("no transaction to abort");
  }
  st->status = TxnStatus::kAborting;
  // Invalidate the dirty buffers: the no-overwrite policy guarantees the
  // before-images on disk are still the current on-disk versions.
  lfs_->cache()->InvalidateTxnBuffers(st->id);
  // Roll back in-core inode growth from aborted appends. A flush may have
  // logged the grown size already, so the rollback dirties the inode's
  // attributes: the next segment write logs the restored size.
  Status rolled_back = Status::OK();
  for (const auto& [inum, size] : st->size_at_first_touch) {
    auto r = lfs_->GetInode(inum);
    if (r.ok() && r.value()->d.size != size) {
      Status s = lfs_->RollBackSize(r.value(), size);
      if (rolled_back.ok()) rolled_back = s;
    }
  }
  locks_.UnlockAll(st->id);
  st->status = TxnStatus::kAborted;
  active_--;
  stats_.aborted++;
  env_->profiler()->EndSpan("embedded", st->id, false);
  LFSTX_TRACE(env_->tracer(), TraceCat::kTxn, "txn_abort", {"txn", st->id},
              {"active", active_});
  return rolled_back;
}

Result<TxnId> EmbeddedTxnManager::OnPageAccess(Inode* inode, uint64_t lblock,
                                               bool is_write) {
  TxnState* st = CurrentState();
  if (st == nullptr || st->status != TxnStatus::kRunning) {
    // Protected file touched outside any transaction: plain access.
    return kNoTxn;
  }
  if (is_write) {
    st->size_at_first_touch.emplace(inode->num(), inode->d.size);
  }
  Status s = locks_.Lock(st->id, LockId{inode->data_file_id(), lblock},
                         is_write ? LockMode::kExclusive : LockMode::kShared);
  if (s.IsDeadlock()) stats_.deadlocks++;
  LFSTX_RETURN_IF_ERROR(s);
  return is_write ? st->id : kNoTxn;
}

}  // namespace lfstx
