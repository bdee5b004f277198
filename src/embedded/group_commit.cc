#include "embedded/group_commit.h"

namespace lfstx {

GroupCommit::GroupCommit(SimEnv* env, Lfs* lfs, GroupCommitOptions options)
    : env_(env), lfs_(lfs), options_(options), wait_(env) {
  // Prefixed under the embedded manager's instance namespace; see the
  // matching note in kernel_txn.cc.
  MetricsRegistry* m = env_->metrics();
  batch_hist_ = m->GetHistogram("txn.embedded.group_commit_batch", "txns",
                                "commits flushed per segment write");
  blame_hist_ = m->GetHistogram(
      "blame.group_commit.leader_us", "us",
      "follower commit-flush wait absorbed by another commit's flush");
  m->AddGauge(this, "txn.embedded.group_commit_flushes", "count",
              "group-commit segment writes",
              [this] { return static_cast<double>(stats_.flushes); });
  m->AddGauge(this, "txn.embedded.group_commit_txns_flushed", "count",
              "commits covered by those flushes",
              [this] { return static_cast<double>(stats_.txns_flushed); });
  m->AddGauge(this, "txn.embedded.group_commit_batched", "count",
              "commits that shared another commit's flush",
              [this] { return static_cast<double>(stats_.batched); });
}

GroupCommit::~GroupCommit() { env_->metrics()->DropOwner(this); }

Status GroupCommit::CommitFlush(TxnId txn, bool others_active) {
  // Everything from here to durability — waiting for company, the segment
  // write itself, or piggybacking on another commit's flush — is the
  // commit-flush phase of this transaction.
  SimTime since = env_->Now();
  uint64_t log_us0 = env_->profiler()->PhaseTotal(Phase::kLogWait);
  ProfPhaseScope prof_phase(env_->profiler(), Phase::kLogWait);
  // A flush that *starts* after this point is guaranteed to pick up our
  // (already dirty) buffers.
  uint64_t my_epoch = start_epoch_;
  pending_++;
  bool led = false;
  Status result = Status::OK();
  for (;;) {
    if (completed_start_epoch_ > my_epoch) break;  // a later flush covered us
    if (!flushing_) {
      flushing_ = true;
      bool wait_for_company =
          options_.timeout > 0 && !(options_.adaptive && !others_active);
      if (wait_for_company) {
        SimTime deadline = env_->Now() + options_.timeout;
        while (env_->Now() < deadline && pending_ < options_.min_txns &&
               !env_->stop_requested()) {
          env_->SleepUntil(deadline);
        }
      }
      // Both captures are the epoch protocol, not stale reads: the leader
      // records which start epoch and how many pending commits this flush
      // covers; later arrivals bump both and are covered by a later flush.
      uint64_t this_start = ++start_epoch_;  // LFSTX_YIELD_OK(epoch claimed before the flush on purpose)
      uint64_t batch = pending_;  // LFSTX_YIELD_OK(batch is the pending count this flush covers)
      result = lfs_->Flush(txn);
      completed_start_epoch_ = this_start;
      last_leader_ = txn;
      stats_.flushes++;
      stats_.txns_flushed += batch;
      stats_.batched += batch - 1;
      batch_hist_->Add(batch);
      LFSTX_TRACE(env_->tracer(), TraceCat::kTxn, "group_commit_flush",
                  {"leader_txn", txn}, {"batch", batch},
                  {"ok", result.ok()});
      flushing_ = false;
      led = true;
      wait_.WakeAll();
      if (!result.ok()) break;
      continue;
    }
    if (wait_.Sleep() == WakeReason::kStopped) {
      result = Status::Busy("simulation stopped during group commit");
      break;
    }
  }
  pending_--;
  // A commit that never led rode someone else's segment write: blame the
  // leader for the whole commit-flush wait (exactly the log_wait phase
  // this call charged, so `report.py blame` can subtract it from the
  // span).
  if (!led && result.ok() && last_leader_ != kNoTxn && last_leader_ != txn) {
    uint64_t edge_us = env_->profiler()->PhaseTotal(Phase::kLogWait) - log_us0;
    if (edge_us > 0) {
      blame_hist_->Add(edge_us);
      LFSTX_TRACE(env_->tracer(), TraceCat::kBlame, "wait_edge",
                  {"kind", "group_commit"}, {"src", "leader"},
                  {"waiter", txn}, {"holder", last_leader_},
                  {"since", since}, {"waited_us", edge_us});
    }
  }
  return result;
}

}  // namespace lfstx
