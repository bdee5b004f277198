#include "check/online_fsck.h"

#include <algorithm>

#include "check/gen_stamp.h"
#include "fs/inode.h"

namespace lfstx {

OnlineFsck::OnlineFsck(SimEnv* env, Lfs* lfs, SimDisk* disk, Options options)
    : env_(env),
      lfs_(lfs),
      disk_(disk),
      options_(options),
      shared_(std::make_shared<Shared>(env)) {
  // The daemon thread is owned by SimEnv and may be drained after this
  // OnlineFsck is destroyed; it only touches `this` while shared->alive.
  std::shared_ptr<Shared> shared = shared_;
  SimTime interval = options_.interval;
  env_->Spawn(
      "fsck",
      [this, env, shared, interval] {
        // Audit I/O bills to the checkpoint cause: like checkpoints, it is
        // background metadata maintenance, not workload or cleaning.
        env->profiler()->SetCause(IoCause::kCheckpoint);
        while (!env->stop_requested() && shared->alive) {
          shared->wakeup.SleepFor(interval);
          if (env->stop_requested() || !shared->alive) break;
          AuditSlice();
        }
      },
      /*daemon=*/true);

  MetricsRegistry* m = env_->metrics();
  m->AddGauge(this, "fsck.rounds", "count", "audit slices completed",
              [this] { return static_cast<double>(stats_.rounds); });
  m->AddGauge(this, "fsck.audits", "count",
              "individual invariant evaluations",
              [this] { return static_cast<double>(stats_.audits); });
  m->AddGauge(this, "fsck.problems", "count", "invariant violations found",
              [this] { return static_cast<double>(stats_.problems); });
  m->AddGauge(this, "fsck.disk_verified", "count",
              "inode blocks read back and verified",
              [this] { return static_cast<double>(stats_.disk_verified); });
  m->AddGauge(this, "fsck.retries", "count",
              "disk samples discarded because state moved underneath",
              [this] { return static_cast<double>(stats_.retries); });
}

OnlineFsck::~OnlineFsck() {
  LFSTX_CHECK(slices_.idle(), "OnlineFsck destroyed mid-audit");
  env_->metrics()->DropOwner(this);
  shared_->alive = false;
}

void OnlineFsck::Problem(const char* what, uint64_t a, uint64_t b) {
  stats_.problems++;
  LFSTX_TRACE(env_->tracer(), TraceCat::kCheck, "fsck_problem",
              {"what", what}, {"a", a}, {"b", b});
}

void OnlineFsck::AuditSlice() {
  InFlight::Scope slice(&slices_);
  if (!lfs_->is_mounted()) return;
  AuditImapBlock(next_imap_block_);
  AuditSegment(next_segment_);
  AuditRedoSpan();
  next_imap_block_ = (next_imap_block_ + 1) % lfs_->imap().nblocks();
  next_segment_ = (next_segment_ + 1) % lfs_->nsegments();
  stats_.rounds++;
}

void OnlineFsck::AuditImapBlock(uint32_t idx) {
  const InodeMap& imap = lfs_->imap();  // LFSTX_YIELD_OK(stable Lfs member; post-yield reads are GenStamp-guarded)
  const SegmentUsage& usage = lfs_->usage();  // LFSTX_YIELD_OK(stable Lfs member; only read in the non-yielding tier)
  uint64_t seg_start = lfs_->seg_start();
  uint64_t seg_area_end =
      seg_start +
      static_cast<uint64_t>(lfs_->nsegments()) * lfs_->segment_blocks();

  // ---- tier 1: in-memory invariants (no yield point, so the cooperative
  // scheduler guarantees a consistent view) ----
  InodeNum lo = static_cast<InodeNum>(idx) * kImapEntriesPerBlock;
  InodeNum hi = lo + kImapEntriesPerBlock;
  InodeNum verify_inum = kInvalidInode;
  BlockAddr verify_addr = 0;
  uint32_t verify_version = 0;
  for (InodeNum inum = std::max<InodeNum>(1, lo);
       inum < hi && inum <= imap.max_inodes(); inum++) {
    BlockAddr addr = imap.Get(inum).inode_addr;
    if (addr == 0) continue;
    stats_.audits++;
    if (addr < seg_start || addr >= seg_area_end) {
      Problem("inode_addr_outside_segment_area", inum, addr);
      continue;
    }
    uint32_t seg = static_cast<uint32_t>((addr - seg_start) /
                                         lfs_->segment_blocks());
    if (usage.state(seg) == SegState::kClean) {
      Problem("inode_in_clean_segment", inum, seg);
      continue;
    }
    // Candidate for disk verification: skip the active segment, whose
    // chunk write may still be in flight on the platter.
    if (verify_inum == kInvalidInode && seg != lfs_->current_segment()) {
      verify_inum = inum;
      verify_addr = addr;
      verify_version = imap.Get(inum).version;
    }
  }

  // ---- tier 2: read one mapped inode block back from disk ----
  if (verify_inum == kInvalidInode) return;
  GenStamp<InodeMap> stamp(&imap);
  char block[kBlockSize];
  if (!disk_->Read(verify_addr, 1, block).ok()) return;
  if (stamp.changed()) {
    // The map mutated while the read was in flight; the sample proves
    // nothing either way. Discard, never report.
    stats_.retries++;
    return;
  }
  stats_.audits++;
  stats_.disk_verified++;
  for (uint32_t slot = 0; slot < kInodesPerBlock; slot++) {
    DiskInode d;
    DecodeInode(block, slot, &d);
    if (d.inum == verify_inum && d.file_type() != FileType::kFree) {
      if (d.version != verify_version) {
        Problem("inode_version_mismatch", verify_inum, d.version);
      }
      return;
    }
  }
  Problem("inode_missing_from_mapped_block", verify_inum, verify_addr);
}

void OnlineFsck::AuditSegment(uint32_t seg) {
  const SegmentUsage& usage = lfs_->usage();
  stats_.audits++;
  uint32_t occupied = 0;
  for (uint32_t slot = 0; slot < usage.segment_blocks(); slot++) {
    if (usage.owner(seg, slot).kind != 0) occupied++;
  }
  if (usage.live(seg) != occupied) {
    Problem("live_count_is_not_occupied_slots", seg, usage.live(seg));
  }
  if (usage.state(seg) == SegState::kActive &&
      seg != lfs_->current_segment()) {
    Problem("active_segment_is_not_log_head", seg, lfs_->current_segment());
  }
  if (usage.state(seg) == SegState::kClean && usage.live(seg) != 0) {
    Problem("clean_segment_has_live_blocks", seg, usage.live(seg));
  }
}

void OnlineFsck::AuditRedoSpan() {
  // A recovery from the last capture reads these chunks; a clean segment
  // holding one could be reused under it. They were durable before the
  // image that names them, so the untimed reads see their summaries.
  const Lfs::CaptureSpan& span = lfs_->last_capture();
  stats_.audits++;
  uint64_t broken = lfs_->WalkCaptureSpan(
      span.head_seq, [&](uint64_t seq, BlockAddr a) {
        auto seg = static_cast<uint32_t>((a - lfs_->seg_start()) /
                                         lfs_->segment_blocks());
        if (lfs_->usage().state(seg) == SegState::kClean) {
          Problem("redo_span_segment_is_clean", seg, seq);
        }
      });
  if (broken != span.head_seq) Problem("redo_span_chain_broken", broken, 0);
}

}  // namespace lfstx
