#include "lfs/lfs.h"

#include <cassert>
#include <cstring>

#include "lfs/cleaner.h"

namespace lfstx {

namespace {
struct LfsSuperblock {
  uint32_t magic = Lfs::kMagic;
  uint32_t segment_blocks = 0;
  uint32_t max_inodes = 0;
  uint32_t nsegments = 0;
  uint64_t seg_start = 0;
  uint64_t checkpoint_a = 0;
  uint64_t checkpoint_b = 0;
  uint32_t checkpoint_blocks = 0;
  uint32_t pad = 0;
};
}  // namespace

Lfs::Lfs(SimEnv* env, SimDisk* disk, BufferCache* cache)
    : Lfs(env, disk, cache, Options{}) {}

Lfs::Lfs(SimEnv* env, SimDisk* disk, BufferCache* cache, Options options)
    : FsCore(env, disk, cache),
      options_(options),
      imap_(options.max_inodes),
      usage_(1, options.segment_blocks),  // resized once geometry is known
      // yield_ok: the log lock serializes multi-I/O segment and checkpoint
      // writes, so holding it across disk I/O is its purpose.
      flush_lock_(env, "lfs.flush", /*yield_ok=*/true),
      clean_wait_(env) {
  uint64_t total = disk->num_blocks();
  // Checkpoint size depends on the segment count; one refinement pass
  // converges because more checkpoint blocks only shrink the segment area.
  uint32_t nseg = static_cast<uint32_t>((total - 1) / options_.segment_blocks);
  uint32_t cpb = CheckpointData::BlocksNeeded(imap_.nblocks(), nseg);
  geo_.checkpoint_blocks = cpb;
  geo_.checkpoint_a = 1;
  geo_.checkpoint_b = 1 + cpb;
  geo_.seg_start = 1 + 2ull * cpb;
  geo_.nsegments =
      static_cast<uint32_t>((total - geo_.seg_start) / options_.segment_blocks);
  usage_ = SegmentUsage(geo_.nsegments, options_.segment_blocks);
  usage_.AttachTelemetry(env_);

  MetricsRegistry* m = env_->metrics();
  stall_blame_hist_ = m->GetHistogram(
      "blame.lfs.cleaner_us", "us",
      "time stalled on the cleaner: writer stalls and kernel-cleaner file "
      "lockouts (one wait_edge each)");
  m->AddGauge(this, "lfs.partial_segments", "count", "log chunks written",
              [this] { return static_cast<double>(lfs_stats_.partial_segments); });
  m->AddGauge(this, "lfs.segments_activated", "count",
              "clean segments opened for writing",
              [this] { return static_cast<double>(lfs_stats_.segments_activated); });
  m->AddGauge(this, "lfs.blocks_written", "blocks",
              "payload blocks appended to the log",
              [this] { return static_cast<double>(lfs_stats_.blocks_written); });
  m->AddGauge(this, "lfs.checkpoints", "count", "checkpoints written",
              [this] { return static_cast<double>(lfs_stats_.checkpoints); });
  m->AddGauge(this, "lfs.checkpoints_skipped", "count",
              "checkpoint requests skipped because the log was clean",
              [this] { return static_cast<double>(lfs_stats_.checkpoints_skipped); });
  m->AddGauge(this, "lfs.checkpoint_forced_files", "count",
              "deferred files a checkpoint wrote whole: their redo record "
              "began before the previous capture, or the image had no room",
              [this] {
                return static_cast<double>(lfs_stats_.checkpoint_forced_files);
              });
  m->AddGauge(this, "lfs.flushes", "count", "Flush() calls",
              [this] { return static_cast<double>(lfs_stats_.flushes); });
  m->AddGauge(this, "lfs.writer_stalls", "count",
              "writer waits for the cleaner",
              [this] { return static_cast<double>(lfs_stats_.writer_stalls); });
  m->AddGauge(this, "lfs.clean_segments", "segments",
              "segments currently clean",
              [this] { return static_cast<double>(usage_.clean_count()); });
  m->AddGauge(this, "lfs.utilization", "ratio",
              "live blocks / non-clean segment capacity", [this] {
                uint64_t live = 0, cap = 0;
                for (uint32_t s = 0; s < usage_.nsegments(); s++) {
                  if (usage_.state(s) == SegState::kClean) continue;
                  live += usage_.live(s);
                  cap += options_.segment_blocks;
                }
                return cap == 0 ? 0.0
                                : static_cast<double>(live) /
                                      static_cast<double>(cap);
              });
  // Sampler-visible log-health time series (ISSUE: "the log's health is a
  // time series, not just an end-state").
  m->AddGauge(this, "logecon.live_fraction", "ratio",
              "live blocks / total log capacity", [this] {
                uint64_t cap = static_cast<uint64_t>(usage_.nsegments()) *
                               options_.segment_blocks;
                return cap == 0 ? 0.0
                                : static_cast<double>(usage_.total_live()) /
                                      static_cast<double>(cap);
              });
  m->AddGauge(this, "logecon.free_segments", "segments",
              "clean segments available to the writer",
              [this] { return static_cast<double>(usage_.clean_count()); });
}

Lfs::~Lfs() { env_->metrics()->DropOwner(this); }

// ------------------------------------------------------------- lifecycle --

Status Lfs::Format() {
  char block[kBlockSize] = {0};
  LfsSuperblock sb;
  sb.segment_blocks = options_.segment_blocks;
  sb.max_inodes = options_.max_inodes;
  sb.nsegments = geo_.nsegments;
  sb.seg_start = geo_.seg_start;
  sb.checkpoint_a = geo_.checkpoint_a;
  sb.checkpoint_b = geo_.checkpoint_b;
  sb.checkpoint_blocks = geo_.checkpoint_blocks;
  memcpy(block, &sb, sizeof(sb));
  disk_->RawWrite(0, 1, block);

  cur_seg_ = 0;
  cur_gen_ = usage_.Activate(cur_seg_);
  cur_off_ = 0;
  log_head_gen_++;
  next_write_seq_ = 1;
  mounted_ = true;
  LFSTX_RETURN_IF_ERROR(InitRoot());
  LFSTX_RETURN_IF_ERROR(Flush(kNoTxn));
  SimMutexGuard g(&flush_lock_);
  return WriteCheckpointLocked();
}

Status Lfs::Mount() {
  if (mounted_) return Status::OK();
  char block[kBlockSize];
  disk_->RawRead(0, 1, block);
  LfsSuperblock sb;
  memcpy(&sb, block, sizeof(sb));
  if (sb.magic != kMagic) return Status::Corruption("bad LFS superblock");
  if (sb.segment_blocks != options_.segment_blocks ||
      sb.max_inodes != options_.max_inodes) {
    // Adopt the on-disk geometry.
    options_.segment_blocks = sb.segment_blocks;
    options_.max_inodes = sb.max_inodes;
    imap_ = InodeMap(sb.max_inodes);
  }
  geo_.seg_start = sb.seg_start;
  geo_.nsegments = sb.nsegments;
  geo_.checkpoint_blocks = sb.checkpoint_blocks;
  geo_.checkpoint_a = sb.checkpoint_a;
  geo_.checkpoint_b = sb.checkpoint_b;
  usage_ = SegmentUsage(geo_.nsegments, options_.segment_blocks);
  // Move-assignment replaced the telemetry-attached table; re-attach
  // before recovery mutates it.
  usage_.AttachTelemetry(env_);

  LFSTX_RETURN_IF_ERROR(RecoverFromCheckpointAndRollForward());
  mounted_ = true;
  return Status::OK();
}

Status Lfs::Unmount() {
  if (!mounted_) return Status::OK();
  if (AnyOpenFiles()) return Status::Busy("open files at unmount");
  LFSTX_RETURN_IF_ERROR(Flush(kNoTxn));
  {
    SimMutexGuard g(&flush_lock_);
    LFSTX_RETURN_IF_ERROR(WriteCheckpointLocked());
  }
  ClearInodeTable();
  mounted_ = false;
  return Status::OK();
}

Status Lfs::SyncAll() { return Flush(kNoTxn); }

Status Lfs::SyncFile(InodeNum inum) {
  return FlushUnderLock(kNoTxn, FlushScope::kFile, inum);
}

Status Lfs::WriteBack(Buffer* buf) {
  (void)buf;
  if (flush_owner_ != nullptr && flush_owner_ == SimEnv::Current()) {
    return Status::Internal(
        "re-entrant LFS flush: buffer cache too small for the flush "
        "working set");
  }
  return Flush(kNoTxn);
}

Status Lfs::Checkpoint() {
  SimMutexGuard g(&flush_lock_);
  if (!g.locked()) return Status::Busy("stopped before checkpoint");
  flush_owner_ = SimEnv::Current();
  Status s = WriteCheckpointLocked();
  flush_owner_ = nullptr;
  return s;
}

// ----------------------------------------------------------------- inodes --

Status Lfs::LoadInode(InodeNum inum, DiskInode* out) {
  if (inum == kInvalidInode || inum > options_.max_inodes) {
    return Status::InvalidArgument("inode number out of range");
  }
  const ImapEntry& e = imap_.Get(inum);
  if (e.inode_addr == 0) {
    return Status::NotFound("inode " + std::to_string(inum) + " not mapped");
  }
  char block[kBlockSize];
  LFSTX_RETURN_IF_ERROR(disk_->Read(e.inode_addr, 1, block));
  for (uint32_t slot = 0; slot < kInodesPerBlock; slot++) {
    DiskInode d;
    DecodeInode(block, slot, &d);
    if (d.inum == inum && d.file_type() != FileType::kFree) {
      *out = d;
      return Status::OK();
    }
  }
  return Status::Corruption("inode " + std::to_string(inum) +
                            " missing from its mapped block");
}

Result<InodeNum> Lfs::AllocInodeNum() { return imap_.AllocInum(); }

Status Lfs::ReleaseInodeNum(Inode* ino) {
  BlockAddr prev = imap_.Free(ino->num());
  if (prev != 0) {
    imap_free_unlogged_ = true;
    auto it = inode_block_refs_.find(prev);
    if (it != inode_block_refs_.end() && --it->second == 0) {
      usage_.DecLive(SegOf(prev), SlotOf(prev));
      inode_block_refs_.erase(it);
    }
  }
  return Status::OK();
}

Status Lfs::NoteInodeDirty(Inode* ino) {
  ino->dirty = true;
  ino->attrs_dirty = true;
  return Status::OK();
}

Status Lfs::NoteMapDirty(Inode* ino) {
  ino->dirty = true;
  return Status::OK();
}

// ----------------------------------------------------------------- blocks --

Result<BlockAddr> Lfs::AllocBlockAddr(Inode* ino) {
  (void)ino;
  return kInvalidBlock;  // addresses are assigned by the segment writer
}

void Lfs::ReleaseBlockAddr(BlockAddr addr) {
  if (addr >= geo_.seg_start) {
    usage_.DecLive(SegOf(addr), SlotOf(addr));
  }
}

Status Lfs::EnterDataPath(Inode* ino) {
  if (!ino->being_cleaned) return Status::OK();
  // The kernel cleaner's file lockout is a cleaner stall like the writer's
  // (StallForCleaner): same profiler phase, same blame edge.
  bool stopped = WaitOnCleaner(
      [this, ino] {
        while (ino->being_cleaned) {
          if (ino->clean_wait == nullptr) {
            ino->clean_wait = std::make_unique<WaitQueue>(env_);
          }
          if (ino->clean_wait->Sleep() == WakeReason::kStopped) return true;
        }
        return false;
      },
      [ino] { return TraceField("inum", ino->num()); });
  if (stopped) {
    return Status::Busy("simulation stopped while file was being cleaned");
  }
  return Status::OK();
}

}  // namespace lfstx
