// The log-structured file system (paper section 2, after Rosenblum &
// Ousterhout). Disk layout:
//
//   block 0                     superblock
//   blocks 1..C                 checkpoint region A
//   blocks C+1..2C              checkpoint region B
//   seg_start..end              segments (default 128 blocks each)
//
// All writes append to the current segment as partial segments (summary +
// payload, one contiguous disk request). Nothing is overwritten in place,
// so before-images of updated blocks survive until the cleaner reclaims
// them — the property the embedded transaction manager's abort path and
// crash recovery rely on (section 2, second characteristic).
#ifndef LFSTX_LFS_LFS_H_
#define LFSTX_LFS_LFS_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "fs/vfs.h"
#include "lfs/checkpoint.h"
#include "lfs/inode_map.h"
#include "lfs/segment.h"
#include "lfs/segment_usage.h"
#include "sim/sync.h"

namespace lfstx {

class Cleaner;

/// \brief Log-structured file system.
class Lfs : public FsCore {
 public:
  static constexpr uint32_t kMagic = 0x4C465331;  // "LFS1"

  struct Options {
    uint32_t segment_blocks = kDefaultSegmentBlocks;
    uint32_t max_inodes = 4096;
    /// Write a checkpoint every N segment activations (and at unmount /
    /// after every cleaning round).
    uint32_t checkpoint_every_segments = 8;
  };

  struct LfsStats {
    uint64_t partial_segments = 0;   ///< chunks written
    uint64_t segments_activated = 0;
    uint64_t blocks_written = 0;     ///< payload blocks through the log
    uint64_t checkpoints = 0;
    uint64_t checkpoints_skipped = 0;  ///< requests that found the log clean
    /// Deferred files a capture wrote whole: their record began before the
    /// previous capture, or the image had no room left to list them.
    uint64_t checkpoint_forced_files = 0;
    uint64_t flushes = 0;
    uint64_t writer_stalls = 0;      ///< waits for the cleaner
  };

  /// Filled by RecoverFromCheckpointAndRollForward; mirrored into the
  /// `recovery.*` metrics. All virtual-time fields are deterministic and
  /// byte-identical across execution backends.
  struct RecoveryStats {
    uint64_t checkpoint_seq = 0;   ///< seq of the checkpoint restored from
    uint64_t chunks = 0;           ///< chunks replayed off the chain
    /// Chunks before the checkpoint's head whose summaries the scan read
    /// from the redo point for the files the image lists.
    uint64_t redo_chunks = 0;
    uint64_t payload_blocks = 0;   ///< payload blocks read during the scan
    uint64_t apply_items = 0;      ///< imap updates and redone addresses
    uint64_t discarded_txns = 0;   ///< staged txns with no commit marker
    uint64_t torn_chunks = 0;
    uint64_t stale_chunks = 0;
    SimTime scan_us = 0;           ///< chain walk, apply included (virtual)
    SimTime apply_us = 0;          ///< CPU consumed applying items (virtual)
    SimTime total_us = 0;          ///< whole recovery span (virtual)
  };

  Lfs(SimEnv* env, SimDisk* disk, BufferCache* cache);
  Lfs(SimEnv* env, SimDisk* disk, BufferCache* cache, Options options);
  ~Lfs() override;

  const char* fs_name() const override { return "LFS"; }
  Status Format() override;
  Status Mount() override;  ///< includes crash recovery (roll-forward)
  Status Unmount() override;
  Status SyncAll() override;
  /// fsync: writes `inum`'s dirty blocks plus the namespace closure (see
  /// FlushScope::kFile), not the whole cache. Its inode and indirect
  /// blocks go too, unless roll-forward can redo them (DESIGN.md §14).
  Status SyncFile(InodeNum inum) override;

  /// WritebackHandler: an eviction of any dirty buffer triggers a full
  /// segment write — LFS always writes "a large number of dirty blocks"
  /// together (section 2).
  Status WriteBack(Buffer* buf) override;

  /// Flush everything dirty to the log. When `txn` is nonzero the chunks
  /// are tagged so roll-forward applies them atomically (commit path of
  /// the embedded transaction manager), and, as an fsync does, the flush
  /// keeps the indirect blocks and inode of each file it writes data for
  /// in core when roll-forward can redo them (DESIGN.md §14).
  Status Flush(TxnId txn = kNoTxn);

  /// Force a checkpoint now: take the flush lock and write one, as the
  /// segment trigger does (WriteCheckpointLocked).
  Status Checkpoint();

  bool is_mounted() const { return mounted_; }
  const LfsStats& lfs_stats() const { return lfs_stats_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  uint32_t clean_segments() const { return usage_.clean_count(); }
  /// Segment currently receiving appends (online-fsck invariant:
  /// exactly the segments in state kActive).
  uint32_t current_segment() const { return cur_seg_; }
  /// Blocks already used in the current segment.
  uint32_t current_offset() const { return cur_off_; }
  uint32_t nsegments() const { return geo_.nsegments; }
  uint32_t segment_blocks() const { return options_.segment_blocks; }
  uint64_t seg_start() const { return geo_.seg_start; }
  const SegmentUsage& usage() const { return usage_; }
  const InodeMap& imap() const { return imap_; }

  /// The log a recovery from the last capture reads: the chain from the
  /// redo point to the capture's head (summaries only), then on from the
  /// head. No segment holding a chunk of it may be clean.
  struct CaptureSpan {
    uint64_t redo_seq = 0;  ///< == head_seq when no file was deferred
    BlockAddr redo_addr = kInvalidBlock;
    uint64_t head_seq = 0;
    BlockAddr head_addr = kInvalidBlock;
  };
  const CaptureSpan& last_capture() const { return last_cp_; }
  /// write_seq of the next chunk: the log head.
  uint64_t next_write_seq() const { return next_write_seq_; }
  /// Visit `chunk(seq, addr)` for each chunk of the last capture's span
  /// below write_seq `end`, in log order, reading summary blocks with no
  /// virtual time. Returns the seq of the first chunk the chain does not
  /// lead to (a summary that is missing or out of sequence), else `end`.
  uint64_t WalkCaptureSpan(
      uint64_t end,
      const std::function<void(uint64_t, BlockAddr)>& chunk) const;

  /// Registered by the Cleaner so the writer can wait for free segments.
  void AttachCleaner(Cleaner* cleaner) { cleaner_ = cleaner; }

  /// Clean segments held back from regular flushes for the cleaner's own
  /// copy-forward writes. Sized for the worst single pass: the victim's
  /// live blocks plus fresh metadata (up to two segment boundaries), plus
  /// the stalled writer's drained backlog on the engagement's first pass.
  static constexpr uint32_t kCleanerReserveSegments = 3;

  /// Bumped every time the log head moves (chunk sealed, segment advanced,
  /// format, recovery restore/roll-forward). GenStamp<Lfs> assertions use
  /// it to prove the head stayed put across a multi-block disk write that
  /// assumed exclusive ownership of the log (see check/gen_stamp.h).
  uint64_t mutation_gen() const { return log_head_gen_; }

  /// Visit the current block map of every inode the inode map maps, in
  /// inode order, then every inode-map block. A deferred inode's map is its
  /// in-core copy and its cached indirect blocks (an uncached one is read
  /// from disk); every other inode's is read from disk. `inode(inum, addr,
  /// d)` sees each mapped inode and its block first, with `d` null when
  /// that block lacks it (its map is then skipped); `block(inum, kind,
  /// addr, lblock)` then sees each block the map names, numbered as the
  /// segment writer's summaries number them, and each inode-map block as
  /// (kInvalidInode, kImap, addr, index). Costs no virtual time.
  void WalkBlockMaps(
      const std::function<void(InodeNum, BlockAddr, const DiskInode*)>& inode,
      const std::function<void(InodeNum, BlockKind, BlockAddr, uint64_t)>&
          block);

  /// Drop the in-core inode table so subsequent reads hit the disk (test
  /// hook used by the consistency-checker tests).
  void ClearInodeCacheForTest() { ClearInodeTable(); }

  /// Corruption injection for the checker tests: set a segment's state.
  void SetSegmentStateForTest(uint32_t seg, SegState state) {
    usage_.SetState(seg, state);
  }

  /// Test hook for the differential-recovery test: restrict the next
  /// Mount to one checkpoint region (0 = A, 1 = B, -1 = pick newest).
  void ForceCheckpointRegionForTest(int region) {
    force_checkpoint_region_ = region;
  }

 protected:
  Status LoadInode(InodeNum inum, DiskInode* out) override;
  Result<InodeNum> AllocInodeNum() override;
  Status ReleaseInodeNum(Inode* ino) override;
  Status NoteInodeDirty(Inode* ino) override;
  Status NoteMapDirty(Inode* ino) override;
  Result<BlockAddr> AllocBlockAddr(Inode* ino) override;
  void ReleaseBlockAddr(BlockAddr addr) override;
  Status EnterDataPath(Inode* ino) override;
  /// Readahead never crosses the containing segment: a coalesced file is
  /// contiguous *within* segments, and the segment is the unit the log
  /// writes (and the cleaner rewrites) with one disk request.
  uint64_t ExtentLimitBlocks(BlockAddr addr) const override {
    if (addr < geo_.seg_start) return 1;  // superblock / checkpoint regions
    return options_.segment_blocks -
           (addr - geo_.seg_start) % options_.segment_blocks;
  }

 private:
  friend class Cleaner;

  struct LogGeometry {
    uint64_t seg_start = 0;
    uint32_t nsegments = 0;
    uint32_t checkpoint_blocks = 0;
    BlockAddr checkpoint_a = 0;
    BlockAddr checkpoint_b = 0;
  };

  // ---- address helpers ----
  uint32_t SegOf(BlockAddr addr) const {
    return static_cast<uint32_t>((addr - geo_.seg_start) /
                                 options_.segment_blocks);
  }
  BlockAddr SegBase(uint32_t seg) const {
    return geo_.seg_start +
           static_cast<uint64_t>(seg) * options_.segment_blocks;
  }
  uint32_t SlotOf(BlockAddr addr) const {
    return static_cast<uint32_t>((addr - geo_.seg_start) %
                                 options_.segment_blocks);
  }

  // ---- segment writer (segment_writer.cc) ----
  /// What one FlushLocked call writes.
  enum class FlushScope {
    /// Every dirty block and inode: sync, eviction write-back, the syncer,
    /// a cleaning pass and the embedded commit. Untagged, it writes every
    /// deferred file out; tagged (a commit), it defers like kFile, for
    /// every regular file whose data it writes.
    kAll,
    /// One file's dirty data blocks, indirect blocks and inode, plus the
    /// namespace closure: every dirty directory block and directory inode,
    /// and every dirty inode never yet written. Without the closure a
    /// recovered directory could name an inode the log never saw (fsync).
    /// A regular file whose logged inode differs from its in-core one only
    /// in block pointers and a size Write grew keeps its indirect blocks
    /// and inode in core: the chunks' redo tables name it and its size
    /// (DESIGN.md §14), and the file is marked deferred.
    kFile,
    /// The namespace closure, every deferred file the capture forces
    /// (ForcedAtCapture) whole, and every dirty inode-map block: the append
    /// that precedes a checkpoint capture.
    kCheckpoint,
  };
  /// Dirty inode-map blocks are written only when a checkpoint capture
  /// follows this flush, a cleaning pass is running, or an inode was freed
  /// since the last imap write. Roll-forward rebuilds the rest from inode
  /// blocks: the on-disk imap blocks a checkpoint names, plus the inode
  /// blocks written after it, equal the in-memory map.
  Status FlushLocked(TxnId txn, FlushScope scope = FlushScope::kAll,
                     InodeNum file = kInvalidInode);
  /// Lock the log and flush under it (Flush, SyncFile).
  Status FlushUnderLock(TxnId txn, FlushScope scope, InodeNum file);
  /// The log's one reserve rule (DESIGN.md §11): a flush may take a clean
  /// segment only while more than kCleanerReserveSegments are clean. The
  /// cleaner's own pass may always take one, since it frees its victim at
  /// the end, and so may a log with no cleaner attached.
  bool MayTakeSegment() const {
    return cleaning_in_progress_ || cleaner_ == nullptr ||
           usage_.clean_count() > kCleanerReserveSegments;
  }
  /// Whether a flush of `scope` could write anything: a dirty buffer or
  /// in-core inode, an unlogged free, or (kCheckpoint) a dirty inode-map
  /// block. Conservative for kFile, which it treats as kAll.
  bool HasUnloggedChanges(FlushScope scope);
  /// Append the dirty inode-map blocks and the deferred files the capture
  /// forces, if any, with the namespace closure (FlushScope::kCheckpoint),
  /// so the next capture never names a stale map and lists every deferred
  /// file in its image. Forced: each file whose redo record began before
  /// the previous capture, so roll-forward never reads more than two
  /// checkpoint intervals, and the earliest-started files past the image's
  /// room (DESIGN.md §14).
  Status LogImapLocked();
  /// Whether the capture LogImapLocked prepares writes `ino` whole.
  bool ForcedAtCapture(const Inode* ino) const {
    return ino->deferred && ino->redo_seq < capture_force_seq_;
  }
  /// Where the log continues after a head at offset `off` of `seg`: there,
  /// or the start of `successor` when no chunk fits (kInvalidBlock if
  /// there is none).
  BlockAddr HeadAddr(uint32_t seg, uint32_t off, int64_t successor) const {
    if (off + 2 <= options_.segment_blocks) return SegBase(seg) + off;
    return successor >= 0 ? SegBase(static_cast<uint32_t>(successor))
                          : kInvalidBlock;
  }
  /// The segment the log continues in once the current one is full: the
  /// successor the last summary (or checkpoint) named while it is still
  /// clean, else a fresh pick, remembered so the summary chain, the next
  /// checkpoint and the next activation all agree on it. -1 if no segment
  /// is clean.
  int64_t EnsureSuccessor();
  /// Move the write point to a fresh clean segment, waiting on the cleaner
  /// if none is available.
  Status AdvanceSegment();
  /// One writer-stall edge: wake the cleaner and wait for it to reclaim
  /// space, dropping the flush lock for the duration (hand-over-hand).
  /// Returns non-OK only if the simulation stopped.
  Status StallForCleaner();
  /// Runs `wait` as a cleaner stall (the writer's, or a file access the
  /// kernel cleaner locked out): its time is charged to
  /// Phase::kCleanerStall and, if any passed, recorded as a blame edge
  /// (blame.lfs.cleaner_us and an lfs/cleaner wait_edge whose last field is
  /// `detail()`, read once the wait is over). Returns what `wait` returns:
  /// true if the simulation stopped.
  bool WaitOnCleaner(const std::function<bool()>& wait,
                     const std::function<TraceField()>& detail);
  Status MaybePeriodicCheckpoint();

  // ---- checkpoint / recovery (checkpoint.cc, recovery.cc) ----
  /// Every checkpoint (format, unmount, the segment trigger, the end of a
  /// cleaning pass or of recovery, Checkpoint()): under the flush lock,
  /// log the dirty inode map and the forced files (LogImapLocked), capture
  /// the state with the redo point and the deferred files, pick the other
  /// region and write the image there. Skips when the log is clean.
  Status WriteCheckpointLocked();
  /// True when nothing was appended since the last capture — the on-disk
  /// image is already current.
  bool CheckpointIsCleanLocked() const {
    return next_write_seq_ == last_cp_.head_seq && cur_seg_ == last_cp_seg_ &&
           cur_off_ == last_cp_off_;
  }
  Status RecoverFromCheckpointAndRollForward();
  /// Recompute every segment's owner slots and live count by walking all
  /// inodes' current maps (WalkBlockMaps). A segment with no live block
  /// becomes clean unless `keep_dirty[seg]` is set.
  Status RebuildUsage(const std::vector<bool>& keep_dirty);

  Options options_;
  LogGeometry geo_;
  InodeMap imap_;
  SegmentUsage usage_;

  uint32_t cur_seg_ = 0;
  uint32_t cur_off_ = 0;   // blocks already used in cur_seg_
  uint32_t cur_gen_ = 0;   // generation of cur_seg_
  int64_t next_seg_hint_ = -1;  // successor named by summaries, checkpoints
  uint64_t log_head_gen_ = 0;   // see mutation_gen()
  uint64_t next_write_seq_ = 1;
  uint64_t checkpoint_seq_ = 0;
  bool checkpoint_to_a_ = true;
  uint32_t segments_since_checkpoint_ = 0;
  /// An inode was freed since the last imap write. Roll-forward cannot
  /// learn a free from inode blocks, so the next flush logs the imap.
  bool imap_free_unlogged_ = false;
  /// State at the last checkpoint capture: its span, and its head for
  /// skip-if-clean. Stale usage counts (which can change without the head
  /// moving) are fine to leave uncheckpointed: recovery rebuilds usage
  /// exactly.
  CaptureSpan last_cp_;
  uint32_t last_cp_seg_ = ~0u;
  uint32_t last_cp_off_ = ~0u;
  int force_checkpoint_region_ = -1;  // see ForceCheckpointRegionForTest
  /// Set by LogImapLocked for its kCheckpoint flush: a deferred file whose
  /// record starts before this chunk goes out whole (ForcedAtCapture).
  uint64_t capture_force_seq_ = 0;

  SimMutex flush_lock_;
  SimProc* flush_owner_ = nullptr;  // detects re-entrant flushes
  /// FlushLocked's chunk staging buffer (a summary block plus one segment
  /// of payload), allocated by the first flush and reused by every later
  /// one. Its bytes are live only from opening a chunk to sealing it, all
  /// under the flush lock; `stage_live_` marks that window.
  std::vector<char> stage_;
  bool stage_live_ = false;
  WaitQueue clean_wait_;   // writer waits here for the cleaner
  Cleaner* cleaner_ = nullptr;
  bool cleaning_in_progress_ = false;
  /// Set while a cleaning pass copies forward, after its drain of the
  /// writers' backlog: flushes then charge their payload to
  /// LogByteCat::kCleaner. The drain is charged like a regular flush.
  bool cleaner_copying_ = false;
  LfsStats lfs_stats_;
  RecoveryStats recovery_stats_;
  MetricHistogram* stall_blame_hist_ = nullptr;  // blame.lfs.cleaner_us

  /// Inodes are packed 16 to a block; a block stays live while any of its
  /// inodes is current. Rebuilt from the inode map at mount.
  std::unordered_map<BlockAddr, uint32_t> inode_block_refs_;
};

}  // namespace lfstx

#endif  // LFSTX_LFS_LFS_H_
