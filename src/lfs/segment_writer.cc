// The segment writer: gathers the dirty blocks of a flush's scope (the
// whole cache, or one file plus the namespace closure), assigns log
// addresses, updates the metadata chain bottom-up (data -> indirect ->
// inode -> inode map), and pushes each partial segment to disk as one
// contiguous write. Inode-map blocks go out only with checkpoints,
// cleaning passes and frees; roll-forward rebuilds the rest. An fsync or a
// transaction commit writes just the data blocks of a file that changed
// only in block pointers and size since its inode was logged, and its
// summaries' redo table names the file and its size (DESIGN.md §14). A
// checkpoint writes such a file whole only once its record began before
// the previous capture; until then the image's redo point covers it.
#include <algorithm>
#include <cstring>

#include "check/gen_stamp.h"
#include "lfs/cleaner.h"
#include "lfs/lfs.h"

namespace lfstx {

namespace {
constexpr FileId kMetaFileBit = 1ull << 40;

bool IsFileMeta(FileId f) {
  return (f & kMetaFileBit) != 0 && f != kMetaFileId && f != kInodeMapFileId;
}
}  // namespace

Status Lfs::Flush(TxnId txn) {
  return FlushUnderLock(txn, FlushScope::kAll, kInvalidInode);
}

Status Lfs::FlushUnderLock(TxnId txn, FlushScope scope, InodeNum file) {
  if (flush_owner_ != nullptr && flush_owner_ == SimEnv::Current()) {
    return Status::Internal("re-entrant LFS flush");
  }
  SimMutexGuard g(&flush_lock_);
  if (!g.locked()) {
    return Status::Busy("simulation stopped while waiting for the log");
  }
  flush_owner_ = SimEnv::Current();
  Status s = FlushLocked(txn, scope, file);
  flush_owner_ = nullptr;
  return s;
}

Status Lfs::LogImapLocked() {
  const uint32_t room = CheckpointData::MaxRedoFiles(
      geo_.checkpoint_blocks, imap_.nblocks(), geo_.nsegments);
  // A writer stall inside the flush drops the lock, and another flush may
  // then dirty the map again or defer more files than the image can list:
  // go again until neither holds.
  for (;;) {
    std::vector<uint64_t> starts;
    for (Inode* ino : InCoreInodes()) {
      if (ino->deferred) starts.push_back(ino->redo_seq);
    }
    // The bound: a file whose record began before the previous capture goes
    // out whole, so the redo point never lags the head by more than one
    // interval. Past the image's room, so do the earliest-started files.
    capture_force_seq_ = last_cp_.head_seq;
    if (starts.size() > room) {
      std::sort(starts.begin(), starts.end());
      capture_force_seq_ =
          std::max(capture_force_seq_, starts[starts.size() - room - 1] + 1);
    }
    auto forced = static_cast<uint64_t>(
        std::count_if(starts.begin(), starts.end(), [this](uint64_t seq) {
          return seq < capture_force_seq_;
        }));
    if (imap_.DirtyBlocks().empty() && forced == 0) return Status::OK();
    lfs_stats_.checkpoint_forced_files += forced;
    LFSTX_RETURN_IF_ERROR(FlushLocked(kNoTxn, FlushScope::kCheckpoint));
  }
}

bool Lfs::HasUnloggedChanges(FlushScope scope) {
  return cache_->dirty_count() > 0 || !DirtyInodes().empty() ||
         imap_free_unlogged_ ||
         (scope == FlushScope::kCheckpoint && !imap_.DirtyBlocks().empty());
}

Status Lfs::FlushLocked(TxnId txn, FlushScope scope, InodeNum file) {
  lfs_stats_.flushes++;

  // The reserve rule (MayTakeSegment) holds at entry too, not only in
  // AdvanceSegment: a flush that fits in the current segment never calls
  // it, so a stalled writer would keep trickling blocks into the log
  // between passes until the reserve ratchets away beneath the cleaner.
  //
  // A flush that a pass drained has nothing left to write, and while the
  // reserve is whole it returns. Its writer goes on to overwrite more
  // blocks, and only overwrites make the next passes gain ground: at high
  // utilization a pass's copy-forward rewrites about as many metadata
  // blocks as its victim held dead ones, so a cleaner whose writers are
  // all parked nets no segment. Below the reserve (a pass dug into it) the
  // writer waits even with nothing to write, so the backlog the next pass
  // drains stays bounded.
  while (!MayTakeSegment()) {
    if (usage_.clean_count() == kCleanerReserveSegments &&
        !HasUnloggedChanges(scope)) {
      return Status::OK();
    }
    LFSTX_RETURN_IF_ERROR(StallForCleaner());
  }

  // ---- chunk assembly state ----
  // Each chunk is staged in stage_: every block written (the summary and
  // nplaced payload blocks) is fully overwritten first, so stale bytes
  // from an earlier flush never reach the disk.
  if (stage_.empty()) {
    stage_.resize((1ull + options_.segment_blocks) * kBlockSize);
  }
  char* const chunk = stage_.data();
  std::vector<SummaryEntry> entries;
  uint32_t nplaced = 0;
  uint32_t chunk_cap = 0;
  BlockAddr chunk_base = 0;
  bool chunk_open = false;
  // Byte provenance for the open chunk, charged in seal() right before the
  // chunk's single disk write so the partition tracks the disk's
  // submit-time block counter exactly (even across a crash tear).
  uint64_t chunk_cat[kNumLogByteCats] = {};
  // The files this flush logs without their inodes and indirect blocks,
  // with their sizes (step 1 fills it before the first chunk opens). Every
  // chunk of the flush carries the table, and the last one marks the
  // record complete.
  std::vector<RedoRow> redo;
  auto deferring = [&redo](InodeNum inum) {
    return std::any_of(redo.begin(), redo.end(),
                       [inum](const RedoRow& r) { return r.inum == inum; });
  };
  // Buffers placed in the open chunk stay pinned and dirty until the chunk
  // is durably on disk, then are released in one batch — this bounds the
  // number of pinned frames to one chunk regardless of flush size. Each
  // carries its modification count as of its copy into the chunk.
  std::vector<std::pair<Buffer*, uint64_t>> chunk_buffers;
  cache_->PushNoDirtyEviction();
  struct FlushGuard {
    Lfs* lfs;
    const bool* chunk_open;
    ~FlushGuard() {
      lfs->cache_->PopNoDirtyEviction();
      if (*chunk_open) lfs->stage_live_ = false;  // error exit mid-chunk
    }
  } flush_guard{this, &chunk_open};
  auto close_chunk = [&] {
    if (chunk_open) stage_live_ = false;
    chunk_open = false;
  };

  auto seal = [&](bool final_commit) -> Status {
    if (!chunk_open || entries.empty()) {
      close_chunk();
      return Status::OK();
    }
    // LFSTX_YIELD_OK(flush lock serializes log appends; the GenStamp below aborts if the head moves)
    uint32_t after = cur_off_ + 1 + nplaced;
    BlockAddr next_addr = kInvalidBlock;
    if (after + 2 <= options_.segment_blocks) {
      next_addr = SegBase(cur_seg_) + after;
    } else {
      // This chunk fills the segment; name the successor now so recovery
      // can follow the chain across the boundary.
      int64_t next = EnsureSuccessor();
      if (next >= 0) next_addr = SegBase(static_cast<uint32_t>(next));
    }
    Summary s;
    s.write_seq = next_write_seq_++;
    s.timestamp = env_->Now();
    s.generation = cur_gen_;
    s.next_addr = next_addr;
    s.txn = txn;
    s.txn_commit = final_commit && txn != kNoTxn;
    if (!redo.empty()) {
      s.redo = redo;
      s.redo_final = final_commit;
    }
    s.entries = entries;
    s.Encode(chunk, chunk + kBlockSize);
    env_->Consume(env_->costs().segment_block_cpu_us);
    LFSTX_TRACE(env_->tracer(), TraceCat::kLfs, "partial_segment",
                {"seg", cur_seg_}, {"base", chunk_base},
                {"blocks", nplaced}, {"write_seq", s.write_seq},
                {"txn", txn}, {"commit", s.txn_commit},
                {"next_addr", next_addr});
    // The flush lock serializes log appends, so the head must not move
    // while the chunk's multi-block write is in flight — `after` was
    // computed from the pre-write head and becomes the head afterwards.
    GenStamp<Lfs> head(this);
    // The summary block itself is always kSummary, cleaning or not; the
    // payload was tallied per-block as it was placed.
    env_->log_econ()->ChargeBlocks(LogByteCat::kSummary, 1);
    for (int c = 0; c < kNumLogByteCats; c++) {
      env_->log_econ()->ChargeBlocks(static_cast<LogByteCat>(c), chunk_cat[c]);
      chunk_cat[c] = 0;
    }
    Status wrote = disk_->Write(chunk_base, 1 + nplaced, chunk);
    LFSTX_GEN_CHECK(head,
                    "log head moved during a partial-segment write — the "
                    "flush lock's exclusion was violated");
    // The chunk's slots are spent whether or not its write finished (a
    // stopped simulation fails it): the owner table already holds its
    // blocks, so the head must not offer those slots again.
    cur_off_ = after;
    log_head_gen_++;
    LFSTX_RETURN_IF_ERROR(wrote);
    lfs_stats_.partial_segments++;
    lfs_stats_.blocks_written += nplaced;
    entries.clear();
    nplaced = 0;
    close_chunk();
    // The chunk is durable: its buffers may now be evicted and re-read.
    // One a process modified during the write stays dirty: the disk holds
    // the older bytes.
    for (auto [b, mods] : chunk_buffers) {
      if (b->mods == mods) cache_->MarkClean(b);
      cache_->Release(b);
    }
    chunk_buffers.clear();
    return Status::OK();
  };

  auto open_chunk = [&]() -> Status {
    if (cur_off_ + 2 > options_.segment_blocks) {
      LFSTX_RETURN_IF_ERROR(AdvanceSegment());
    }
    chunk_base = SegBase(cur_seg_) + cur_off_;
    chunk_cap = std::min<uint32_t>(
        Summary::MaxEntries() - static_cast<uint32_t>(redo.size()),
        options_.segment_blocks - cur_off_ - 1);
    LFSTX_CHECK(!stage_live_,
                "LFS flush opened a staging chunk while another flush's "
                "chunk is live — the flush lock's exclusion was violated");
    stage_live_ = true;
    chunk_open = true;
    return Status::OK();
  };

  auto place = [&](BlockKind kind, LogByteCat cat, InodeNum inum,
                   uint64_t lblock, const char* src) -> Result<BlockAddr> {
    if (chunk_open && nplaced >= chunk_cap) {
      LFSTX_RETURN_IF_ERROR(seal(false));
    }
    if (!chunk_open) {
      LFSTX_RETURN_IF_ERROR(open_chunk());
    }
    BlockAddr addr = chunk_base + 1 + nplaced;
    memcpy(chunk + (1ull + nplaced) * kBlockSize, src, kBlockSize);
    SummaryEntry owner{static_cast<uint32_t>(kind), inum, lblock};
    entries.push_back(owner);
    chunk_cat[static_cast<int>(cat)]++;
    nplaced++;
    env_->Consume(env_->costs().segment_block_cpu_us);
    usage_.AddLive(SegOf(addr), SlotOf(addr), owner, env_->Now());
    return addr;
  };

  // ---- 0. scope: the files whose blocks this flush writes ----
  // kAll walks the cache's dirty list. The scoped flushes walk the index
  // of each file in scope instead, in inode order, which is the dirty
  // list's order; the in-core table is read afresh on every pass, since
  // the pass before may have yielded on a chunk write.
  Inode* target = nullptr;
  if (scope == FlushScope::kFile) {
    LFSTX_ASSIGN_OR_RETURN(target, GetInode(file));
  }
  auto in_scope = [&](Inode* ino) {
    return (scope == FlushScope::kFile && ino->num() == file) ||
           ino->d.file_type() == FileType::kDirectory ||
           (scope == FlushScope::kCheckpoint && ForcedAtCapture(ino));
  };
  // The scope's dirty buffers whose key passes `want`, pinned, in key
  // order.
  auto collect = [&](auto want) {
    std::vector<Buffer*> out;
    auto keep = [&](Buffer* b) {
      if (want(b->key)) {
        out.push_back(b);
      } else {
        cache_->Release(b);  // another pass's
      }
    };
    if (scope == FlushScope::kAll) {
      for (Buffer* b : cache_->CollectDirty()) keep(b);
    } else {
      for (Inode* ino : InCoreInodes()) {
        if (!in_scope(ino)) continue;
        for (FileId f : {ino->data_file_id(), ino->meta_file_id()}) {
          for (Buffer* b : cache_->CollectDirtyFile(f)) keep(b);
        }
      }
    }
    return out;
  };

  // Provenance: a cleaning pass's flushes after its drain charge their
  // whole payload to the cleaner (copy-forward and the metadata churn it
  // causes); every other flush, the drain included, charges each block by
  // its kind, and data splits into WAL-file appends vs. true user data.
  auto charge = [this](LogByteCat own) {
    return cleaner_copying_ ? LogByteCat::kCleaner : own;
  };

  // ---- 1. data blocks, in (file, logical block) order ----
  std::vector<Buffer*> data = collect([](BufferKey k) {
    return !IsFileMeta(k.file) && k.file != kMetaFileId &&
           k.file != kInodeMapFileId;
  });
  // An fsync defers its file, and a commit every file it writes data for,
  // when roll-forward can redo the indirect blocks and inode: a regular
  // file whose inode is in the log and has changed since only in block
  // pointers and a size Write grew. Its data blocks' summary entries and
  // the size in the redo table are then the redo record. A new direct or
  // indirect block is an attribute change, so the redo never has to invent
  // an indirect block. The untagged full flushes never defer: they are what
  // writes deferred files out, with the checkpoint's bound
  // (ForcedAtCapture) and any commit that writes none of the file's data.
  // Each size is taken with no yield since the collect, so it covers
  // exactly the writes whose blocks this flush carries. The table takes at
  // most half the summary block, so a chunk still holds a default
  // segment's payload; files past that go out whole.
  auto defer_if_clean = [&](const Inode* ino) {
    if (ino != nullptr && ino->d.file_type() == FileType::kRegular &&
        !ino->attrs_dirty && imap_.Get(ino->num()).inode_addr != 0 &&
        redo.size() < Summary::MaxEntries() / 2) {
      redo.push_back(RedoRow{ino->num(), 0, ino->d.size});
    }
  };
  if (scope == FlushScope::kFile) {
    defer_if_clean(target);
  } else if (txn != kNoTxn) {
    InodeNum last = kInvalidInode;
    for (Buffer* b : data) {
      auto inum = static_cast<InodeNum>(b->key.file);
      if (inum != last) defer_if_clean(FindInCore(inum));
      last = inum;
    }
  }
  for (Buffer* b : data) {
    LFSTX_ASSIGN_OR_RETURN(Inode * ino,
                           GetInode(static_cast<InodeNum>(b->key.file)));
    LFSTX_ASSIGN_OR_RETURN(
        BlockAddr addr,
        place(BlockKind::kData,
              charge(IsWalFile(b->key.file) ? LogByteCat::kWal
                                            : LogByteCat::kUserData),
              ino->num(), b->key.lblock, b->data));
    // Recorded before SetBlockMapping, which may yield on a leaf read.
    chunk_buffers.emplace_back(b, b->mods);
    LFSTX_ASSIGN_OR_RETURN(BlockAddr prev,
                           SetBlockMapping(ino, b->key.lblock, addr));
    if (prev != kInvalidBlock) ReleaseBlockAddr(prev);
    b->disk_addr = addr;
    // Marked after the placement: a writer stall inside it lets a
    // cleaning pass's drain log (and un-defer) the inode. The record starts
    // in the open chunk, whose seal takes the next write_seq: nothing else
    // appends while it is open.
    if (deferring(ino->num()) && !ino->deferred) {
      ino->deferred = true;
      ino->redo_seq = next_write_seq_;
      ino->redo_addr = chunk_base;
    }
  }

  // ---- 2./3. indirect blocks: children first, then roots ----
  for (bool children : {true, false}) {
    for (Buffer* b : collect([&, children](BufferKey k) {
           return IsFileMeta(k.file) &&
                  !deferring(static_cast<InodeNum>(k.file & 0xffffffffu)) &&
                  (k.lblock >= kMetaDoubleChildBase) == children;
         })) {
      InodeNum inum = static_cast<InodeNum>(b->key.file & 0xffffffffu);
      LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
      LFSTX_ASSIGN_OR_RETURN(
          BlockAddr addr,
          place(BlockKind::kIndirect,
                charge(LogByteCat::kInode),
                inum, b->key.lblock, b->data));
      chunk_buffers.emplace_back(b, b->mods);
      LFSTX_ASSIGN_OR_RETURN(
          BlockAddr prev, SetMetaBlockMapping(ino, b->key.lblock, addr));
      if (prev != kInvalidBlock) ReleaseBlockAddr(prev);
      b->disk_addr = addr;
    }
  }

  // ---- 4. inodes, packed kInodesPerBlock to a block ----
  // A scoped flush also writes every dirty inode the log has never seen:
  // a directory block it writes may name one. Such an inode's own blocks
  // stay in the cache, so its attributes stay dirty: its next fsync must
  // log its indirect blocks and inode, which roll-forward cannot redo.
  std::vector<Inode*> dirty_inodes;
  for (Inode* ino : InCoreInodes()) {
    if (ino->dirty && !deferring(ino->num()) &&
        (scope == FlushScope::kAll || in_scope(ino) ||
         imap_.Get(ino->num()).inode_addr == 0)) {
      dirty_inodes.push_back(ino);
    }
  }
  for (size_t i = 0; i < dirty_inodes.size(); i += kInodesPerBlock) {
    char iblock[kBlockSize];
    memset(iblock, 0, sizeof(iblock));
    size_t n = std::min<size_t>(kInodesPerBlock, dirty_inodes.size() - i);
    // Each inode is clean from its encoding on: placing the block may
    // yield, and a change made meanwhile must dirty it again. A failed
    // placement restores what it cleared.
    struct Flags {
      bool attrs_dirty, deferred;
    };
    Flags cleared[kInodesPerBlock] = {};
    for (size_t j = 0; j < n; j++) {
      Inode* ino = dirty_inodes[i + j];
      // A reused inode number adopts the inode map's bumped version so the
      // cleaner can tell this incarnation's blocks from the old file's.
      ino->d.version =
          std::max(ino->d.version, imap_.Get(ino->num()).version);
      EncodeInode(ino->d, iblock, static_cast<uint32_t>(j));
      cleared[j] = {ino->attrs_dirty, ino->deferred};
      if (scope == FlushScope::kAll || in_scope(ino)) {
        ino->attrs_dirty = false;
      }
      ino->dirty = ino->deferred = false;
    }
    auto placed = place(BlockKind::kInode, charge(LogByteCat::kInode),
                        dirty_inodes[i]->num(), 0, iblock);
    if (!placed.ok()) {
      for (size_t j = 0; j < n; j++) {
        Inode* ino = dirty_inodes[i + j];
        ino->dirty = true;
        ino->attrs_dirty |= cleared[j].attrs_dirty;
        ino->deferred |= cleared[j].deferred;
      }
      return placed.status();
    }
    BlockAddr addr = placed.value();
    inode_block_refs_[addr] = static_cast<uint32_t>(n);
    for (size_t j = 0; j < n; j++) {
      Inode* ino = dirty_inodes[i + j];
      BlockAddr prev = imap_.Set(ino->num(), addr, ino->d.version);
      if (prev != 0) {
        auto it = inode_block_refs_.find(prev);
        if (it != inode_block_refs_.end() && --it->second == 0) {
          usage_.DecLive(SegOf(prev), SlotOf(prev));
          inode_block_refs_.erase(it);
        }
      }
    }
  }

  // ---- 5. inode-map blocks, only when roll-forward cannot do without ----
  // A periodic checkpoint is decided here, not after the seal, so its imap
  // blocks ride in this flush's last chunk; nothing below can activate
  // another segment unless imap blocks are placed.
  bool checkpoint_due =
      segments_since_checkpoint_ >= options_.checkpoint_every_segments;
  if (scope == FlushScope::kCheckpoint || checkpoint_due ||
      cleaning_in_progress_ || imap_free_unlogged_) {
    for (uint32_t idx : imap_.DirtyBlocks()) {
      char mblock[kBlockSize];
      imap_.EncodeBlock(idx, mblock);
      LFSTX_ASSIGN_OR_RETURN(
          BlockAddr addr,
          place(BlockKind::kImap,
                charge(LogByteCat::kImap),
                kInvalidInode, idx, mblock));
      BlockAddr prev = imap_.block_addrs()[idx];
      if (prev != 0) usage_.DecLive(SegOf(prev), SlotOf(prev));
      imap_.block_addrs()[idx] = addr;
    }
    imap_.ClearDirty();
    imap_free_unlogged_ = false;
  }

  LFSTX_RETURN_IF_ERROR(seal(/*final_commit=*/true));
  // The checkpoint append's caller captures right after it.
  if (scope == FlushScope::kCheckpoint) return Status::OK();
  return MaybePeriodicCheckpoint();
}

int64_t Lfs::EnsureSuccessor() {
  if (next_seg_hint_ < 0 ||
      usage_.state(static_cast<uint32_t>(next_seg_hint_)) !=
          SegState::kClean) {
    auto r = usage_.PickClean(cur_seg_);
    next_seg_hint_ = r.ok() ? static_cast<int64_t>(r.value()) : -1;
  }
  return next_seg_hint_;
}

Status Lfs::AdvanceSegment() {
  for (;;) {
    if (usage_.state(cur_seg_) == SegState::kActive) {
      usage_.Retire(cur_seg_);
    }
    // The successor the last summary named, unless it could name none.
    int64_t next = EnsureSuccessor();
    if (next >= 0 && MayTakeSegment()) {
      cur_seg_ = static_cast<uint32_t>(next);
      next_seg_hint_ = -1;
      cur_gen_ = usage_.Activate(cur_seg_);
      cur_off_ = 0;
      log_head_gen_++;
      lfs_stats_.segments_activated++;
      segments_since_checkpoint_++;
      LFSTX_TRACE(env_->tracer(), TraceCat::kLfs, "segment_advance",
                  {"seg", cur_seg_}, {"gen", cur_gen_},
                  {"clean_left", usage_.clean_count()});
      return Status::OK();
    }
    if (cleaning_in_progress_) {
      // The caller is the cleaner itself (it holds the log for the pass).
      // Stalling here would poke-and-wait on itself forever; abort the
      // pass instead, leaving its victim dirty for a later pass.
      return Status::NoSpace("log full during cleaning pass");
    }
    if (cleaner_ == nullptr) {
      return Status::NoSpace("log full and no cleaner attached");
    }
    // Out of segments: wake the cleaner and wait, releasing the log lock
    // so the cleaner can work. The hint stays set across the wait, so a
    // checkpoint the pass takes records the same successor the chain
    // names, and the pass's own flush continues the chain there.
    LFSTX_RETURN_IF_ERROR(StallForCleaner());
    // That flush may have moved the head to a segment with room left.
    if (cur_off_ + 2 <= options_.segment_blocks) return Status::OK();
  }
}

Status Lfs::StallForCleaner() {
  lfs_stats_.writer_stalls++;
  LFSTX_TRACE(env_->tracer(), TraceCat::kLfs, "writer_stall",
              {"clean_left", usage_.clean_count()});
  bool stopped = WaitOnCleaner(
      [this] {
        cleaner_->Poke();
        // Hand-over-hand with the cleaner: the lock must drop for the wait
        // and come back before returning to the flush, which is not a
        // lexical scope a guard can express.
        flush_lock_.Unlock();  // lint-allow: hand-over-hand with the cleaner
        clean_wait_.SleepFor(kSecond);
        return !flush_lock_.Lock() ||  // lint-allow: hand-over-hand reacquire
               env_->stop_requested();
      },
      [this] { return TraceField("clean_left", usage_.clean_count()); });
  if (stopped) {
    return Status::Busy("simulation stopped while waiting for cleaner");
  }
  flush_owner_ = SimEnv::Current();
  return Status::OK();
}

bool Lfs::WaitOnCleaner(const std::function<bool()>& wait,
                        const std::function<TraceField()>& detail) {
  SimTime since = env_->Now();
  uint64_t stall_us0 = env_->profiler()->PhaseTotal(Phase::kCleanerStall);
  bool stopped = false;
  {
    ProfPhaseScope prof_phase(env_->profiler(), Phase::kCleanerStall);
    stopped = wait();
  }
  uint64_t edge_us =
      env_->profiler()->PhaseTotal(Phase::kCleanerStall) - stall_us0;
  if (edge_us > 0) {
    stall_blame_hist_->Add(edge_us);
    LFSTX_TRACE(env_->tracer(), TraceCat::kBlame, "wait_edge",
                {"kind", "lfs"}, {"src", "cleaner"},
                {"waiter", env_->profiler()->CurrentSpanTxn()},
                {"since", since}, {"waited_us", edge_us}, detail());
  }
  return stopped;
}

Status Lfs::MaybePeriodicCheckpoint() {
  if (segments_since_checkpoint_ >= options_.checkpoint_every_segments) {
    return WriteCheckpointLocked();
  }
  return Status::OK();
}

}  // namespace lfstx
