// Checkpointing and crash recovery.
//
// Every checkpoint is written under the flush lock (WriteCheckpointLocked):
// it logs the dirty inode-map blocks first (LogImapLocked), because flushes
// leave them to roll-forward and an image must not name a stale map, then
// captures the log head, inode-map addresses and usage table and writes the
// image to the region the previous checkpoint did not use. The lock keeps
// the head still from the capture to the end of the image write, and the
// regions alternate, so a crash mid-write falls back to the other region.
//
// Recovery loads the newer valid checkpoint, rolls the log forward along
// the summary chain from the image's redo point (staging
// transaction-tagged chunks until their commit marker), then rebuilds the
// usage table and its owner slots exactly and writes a fresh checkpoint.
// The roll-forward is one sequential pass that replays every chunk the
// same way before the image's head and after it: it applies each inode
// and inode-map update inline, in log order, and collects the redo
// records of flushes that deferred metadata (DESIGN.md §14). A record
// counts once its flush's final chunk is in the chain (for a commit, its
// commit marker), an inode block written after it supersedes it, and the
// rest are applied to their inodes once the pass ends, before the usage
// rebuild. The whole recovery holds the flush lock: the cleaner
// and syncer daemons start before the file system is mounted, and only the
// lock keeps them from appending to a log whose head the scan has not
// found yet.
#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "check/gen_stamp.h"
#include "lfs/lfs.h"

namespace lfstx {

// ------------------------------------------------------------ checkpoints --

Status Lfs::WriteCheckpointLocked() {
  if (CheckpointIsCleanLocked()) {
    lfs_stats_.checkpoints_skipped++;
    return Status::OK();
  }
  LFSTX_RETURN_IF_ERROR(LogImapLocked());
  // The caller holds the flush lock, so no one may append to the log (or
  // advance the head) from the capture to the end of the image write — the
  // image's (seg, off, seq) snapshot would silently go stale.
  GenStamp<Lfs> head(this);
  CheckpointData cp;
  cp.seq = ++checkpoint_seq_;
  cp.timestamp = env_->Now();
  cp.cur_segment = cur_seg_;
  cp.cur_offset = cur_off_;
  cp.cur_generation = cur_gen_;
  // A write point with no room for a chunk continues in a successor. Name
  // it now if the last summary could not (no clean segment then); the next
  // activation takes the hint, so the chain and this image agree on it.
  if (cur_off_ + 2 > options_.segment_blocks) {
    int64_t next = EnsureSuccessor();
    if (next >= 0) cp.next_segment = static_cast<uint32_t>(next);
  }
  cp.next_write_seq = next_write_seq_;
  // The redo point: the earliest chunk a still-deferred file's record
  // starts at, else the head. LogImapLocked wrote whole every file whose
  // record began before the previous capture.
  CaptureSpan span;
  span.head_seq = next_write_seq_;
  span.head_addr = HeadAddr(
      cur_seg_, cur_off_,
      cp.next_segment == kNoSegment ? -1 : int64_t{cp.next_segment});
  span.redo_seq = span.head_seq;
  span.redo_addr = span.head_addr;
  for (Inode* ino : InCoreInodes()) {
    if (ino->deferred && ino->redo_seq < span.redo_seq) {
      span.redo_seq = ino->redo_seq;
      span.redo_addr = ino->redo_addr;
    }
  }
  cp.redo_seq = span.redo_seq;
  cp.redo_addr = span.redo_addr;
  cp.imap_addrs = imap_.block_addrs();
  cp.usage_bytes.resize(usage_.SerializedBytes());
  usage_.Serialize(cp.usage_bytes.data());
  BlockAddr region = checkpoint_to_a_ ? geo_.checkpoint_a : geo_.checkpoint_b;
  LFSTX_TRACE(env_->tracer(), TraceCat::kCheckpoint, "checkpoint",
              {"seq", cp.seq}, {"region", checkpoint_to_a_ ? "A" : "B"},
              {"seg", cur_seg_}, {"off", cur_off_},
              {"blocks", geo_.checkpoint_blocks},
              {"redo_seq", span.redo_seq});
  checkpoint_to_a_ = !checkpoint_to_a_;
  segments_since_checkpoint_ = 0;
  last_cp_ = span;
  last_cp_seg_ = cur_seg_;
  last_cp_off_ = cur_off_;

  // Checkpoint region writes are attributed to the checkpoint cause even
  // when a foreground commit (MaybePeriodicCheckpoint) triggers them.
  ProfCauseScope prof_cause(env_->profiler(), IoCause::kCheckpoint);
  std::vector<char> buf(static_cast<size_t>(geo_.checkpoint_blocks) *
                        kBlockSize);
  cp.Encode(buf.data(), geo_.checkpoint_blocks);
  env_->log_econ()->ChargeBlocks(LogByteCat::kCheckpoint,
                                 geo_.checkpoint_blocks);
  Status s = disk_->Write(region, geo_.checkpoint_blocks, buf.data());
  if (s.ok()) lfs_stats_.checkpoints++;
  LFSTX_GEN_CHECK(head,
                  "log head moved during a checkpoint — the flush lock's "
                  "exclusion was violated");
  return s;
}

// --------------------------------------------------------------- recovery --

Status Lfs::RecoverFromCheckpointAndRollForward() {
  // Recovery I/O bills to the checkpoint cause: it is the price of the
  // checkpoint interval chosen.
  ProfCauseScope prof_cause(env_->profiler(), IoCause::kCheckpoint);
  // Own the log from the first read of the log head to the final
  // checkpoint: a daemon that wakes mid-recovery blocks on the lock
  // instead of appending or cleaning where the scan has not reached.
  SimMutexGuard g(&flush_lock_);
  if (!g.locked()) return Status::Busy("stopped before recovery");
  flush_owner_ = SimEnv::Current();
  struct OwnerReset {  // clears flush_owner_ on every return path
    SimProc** owner;
    ~OwnerReset() { *owner = nullptr; }
  } owner_reset{&flush_owner_};
  recovery_stats_ = RecoveryStats();
  SimTime recover_start = env_->Now();

  // ---- 1. pick the newer valid checkpoint ----
  std::vector<char> buf(static_cast<size_t>(geo_.checkpoint_blocks) *
                        kBlockSize);
  CheckpointData best;
  bool have = false;
  bool best_is_a = true;
  for (bool is_a : {true, false}) {
    if (force_checkpoint_region_ == 0 && !is_a) continue;
    if (force_checkpoint_region_ == 1 && is_a) continue;
    LFSTX_RETURN_IF_ERROR(disk_->Read(is_a ? geo_.checkpoint_a
                                           : geo_.checkpoint_b,
                                      geo_.checkpoint_blocks, buf.data()));
    auto r = CheckpointData::Decode(buf.data(), geo_.checkpoint_blocks);
    if (r.ok() && (!have || r.value().seq > best.seq)) {
      best = r.take();
      have = true;
      best_is_a = is_a;
    }
  }
  force_checkpoint_region_ = -1;
  if (!have) {
    return Status::Corruption("no valid checkpoint (disk never formatted?)");
  }
  checkpoint_seq_ = best.seq;
  checkpoint_to_a_ = !best_is_a;  // write the next one to the other region
  recovery_stats_.checkpoint_seq = best.seq;

  // ---- 2. restore checkpointed state ----
  usage_.Deserialize(best.usage_bytes.data());
  imap_.block_addrs() = best.imap_addrs;
  char block[kBlockSize];
  for (uint32_t idx = 0; idx < imap_.nblocks(); idx++) {
    if (imap_.block_addrs()[idx] != 0) {
      LFSTX_RETURN_IF_ERROR(disk_->Read(imap_.block_addrs()[idx], 1, block));
      imap_.DecodeBlock(idx, block);
    }
  }
  imap_.ClearDirty();
  cur_seg_ = best.cur_segment;
  cur_off_ = best.cur_offset;
  cur_gen_ = best.cur_generation;
  next_seg_hint_ = best.next_segment == kNoSegment
                       ? -1
                       : static_cast<int64_t>(best.next_segment);
  log_head_gen_++;
  next_write_seq_ = best.next_write_seq;
  // The on-disk image we just restored *is* the state of the log head:
  // WriteCheckpointLocked at the end of recovery skips if nothing rolled
  // forward past it.
  last_cp_.head_seq = best.next_write_seq;
  last_cp_.head_addr = HeadAddr(cur_seg_, cur_off_, next_seg_hint_);
  last_cp_.redo_seq = best.redo_seq;
  last_cp_.redo_addr = best.redo_addr;
  last_cp_seg_ = best.cur_segment;
  last_cp_off_ = best.cur_offset;
  LFSTX_TRACE(env_->tracer(), TraceCat::kRecovery, "recovery_begin",
              {"checkpoint_seq", best.seq},
              {"region", best_is_a ? "A" : "B"}, {"seg", cur_seg_},
              {"off", cur_off_}, {"next_write_seq", next_write_seq_},
              {"redo_seq", best.redo_seq});

  // ---- 3. roll forward from the redo point ----
  SimTime scan_start = env_->Now();

  // A deferred file's redo record, as one flush's summaries recorded it:
  // the data blocks its chunks logged for the file, each with its chunk's
  // write_seq, and the file's size, which the flush's final chunk dates.
  struct RedoBlock {
    uint64_t seq;
    uint64_t lblock;
    BlockAddr addr;
  };
  struct Redo {
    uint64_t seq;
    uint64_t size;
    std::vector<RedoBlock> blocks;
  };
  // Blocks whose flush's final chunk the scan has not reached yet, per file.
  using OpenRedo = std::map<InodeNum, std::vector<RedoBlock>>;
  // Per file, the complete records in log order. An inode block for the
  // file written at seq s supersedes everything logged before s, complete
  // or not: it was written with the map those blocks redo.
  std::map<InodeNum, std::vector<Redo>> redo;
  // An fsync's blocks wait here for its final chunk; a torn fsync leaves
  // them, and they are dropped.
  OpenRedo fsync_redo;

  // Chunks of a transaction stage here until the chunk carrying its commit
  // marker: the raw images of the inode and inode-map blocks it logged,
  // which the marker applies in log order, and the blocks of the files it
  // deferred, which the marker completes like an fsync's final chunk.
  struct StagedBlock {
    BlockKind kind;
    BlockAddr addr;
    uint64_t lblock;
    uint64_t seq;
    std::vector<char> bytes;
  };
  struct Staged {
    std::vector<StagedBlock> blocks;
    OpenRedo redo;
  };
  std::map<TxnId, Staged> staged;

  // Moves the open blocks of each file chunk `s`'s redo table names into a
  // complete record dated by `s`.
  auto complete = [&](const Summary& s, OpenRedo* open) {
    for (const RedoRow& row : s.redo) {
      auto it = open->find(row.inum);
      std::vector<RedoBlock> blocks;
      if (it != open->end()) {
        blocks = std::move(it->second);
        open->erase(it);
      }
      redo[row.inum].push_back({s.write_seq, row.size, std::move(blocks)});
    }
  };

  auto charge = [&](uint64_t cost) {
    recovery_stats_.apply_items++;
    recovery_stats_.apply_us += cost;
    env_->Consume(cost);
  };
  // One inode slot's update, or one block a redo record maps.
  const uint64_t entry_cost =
      std::max<uint64_t>(1, env_->costs().segment_block_cpu_us /
                                kInodesPerBlock);
  // Applies one inode or inode-map block written by chunk `seq`, charging
  // its CPU per update.
  auto apply = [&](BlockKind kind, BlockAddr addr, uint64_t lblock,
                   const char* bytes, uint64_t seq) {
    if (kind == BlockKind::kInode) {
      for (uint32_t slot = 0; slot < kInodesPerBlock; slot++) {
        DiskInode d;
        DecodeInode(bytes, slot, &d);
        if (d.inum == kInvalidInode || d.file_type() == FileType::kFree) {
          continue;
        }
        imap_.Set(d.inum, addr, d.version);
        auto before = [seq](const auto& x) { return x.seq <= seq; };
        auto supersede = [&](OpenRedo* open) {
          auto o = open->find(d.inum);
          if (o != open->end()) std::erase_if(o->second, before);
        };
        auto r = redo.find(d.inum);
        if (r != redo.end()) {
          std::erase_if(r->second, before);
          for (Redo& x : r->second) std::erase_if(x.blocks, before);
        }
        supersede(&fsync_redo);
        for (auto& [id, t] : staged) supersede(&t.redo);
        charge(entry_cost);
      }
    } else {
      imap_.DecodeBlock(static_cast<uint32_t>(lblock), bytes);
      imap_.block_addrs()[lblock] = addr;
      charge(env_->costs().segment_block_cpu_us);
    }
  };
  auto is_meta = [](const SummaryEntry& e) {
    auto kind = static_cast<BlockKind>(e.kind);
    return kind == BlockKind::kInode || kind == BlockKind::kImap;
  };

  // Replays chunk `s` at `at`, the same way before the image's head and
  // after it. It holds the data entries of the files its redo table names,
  // applies its inode and inode-map blocks (`meta` holds the payload from
  // entry `first` on, which covers all of them) or stages them if the
  // chunk is tagged, and completes records: a commit marker applies its
  // transaction's staged blocks and completes its records, and an fsync's
  // final chunk completes its own.
  auto replay = [&](const Summary& s, BlockAddr at, uint32_t first,
                    const char* meta) {
    Staged* txn = s.txn != kNoTxn ? &staged[s.txn] : nullptr;
    OpenRedo* open = txn != nullptr ? &txn->redo : &fsync_redo;
    for (uint32_t i = 0; i < s.nblocks(); i++) {
      const SummaryEntry& e = s.entries[i];
      if (static_cast<BlockKind>(e.kind) == BlockKind::kData &&
          std::any_of(s.redo.begin(), s.redo.end(),
                      [&](const RedoRow& r) { return r.inum == e.inum; })) {
        (*open)[e.inum].push_back({s.write_seq, e.lblock, at + 1 + i});
      }
    }
    for (uint32_t i = first; i < s.nblocks(); i++) {
      const SummaryEntry& e = s.entries[i];
      if (!is_meta(e)) continue;
      auto kind = static_cast<BlockKind>(e.kind);
      const char* bytes = meta + static_cast<size_t>(i - first) * kBlockSize;
      if (txn != nullptr) {
        txn->blocks.push_back({kind, at + 1 + i, e.lblock, s.write_seq,
                               std::vector<char>(bytes, bytes + kBlockSize)});
      } else {
        apply(kind, at + 1 + i, e.lblock, bytes, s.write_seq);
      }
    }
    if (txn != nullptr && s.txn_commit) {
      for (const StagedBlock& u : txn->blocks) {
        apply(u.kind, u.addr, u.lblock, u.bytes.data(), u.seq);
      }
      complete(s, &txn->redo);
      staged.erase(s.txn);
    } else if (txn == nullptr && s.redo_final) {
      complete(s, &fsync_redo);
    }
  };

  Status scan_status = Status::OK();
  // A checkpoint taken when the last chunk filled its segment points at
  // the segment's end; the chain continues in the successor it recorded.
  // LFSTX_YIELD_OK(flush lock held: only this scan moves the log head)
  const BlockAddr head = last_cp_.head_addr;
  uint64_t expect_seq = best.redo_seq;
  BlockAddr next = expect_seq < best.next_write_seq ? best.redo_addr : head;
  // Segments holding a chunk the scan read: they stay dirty until the
  // checkpoint below is durable and no longer needs them.
  std::vector<bool> replayed(geo_.nsegments, false);
  std::vector<char> seg_buf(
      static_cast<size_t>(options_.segment_blocks) * kBlockSize);
  // The span: every chunk before the head was durable before the image
  // that names it, and no segment holding one was reused since (DESIGN.md
  // §14). So the image vouches for it: the scan reads each summary and the
  // inode and inode-map blocks the writer placed at the chunk's end, skips
  // the CRC, and treats a break in the chain as corruption, not the end of
  // the log.
  auto bad = [&] {
    return Status::Corruption("chunk " + std::to_string(expect_seq) +
                              " of the checkpoint's redo span is missing at "
                              "block " + std::to_string(next));
  };
  while (expect_seq < best.next_write_seq) {
    if (next < geo_.seg_start || next >= disk_->num_blocks()) return bad();
    LFSTX_RETURN_IF_ERROR(disk_->Read(next, 1, seg_buf.data()));
    auto sres = Summary::DecodeWithoutPayload(seg_buf.data());
    if (!sres.ok() || sres.value().write_seq != expect_seq ||
        SlotOf(next) + 1 + sres.value().nblocks() > options_.segment_blocks) {
      return bad();
    }
    const Summary& s = sres.value();
    uint32_t first = 0;
    while (first < s.nblocks() && !is_meta(s.entries[first])) first++;
    if (first < s.nblocks()) {
      LFSTX_RETURN_IF_ERROR(disk_->Read(next + 1 + first, s.nblocks() - first,
                                        seg_buf.data() + kBlockSize));
    }
    env_->Consume(env_->costs().segment_block_cpu_us *
                  (1 + s.nblocks() - first));
    recovery_stats_.redo_chunks++;
    replayed[SegOf(next)] = true;
    replay(s, next, first, seg_buf.data() + kBlockSize);
    expect_seq++;
    next = expect_seq == best.next_write_seq ? head : s.next_addr;
  }
  // The span's inode and inode-map blocks brought the map back to the
  // image's, whose blocks are on disk.
  imap_.ClearDirty();
  while (next != kInvalidBlock && next >= geo_.seg_start &&
         next < disk_->num_blocks()) {
    uint32_t seg = SegOf(next);
    uint32_t off = static_cast<uint32_t>(next - SegBase(seg));
    if (off + 1 >= options_.segment_blocks) break;
    scan_status = disk_->Read(next, 1, seg_buf.data());
    if (!scan_status.ok()) break;
    auto npeek = Summary::PeekNBlocks(seg_buf.data());
    if (!npeek.ok()) break;
    uint32_t n = npeek.value();
    if (off + 1 + n > options_.segment_blocks) break;
    scan_status = disk_->Read(next + 1, n, seg_buf.data() + kBlockSize);
    if (!scan_status.ok()) break;
    // Parsing a chunk costs what the cleaner charges for the same work.
    env_->Consume(env_->costs().segment_block_cpu_us * (1 + n));
    auto sres = Summary::Decode(seg_buf.data(), seg_buf.data() + kBlockSize,
                                n);
    if (!sres.ok()) {                            // torn write: end of log
      recovery_stats_.torn_chunks++;
      LFSTX_TRACE(env_->tracer(), TraceCat::kRecovery, "recovery_torn_chunk",
                  {"addr", next}, {"nblocks", n});
      break;
    }
    Summary s = sres.take();
    if (s.write_seq != expect_seq) {             // stale chunk: end of log
      recovery_stats_.stale_chunks++;
      LFSTX_TRACE(env_->tracer(), TraceCat::kRecovery, "recovery_stale_chunk",
                  {"addr", next}, {"found_seq", s.write_seq},
                  {"expect_seq", expect_seq});
      break;
    }
    LFSTX_TRACE(env_->tracer(), TraceCat::kRecovery, "recovery_chunk",
                {"addr", next}, {"nblocks", n}, {"write_seq", s.write_seq},
                {"txn", s.txn}, {"commit", s.txn_commit});
    recovery_stats_.payload_blocks += n;
    replayed[seg] = true;

    usage_.ReplayChunk(seg, off, n, s.generation, s.timestamp);
    replay(s, next, 0, seg_buf.data() + kBlockSize);
    expect_seq++;
    cur_seg_ = seg;
    cur_off_ = off + 1 + n;
    cur_gen_ = s.generation;
    log_head_gen_++;
    next = s.next_addr;
  }
  next_write_seq_ = expect_seq;
  recovery_stats_.chunks = expect_seq - best.next_write_seq;
  recovery_stats_.discarded_txns = staged.size();
  recovery_stats_.scan_us = env_->Now() - scan_start;
  LFSTX_RETURN_IF_ERROR(scan_status);

  // Chunks of transactions whose commit marker never made it to disk are
  // discarded: the transaction atomically never happened.
  LFSTX_TRACE(env_->tracer(), TraceCat::kRecovery, "recovery_end",
              {"chunks_applied", recovery_stats_.chunks},
              {"discarded_txns", static_cast<uint64_t>(staged.size())},
              {"seg", cur_seg_}, {"off", cur_off_});
  staged.clear();

  // ---- 3b. redo the deferred records no later inode block superseded ----
  // Each file's logged inode gets the records' block addresses and the
  // largest size, and stays deferred: its indirect blocks are dirty in the
  // cache. It counts as deferred since before any capture (redo_seq 0), so
  // the recovery checkpoint below, if the scan moved the head, logs it
  // whole with its inode and needs none of the span the scan read.
  // Sizes only grow between logged inodes (a truncate, or an aborted
  // append's rollback, logs its inode), but a record of a flush that
  // stalled for the cleaner may carry a size taken before the pass's drain
  // logged a larger one.
  for (const auto& [inum, records] : redo) {
    if (records.empty()) continue;
    auto ir = GetInode(inum);
    // Freed since: a logged inode-map block says so.
    if (ir.status().IsNotFound()) continue;
    LFSTX_RETURN_IF_ERROR(ir.status());
    Inode* ino = ir.value();
    for (const Redo& r : records) {
      for (const RedoBlock& b : r.blocks) {
        LFSTX_RETURN_IF_ERROR(SetBlockMapping(ino, b.lblock, b.addr).status());
        charge(entry_cost);
      }
      ino->d.size = std::max(ino->d.size, r.size);
    }
    ino->dirty = true;
    ino->deferred = true;
    ino->redo_seq = 0;
  }

  // ---- 4. exact usage + inode-block refcount rebuild ----
  LFSTX_RETURN_IF_ERROR(RebuildUsage(replayed));

  // ---- 5. persist the recovered state ----
  // Roll-forward learned inode locations the on-disk imap blocks do not
  // reflect yet; the checkpoint logs them before its capture. Until it is
  // durable, the segments the scan read stay dirty: a crash inside its
  // flush recovers from the same image, which needs them. Once a durable
  // image needs no redo span, the empty ones are clean. (A clean log skips
  // the checkpoint: the restored image still holds, and so does its span.)
  Status s = WriteCheckpointLocked();
  if (s.ok() && last_cp_.redo_seq == last_cp_.head_seq) {
    for (uint32_t seg = 0; seg < geo_.nsegments; seg++) {
      if (replayed[seg] && seg != cur_seg_ && usage_.live(seg) == 0 &&
          usage_.state(seg) == SegState::kDirty) {
        usage_.SetState(seg, SegState::kClean);
      }
    }
  }
  recovery_stats_.total_us = env_->Now() - recover_start;

  // Mirror into metrics so tests and benches can assert on recovery
  // behavior without reaching into the Lfs object.
  MetricsRegistry* m = env_->metrics();
  auto set = [&](const char* name, const char* unit, const char* help,
                 uint64_t v) { m->GetCounter(name, unit, help)->Set(v); };
  set("recovery.checkpoint_seq", "seq", "checkpoint recovery restored from",
      recovery_stats_.checkpoint_seq);
  set("recovery.chunks", "count", "chunks replayed off the summary chain",
      recovery_stats_.chunks);
  set("recovery.redo_chunks", "count",
      "chunks replayed from the redo point up to the checkpoint's head",
      recovery_stats_.redo_chunks);
  set("recovery.payload_blocks", "blocks", "payload blocks scanned",
      recovery_stats_.payload_blocks);
  set("recovery.apply_items", "count",
      "inode-map updates and redone block addresses applied",
      recovery_stats_.apply_items);
  set("recovery.discarded_txns", "count",
      "staged transactions with no commit marker",
      recovery_stats_.discarded_txns);
  set("recovery.torn_chunks", "count", "chunks rejected by CRC (torn write)",
      recovery_stats_.torn_chunks);
  set("recovery.stale_chunks", "count",
      "chunks rejected by write_seq (stale data)",
      recovery_stats_.stale_chunks);
  set("recovery.scan_us", "us", "virtual time walking the chain",
      recovery_stats_.scan_us);
  set("recovery.apply_us", "us", "virtual CPU applying those items",
      recovery_stats_.apply_us);
  set("recovery.total_us", "us", "virtual time for the whole recovery",
      recovery_stats_.total_us);
  return s;
}

uint64_t Lfs::WalkCaptureSpan(
    uint64_t end,
    const std::function<void(uint64_t, BlockAddr)>& chunk) const {
  const CaptureSpan& span = last_cp_;
  BlockAddr at =
      span.redo_seq < span.head_seq ? span.redo_addr : span.head_addr;
  char block[kBlockSize];
  for (uint64_t seq = span.redo_seq; seq < end; seq++) {
    if (at < geo_.seg_start || at >= disk_->num_blocks()) return seq;
    disk_->RawRead(at, 1, block);
    auto s = Summary::DecodeWithoutPayload(block);
    if (!s.ok() || s.value().write_seq != seq) return seq;
    chunk(seq, at);
    at = seq + 1 == span.head_seq ? span.head_addr : s.value().next_addr;
  }
  return end;
}

void Lfs::WalkBlockMaps(
    const std::function<void(InodeNum, BlockAddr, const DiskInode*)>& inode,
    const std::function<void(InodeNum, BlockKind, BlockAddr, uint64_t)>&
        block) {
  char iblock[kBlockSize];
  char leaf[kBlockSize];
  char root[kBlockSize];
  for (InodeNum inum = 1; inum <= kMaxInodes; inum++) {
    const ImapEntry& e = imap_.Get(inum);
    if (e.inode_addr == 0) continue;
    const Inode* in_core = FindInCore(inum);
    const bool deferred = in_core != nullptr && in_core->deferred;
    DiskInode d;
    bool found = false;
    if (deferred) {
      d = in_core->d;
      found = true;
    } else {
      disk_->RawRead(e.inode_addr, 1, iblock);
      for (uint32_t slot = 0; slot < kInodesPerBlock && !found; slot++) {
        DecodeInode(iblock, slot, &d);
        found = d.inum == inum && d.file_type() != FileType::kFree;
      }
    }
    inode(inum, e.inode_addr, found ? &d : nullptr);
    if (!found) continue;
    // An indirect block's entries: a deferred file's cached copy, else
    // the block at its home.
    auto read = [&](uint64_t meta_lblock, BlockAddr home, char* out) {
      if (deferred) {
        Buffer* b =
            cache_->Peek(BufferKey{Inode::MetaFileId(inum), meta_lblock});
        if (b != nullptr) {
          memcpy(out, b->data, kBlockSize);
          cache_->Release(b);
          return;
        }
      }
      disk_->RawRead(home, 1, out);
    };
    for (uint32_t i = 0; i < kNumDirect; i++) {
      if (d.direct[i] != 0) block(inum, BlockKind::kData, d.direct[i], i);
    }
    auto walk_leaf = [&](BlockAddr home, uint64_t meta_lblock,
                         uint64_t first_lb) {
      block(inum, BlockKind::kIndirect, home, meta_lblock);
      read(meta_lblock, home, leaf);
      for (uint32_t i = 0; i < kPtrsPerBlock; i++) {
        uint64_t a;
        memcpy(&a, leaf + i * 8, 8);
        if (a != 0) block(inum, BlockKind::kData, a, first_lb + i);
      }
    };
    if (d.indirect != 0) {
      walk_leaf(d.indirect, kMetaSingleIndirect, kNumDirect);
    }
    if (d.double_indirect != 0) {
      block(inum, BlockKind::kIndirect, d.double_indirect, kMetaDoubleRoot);
      read(kMetaDoubleRoot, d.double_indirect, root);
      for (uint32_t c = 0; c < kPtrsPerBlock; c++) {
        uint64_t a;
        memcpy(&a, root + c * 8, 8);
        if (a != 0) {
          walk_leaf(a, kMetaDoubleChildBase + c,
                    kNumDirect + kPtrsPerBlock +
                        static_cast<uint64_t>(c) * kPtrsPerBlock);
        }
      }
    }
  }
  for (uint32_t idx = 0; idx < imap_.nblocks(); idx++) {
    BlockAddr a = imap_.block_addrs()[idx];
    if (a != 0) block(kInvalidInode, BlockKind::kImap, a, idx);
  }
}

Status Lfs::RebuildUsage(const std::vector<bool>& keep_dirty) {
  usage_.ClearLive();
  inode_block_refs_.clear();

  // Owners are numbered as CheckLfs numbers them: data blocks by file
  // block, indirect blocks by meta-namespace block, inode blocks by the
  // first inode found in them, imap blocks by index.
  auto claim = [&](InodeNum inum, BlockKind kind, BlockAddr addr,
                   uint64_t lblock) {
    if (addr >= geo_.seg_start && addr < disk_->num_blocks()) {
      usage_.RestoreLive(SegOf(addr), SlotOf(addr),
                         SummaryEntry{static_cast<uint32_t>(kind), inum,
                                      lblock});
    }
  };
  WalkBlockMaps(
      [&](InodeNum inum, BlockAddr addr, const DiskInode*) {
        if (inode_block_refs_[addr]++ == 0) {
          claim(inum, BlockKind::kInode, addr, 0);
        }
      },
      claim);

  for (uint32_t seg = 0; seg < geo_.nsegments; seg++) {
    usage_.SetState(seg, seg == cur_seg_ ? SegState::kActive
                         : usage_.live(seg) > 0 || keep_dirty[seg]
                             ? SegState::kDirty
                             : SegState::kClean);
  }
  return Status::OK();
}

}  // namespace lfstx
