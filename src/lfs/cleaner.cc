#include "lfs/cleaner.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace lfstx {

Cleaner::Cleaner(SimEnv* env, Lfs* lfs, Options options)
    : env_(env),
      lfs_(lfs),
      options_(options),
      shared_(std::make_shared<Shared>(env)) {
  LFSTX_CHECK(options_.low_water > Lfs::kCleanerReserveSegments,
              "the cleaner's low watermark must exceed the writer's "
              "reserve");
  lfs_->AttachCleaner(this);
  // The daemon thread is owned by SimEnv and may be drained after this
  // Cleaner is destroyed; it only touches `this` while shared->alive.
  std::shared_ptr<Shared> shared = shared_;
  SimTime poll = options_.poll_interval;
  env_->Spawn(
      "cleaner",
      [this, env, shared, poll] {
        env->profiler()->SetCause(IoCause::kCleaner);
        while (!env->stop_requested() && shared->alive) {
          shared->wakeup.SleepFor(poll);
          if (env->stop_requested() || !shared->alive) break;
          Loop();
        }
      },
      /*daemon=*/true);

  MetricsRegistry* m = env_->metrics();
  m->AddGauge(this, "cleaner.segments_cleaned", "count",
              "victim segments reclaimed",
              [this] { return static_cast<double>(stats_.segments_cleaned); });
  m->AddGauge(this, "cleaner.live_blocks_copied", "blocks",
              "live blocks copied forward",
              [this] { return static_cast<double>(stats_.live_blocks_copied); });
  m->AddGauge(this, "cleaner.dead_blocks_dropped", "blocks",
              "dead blocks discarded",
              [this] { return static_cast<double>(stats_.dead_blocks_dropped); });
  m->AddGauge(this, "cleaner.rounds", "count", "watermark-triggered rounds",
              [this] { return static_cast<double>(stats_.rounds); });
  m->AddGauge(this, "cleaner.read_requests", "count",
              "victim reads, one per contiguous run of live uncached blocks",
              [this] { return static_cast<double>(stats_.read_requests); });
  m->AddGauge(this, "cleaner.blocks_read", "blocks",
              "live blocks read back from victims",
              [this] { return static_cast<double>(stats_.blocks_read); });
  // Histogram, not a bare counter: a tail cleaning stall (one CleanOne
  // that owned the log for tens of milliseconds) is invisible in a total.
  busy_hist_ = m->GetHistogram("cleaner.busy_us", "us",
                               "per-CleanOne pass duration");
  victim_util_hist_ =
      m->GetHistogram("cleaner.victim_util_pct", "pct",
                      "victim segment live-block utilization at clean time");
}

Cleaner::~Cleaner() {
  LFSTX_CHECK(passes_.idle(), "Cleaner destroyed with a pass in flight");
  env_->metrics()->DropOwner(this);
  shared_->alive = false;
  if (lfs_ != nullptr) lfs_->AttachCleaner(nullptr);
}

void Cleaner::Stop() {
  shared_->alive = false;
  while (busy()) env_->SleepFor(kMillisecond);
  lfs_->AttachCleaner(nullptr);
  lfs_->clean_wait_.WakeAll();
}

void Cleaner::Loop() {
  // Passes allowed past the engagement's best clean-segment count before
  // it yields. High enough to span the ~seg_blocks/net-yield passes one
  // net segment takes at high utilization; low enough that an equilibrium
  // grind gives the log back to its writers every poll interval.
  constexpr uint32_t kMaxStagnantPasses = 32;
  if (lfs_->clean_segments() >= options_.low_water) return;
  stats_.rounds++;
  // Forward progress is judged over a window of passes, not one pass: at
  // high victim utilization a pass frees its victim (+1) but also
  // activates a fresh segment for the copy-forward (-1) — net zero — yet
  // it squeezed the victim's dead blocks out of the log, and a *run* of
  // such passes does gain ground. A per-pass segment check reads that
  // compaction as "no progress" and strands the log at the reserve floor.
  // The window also bounds each engagement: near the churn/yield
  // equilibrium a single call could otherwise grind forever chasing the
  // high watermark while the writers it blocks re-dirty everything it
  // cleans. An engagement that breaks early is retried by the next poll
  // or poke, so bounding it never strands the log.
  uint32_t best = lfs_->clean_segments();
  uint32_t stagnant = 0;
  while (lfs_->clean_segments() < options_.high_water &&
         !env_->stop_requested() && shared_->alive) {
    Status s = CleanOne();
    if (!s.ok()) break;  // nothing cleanable right now
    if (lfs_->clean_segments() > best) {
      best = lfs_->clean_segments();
      stagnant = 0;
    } else if (++stagnant >= kMaxStagnantPasses) {
      break;
    }
  }
  lfs_->clean_wait_.WakeAll();
}

void Cleaner::LockFiles(const std::vector<InodeNum>& inums,
                        std::vector<Inode*>* locked) {
  for (InodeNum inum : inums) {
    auto r = lfs_->GetInode(inum);
    if (!r.ok()) continue;  // deleted since the block was written
    Inode* ino = r.value();
    if (!ino->being_cleaned) {
      ino->being_cleaned = true;
      locked->push_back(ino);
    }
  }
}

void Cleaner::UnlockFiles(const std::vector<Inode*>& locked) {
  for (Inode* ino : locked) {
    ino->being_cleaned = false;
    if (ino->clean_wait != nullptr) ino->clean_wait->WakeAll();
  }
}

namespace {

constexpr uint32_t kNotFetched = ~0u;

bool IsFileBlock(const SummaryEntry& o) {
  return o.kind == static_cast<uint32_t>(BlockKind::kData) ||
         o.kind == static_cast<uint32_t>(BlockKind::kIndirect);
}

/// Cache key of a data or indirect block, from its owner alone.
BufferKey CacheKey(const SummaryEntry& o) {
  return BufferKey{o.kind == static_cast<uint32_t>(BlockKind::kData)
                       ? Inode::DataFileId(o.inum)
                       : Inode::MetaFileId(o.inum),
                   o.lblock};
}

}  // namespace

Status Cleaner::CleanOne() {
  InFlight::Scope pass(&passes_);
  SimTime t0 = env_->Now();
  bool locked_log = false;
  std::vector<Inode*> locked;

  auto lock_log = [&]() -> bool {
    // Lock and unlock live in sibling lambdas (lock_log / finish), not one
    // lexical scope: the user-space cleaner reads the victim before this
    // runs and finish() must release whatever was taken, guard or not.
    if (!lfs_->flush_lock_.Lock()) return false;  // lint-allow: released by finish()
    lfs_->flush_owner_ = SimEnv::Current();
    lfs_->cleaning_in_progress_ = true;
    // The cleaner owns the log for the rest of the pass; a cache miss
    // during its copy-forward phase must not recurse into a flush.
    lfs_->cache()->PushNoDirtyEviction();
    locked_log = true;
    return true;
  };

  auto finish = [&](Status s) {
    UnlockFiles(locked);
    if (locked_log) {
      lfs_->cache()->PopNoDirtyEviction();
      lfs_->cleaning_in_progress_ = false;
      lfs_->cleaner_copying_ = false;
      lfs_->flush_owner_ = nullptr;
      lfs_->flush_lock_.Unlock();  // lint-allow: taken by lock_log()
      lfs_->clean_wait_.WakeAll();
    }
    SimTime busy = env_->Now() - t0;
    stats_.busy_us += busy;
    busy_hist_->Add(busy);
    return s;
  };

  // The kernel-mode cleaner owns the log for the whole pass, reads
  // included (the behavior behind the TPC-B throughput dips, section 5.1).
  // The user-space cleaner reads with no locks held — regular transactions
  // keep running and contend only for the disk arm (section 5.4) — then
  // takes the log lock for the copy-forward "system call".
  if (options_.mode == Mode::kKernel && !lock_log()) {
    return Status::Busy("stopped");
  }

  auto victim_r = lfs_->usage_.PickVictim();
  if (!victim_r.ok()) return finish(victim_r.status());
  uint32_t victim = victim_r.value();
  // LFSTX_YIELD_OK(revalidated against usage_ after the log lock is reacquired below)
  uint32_t gen = lfs_->usage_.generation(victim);
  {
    // Utilization at clean: the input to Rosenblum's 2/(1-u) write cost
    // (surfaced as the wa.write_cost gauge).
    uint64_t util_pct = 100ull * lfs_->usage_.live(victim) /
                        std::max<uint32_t>(1, lfs_->segment_blocks());
    victim_util_hist_->Add(util_pct);
    LFSTX_TRACE(env_->tracer(), TraceCat::kLogEcon, "victim",
                {"seg", victim}, {"util_pct", util_pct},
                {"live", lfs_->usage_.live(victim)}, {"gen", gen});
  }
  BlockAddr base = lfs_->SegBase(victim);
  uint32_t seg_blocks = lfs_->segment_blocks();

  LFSTX_TRACE(env_->tracer(), TraceCat::kCleaner, "clean_begin",
              {"victim", victim}, {"live", lfs_->usage_.live(victim)},
              {"gen", gen}, {"clean_left", lfs_->clean_segments()});

  // Inodes whose current copy lies in the victim, found through the inode
  // map. The victim takes no new writes, so this only shrinks.
  std::vector<std::pair<BlockAddr, InodeNum>> inodes;
  const InodeMap& imap = lfs_->imap_;
  for (InodeNum inum = 1; inum <= imap.max_inodes(); inum++) {
    BlockAddr a = imap.Get(inum).inode_addr;
    if (a >= base && a < base + seg_blocks) inodes.emplace_back(a, inum);
  }

  // Victim blocks read back, packed; fetched_at[slot] indexes them.
  std::vector<char> fetched;
  std::vector<uint32_t> fetched_at(seg_blocks, kNotFetched);
  // Read `slots` (ascending), one request per address-contiguous run.
  auto fetch = [&](const std::vector<uint32_t>& slots) -> Status {
    size_t i = 0;
    while (i < slots.size()) {
      size_t j = i + 1;
      while (j < slots.size() && slots[j] == slots[j - 1] + 1) j++;
      uint32_t n = static_cast<uint32_t>(j - i);
      uint32_t first = static_cast<uint32_t>(fetched.size() / kBlockSize);
      fetched.resize(fetched.size() + static_cast<size_t>(n) * kBlockSize);
      LFSTX_RETURN_IF_ERROR(lfs_->disk()->Read(
          base + slots[i], n,
          fetched.data() + static_cast<size_t>(first) * kBlockSize));
      for (uint32_t k = 0; k < n; k++) fetched_at[slots[i] + k] = first + k;
      stats_.read_requests++;
      stats_.blocks_read += n;
      i = j;
    }
    return Status::OK();
  };
  // The live data and indirect blocks neither cached nor fetched yet.
  auto uncached = [&] {
    std::vector<uint32_t> slots;
    for (uint32_t slot = 0; slot < seg_blocks; slot++) {
      const SummaryEntry& o = lfs_->usage_.owner(victim, slot);
      if (IsFileBlock(o) && fetched_at[slot] == kNotFetched &&
          !lfs_->cache()->Resident(CacheKey(o))) {
        slots.push_back(slot);
      }
    }
    return slots;
  };

  if (!locked_log) {
    if (Status s = fetch(uncached()); !s.ok()) return finish(s);
    if (!lock_log()) return finish(Status::Busy("stopped"));
    // The log moved on during the reads. A dirty segment cannot be
    // reactivated, so the fetched bytes are still this incarnation's;
    // revalidate anyway and drop the pass if the segment changed state
    // under us (the per-block liveness checks below handle blocks that
    // merely died in the meantime).
    if (lfs_->usage_.state(victim) != SegState::kDirty ||
        lfs_->usage_.generation(victim) != gen) {
      return finish(Status::OK());
    }
  }

  // A flush that fails below (the log ran out, or the simulation stopped
  // during a write) ends the pass with its victim dirty: the inodes that
  // map the relocated blocks may not be on disk, so the victim's copies
  // are still the durable ones, and a later pass cleans it.

  // Drain the writers' backlog before copying anything forward: the
  // flushes below write every dirty block in the cache, so a stalled
  // writer's pending batch would otherwise ride along with the pass and
  // push its log consumption past the reserve mid-copy. Flushing it first
  // charges that space while there is still room, leaving the pass itself
  // bounded by the victim's live blocks plus metadata. The drain writes
  // the writers' blocks, so log economics charges them to their kinds;
  // only what the pass's later flushes write counts as the cleaner's,
  // including any block a writer dirties after the drain.
  if (lfs_->cache()->dirty_count() > 0) {
    if (Status s = lfs_->FlushLocked(kNoTxn); !s.ok()) return finish(s);
  }
  lfs_->cleaner_copying_ = true;
  // Read what is still missing: every live block in kernel mode, and in
  // user-space mode whatever the cache evicted since the unlocked reads.
  if (Status s = fetch(uncached()); !s.ok()) return finish(s);
  if (options_.mode == Mode::kKernel) {
    // The kernel-mode cleaner locks the files that own the victim's live
    // blocks and inodes before it touches any of them in the cache (the
    // behavior behind the TPC-B throughput dips, section 5.1). Not
    // before: the drain and the reads above are where the accesses the
    // previous pass locked out get to run. A pass that locked first would
    // re-lock them at once, and a writer stalled at the reserve would
    // never kill a block while passes that net no segment went on.
    std::vector<InodeNum> owners;
    for (uint32_t slot = 0; slot < seg_blocks; slot++) {
      const SummaryEntry& o = lfs_->usage_.owner(victim, slot);
      if (IsFileBlock(o)) owners.push_back(o.inum);
    }
    for (const auto& entry : inodes) owners.push_back(entry.second);
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    LockFiles(owners, &locked);
  }

  // Liveness check + copy-forward: mark every live block dirty in the
  // cache (or the in-core inode / inode map) so the next flush rewrites
  // it. The slots are snapshotted first: the copy loop's own flushes
  // empty them as they relocate blocks.
  std::vector<std::pair<uint32_t, SummaryEntry>> live;
  for (uint32_t slot = 0; slot < seg_blocks; slot++) {
    const SummaryEntry& o = lfs_->usage_.owner(victim, slot);
    if (o.kind != 0) live.emplace_back(slot, o);
  }
  uint64_t live_copied = 0;
  for (const auto& [slot, o] : live) {
    BlockAddr addr = base + slot;
    BlockKind kind = static_cast<BlockKind>(o.kind);
    bool copied = false;
    if (IsFileBlock(o)) {
      // A block is live while its owner still maps it here. One that was
      // evicted since the reads is fetched now, then checked again, since
      // the read yields. A file whose blocks a truncate or remove is
      // releasing is left alone: its blocks are dying, and the victim
      // waits for a later pass.
      for (;;) {
        auto ir = lfs_->GetInode(o.inum);
        if (!ir.ok() || ir.value()->freeing) break;
        auto mr = kind == BlockKind::kData
                      ? lfs_->MapBlock(ir.value(), o.lblock)
                      : lfs_->GetMetaBlockHome(ir.value(), o.lblock);
        if (!mr.ok() || mr.value() != addr) break;
        Buffer* buf = lfs_->cache()->Peek(CacheKey(o));
        if (buf == nullptr) {
          if (fetched_at[slot] == kNotFetched) {
            if (Status s = fetch({slot}); !s.ok()) return finish(s);
            continue;
          }
          // A miss installs the fetched copy; a frame another process is
          // loading (or has dirtied since) is already at least as new.
          const char* src =
              fetched.data() + static_cast<size_t>(fetched_at[slot]) *
                                   kBlockSize;
          auto br = lfs_->cache()->Get(CacheKey(o), [&](char* dst) {
            memcpy(dst, src, kBlockSize);
            env_->Consume(env_->costs().segment_block_cpu_us);
            return Status::OK();
          });
          if (!br.ok()) return finish(br.status());
          buf = br.value();
        }
        // Cached: if clean, its contents equal this log copy; if dirty, a
        // newer version will be flushed anyway. Either way just make sure
        // it gets rewritten.
        lfs_->cache()->MarkDirty(buf);
        lfs_->cache()->Release(buf);
        copied = true;
        break;
      }
    } else if (kind == BlockKind::kInode) {
      for (const auto& [at, inum] : inodes) {
        if (at != addr || lfs_->imap_.Get(inum).inode_addr != addr) continue;
        auto ir = lfs_->GetInode(inum);
        if (!ir.ok()) continue;
        copied = true;
        if (Status s = lfs_->NoteInodeDirty(ir.value()); !s.ok()) {
          return finish(s);
        }
      }
    } else if (kind == BlockKind::kImap) {
      uint32_t idx = static_cast<uint32_t>(o.lblock);
      if (idx < lfs_->imap_.nblocks() &&
          lfs_->imap_.block_addrs()[idx] == addr) {
        copied = true;
        lfs_->imap_.MarkBlockDirty(idx);
      }
    }
    if (copied) live_copied++;
    // Keep the copy-forward working set bounded: flush part-way if the
    // cache is filling with copied blocks.
    if (lfs_->cache()->dirty_count() * 2 >= lfs_->cache()->capacity()) {
      if (Status s = lfs_->FlushLocked(kNoTxn); !s.ok()) return finish(s);
    }
  }
  stats_.live_blocks_copied += live_copied;

  // Rewrite the live data elsewhere, reclaim the victim, and checkpoint so
  // the crash-recovery window never references the reclaimed segment.
  if (Status s = lfs_->FlushLocked(kNoTxn); !s.ok()) return finish(s);
  if (options_.mode == Mode::kUserSpace) {
    // Section 5.4: a user-space cleaner revalidates its copied blocks
    // against recently-modified blocks inside one system call.
    env_->Syscall(live_copied * 5);
  }
  // A reclaimed victim drops every payload block of its incarnation that
  // the pass did not copy. One left dirty (a file being freed still owns
  // some of its blocks) drops nothing yet.
  uint64_t dead = 0;
  if (lfs_->usage_.state(victim) == SegState::kDirty &&
      lfs_->usage_.live(victim) == 0) {
    uint32_t written = lfs_->usage_.written(victim);
    LFSTX_CHECK(live_copied <= written,
                "the cleaner copied more blocks than the victim was written");
    dead = written - live_copied;
    lfs_->usage_.MarkClean(victim);
    stats_.segments_cleaned++;
  }
  stats_.dead_blocks_dropped += dead;
  if (Status s = lfs_->WriteCheckpointLocked(); !s.ok()) return finish(s);
  LFSTX_TRACE(env_->tracer(), TraceCat::kCleaner, "clean_end",
              {"victim", victim}, {"live_copied", live_copied},
              {"dead", dead}, {"clean_left", lfs_->clean_segments()});
  return finish(Status::OK());
}

Status Cleaner::CoalesceFile(InodeNum inum) {
  InFlight::Scope pass(&passes_);
  auto ir = lfs_->GetInode(inum);
  if (!ir.ok()) return ir.status();
  Inode* ino = ir.value();
  uint64_t nblocks = ino->d.size_blocks();
  LFSTX_TRACE(env_->tracer(), TraceCat::kCleaner, "coalesce_begin",
              {"inum", inum}, {"nblocks", nblocks});
  // One window per segment: every mapped block in the window is pulled
  // into the cache, dirtied, and flushed, so the segment writer lays the
  // window down contiguously (and in logical order, since it sorts dirty
  // data by (file, block)).
  uint64_t window = lfs_->segment_blocks() - 8;  // room for meta blocks
  for (uint64_t start = 0; start < nblocks; start += window) {
    uint64_t end = std::min(nblocks, start + window);
    for (uint64_t lb = start; lb < end; lb++) {
      LFSTX_ASSIGN_OR_RETURN(BlockAddr addr, lfs_->MapBlock(ino, lb));
      if (addr == kInvalidBlock) continue;  // sparse
      Buffer* buf = lfs_->cache()->Peek(BufferKey{ino->data_file_id(), lb});
      if (buf == nullptr) {
        SimDisk* disk = lfs_->disk();
        auto br = lfs_->cache()->Get(
            BufferKey{ino->data_file_id(), lb},
            [disk, addr](char* dst) { return disk->Read(addr, 1, dst); });
        LFSTX_RETURN_IF_ERROR(br.status());
        buf = br.value();
      }
      lfs_->cache()->MarkDirty(buf);
      lfs_->cache()->Release(buf);
    }
    LFSTX_RETURN_IF_ERROR(lfs_->Flush(kNoTxn));
  }
  LFSTX_TRACE(env_->tracer(), TraceCat::kCleaner, "coalesce_end",
              {"inum", inum}, {"nblocks", nblocks});
  return lfs_->Checkpoint();
}

}  // namespace lfstx
