// Invariant-checker framework tests: a healthy machine sweeps clean on
// every checker, and each checker detects the corruption it exists for —
// a bitmap/reachability mismatch (ffs), an orphan inode, an owner-table
// slot that disagrees with the block maps and a clean segment or broken
// chain in the redo span (lfs), a leaked pin and a clean
// buffer that differs from its disk copy (cache), a leaked lock (locks), a
// flipped byte in the durable WAL region (log), and a transaction still
// live at a quiescent point (txn).
// The LFS walker's other detection tests live in fsck_test.cc.
#include <gtest/gtest.h>

#include <cstring>

#include "check/registry.h"
#include "ffs/ffs.h"
#include "fs/directory.h"
#include "lfs/lfs.h"
#include "libtp/log_manager.h"
#include "machines.h"
#include "txn/lock_manager.h"

namespace lfstx {
namespace {

const CheckReport& ReportOf(const CheckSummary& summary, const char* name) {
  for (const auto& r : summary.reports) {
    if (r.checker == name) return r;
  }
  static const CheckReport kMissing;
  ADD_FAILURE() << "no report from checker '" << name << "'";
  return kMissing;
}

TEST(CheckRegistryTest, FreshRigSweepsCleanOnEveryChecker) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    CheckSummary summary = RunAllChecks(*rig);
    EXPECT_TRUE(summary.clean()) << summary.ToString();
    EXPECT_EQ(summary.reports.size(), CheckRegistry::Default().size());
    // The LFS walker ran (it saw the root directory); the FFS one skipped.
    EXPECT_EQ(ReportOf(summary, "lfs").CounterOr("directories"), 1u);
    EXPECT_EQ(ReportOf(summary, "ffs").CounterOr("skipped"), 1u);
    // The LIBTP side is present, so locks/log/txn all really ran.
    EXPECT_EQ(ReportOf(summary, "locks").CounterOr("skipped", 0), 0u);
    EXPECT_EQ(ReportOf(summary, "log").CounterOr("skipped", 0), 0u);
    EXPECT_EQ(ReportOf(summary, "txn").CounterOr("skipped", 0), 0u);
  });
}

TEST(CheckRegistryTest, SweepEmitsMetricsAndTraceEvents) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    std::string captured;
    rig->env()->tracer()->Enable(TraceCat::kCheck);
    rig->env()->tracer()->SetCapture(&captured);
    CheckSummary summary = RunAllChecks(*rig);
    rig->env()->tracer()->SetCapture(nullptr);
    EXPECT_TRUE(summary.clean());
    EXPECT_NE(captured.find("\"check_run\""), std::string::npos);
    EXPECT_NE(captured.find("\"checker\":\"lfs\""), std::string::npos);
    auto* runs = rig->env()->metrics()->GetCounter("check.runs", "runs", "");
    EXPECT_EQ(runs->value(), CheckRegistry::Default().size());
  });
}

TEST(CheckFfsTest, DetectsInodeReferencingFreeBlock) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  uint64_t victim_block = 0;
  uint64_t itable_start = 0;
  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 1024);
      Ffs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = fs.Create("/a").value();
      ASSERT_TRUE(fs.Write(ino, 0, Slice("hello")).ok());
      ASSERT_TRUE(fs.Close(ino).ok());
      // The tail of the data region is certainly still free.
      victim_block = fs.total_blocks() - 1;
      ASSERT_FALSE(fs.bitmap().IsUsed(victim_block));
      itable_start =
          fs.data_start() -
          (fs.max_inodes() + kInodesPerBlock - 1) / kInodesPerBlock;
      ASSERT_TRUE(fs.Unmount().ok());
    }
    // Craft an inode that maps a block the bitmap says is free, in a slot
    // the directory tree never references.
    const InodeNum forged = 50;
    DiskInode d;
    d.inum = forged;
    d.type = static_cast<uint16_t>(FileType::kRegular);
    d.nlink = 1;
    d.size = kBlockSize;
    d.direct[0] = victim_block;
    char block[kBlockSize];
    BlockAddr tblock = itable_start + (forged - 1) / kInodesPerBlock;
    disk.RawRead(tblock, 1, block);
    EncodeInode(d, block, (forged - 1) % kInodesPerBlock);
    disk.RawWrite(tblock, 1, block);

    BufferCache cache(&env, 1024);
    Ffs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    CheckContext ctx;
    ctx.env = &env;
    ctx.ffs = &fs;
    auto report = CheckFfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean);
    bool found = false;
    for (const auto& p : report.value().problems) {
      if (p.find("bitmap says") != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << report.value().ToString();
  });
  env.Run();
}

TEST(CheckLfsTest, DetectsOrphanInode) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  BufferCache cache(&env, 1024);
  Lfs fs(&env, &disk, &cache);
  cache.set_writeback(&fs);
  env.Spawn("main", [&] {
    ASSERT_TRUE(fs.Format().ok());
    InodeNum ino = fs.Create("/lost").value();
    ASSERT_TRUE(fs.Close(ino).ok());
    ASSERT_TRUE(fs.SyncAll().ok());
    CheckContext ctx;
    ctx.env = &env;
    ctx.lfs = &fs;
    auto report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();

    // Erase the name on disk but leave the inode mapped: what a free that
    // never reached the log leaves behind.
    Inode* root = fs.GetInode(kRootInode).value();
    BlockAddr dir_block = fs.MapBlock(root, 0).value();
    char block[kBlockSize];
    disk.RawRead(dir_block, 1, block);
    int slot = FindDirEntry(block, "lost");
    ASSERT_GE(slot, 0);
    EncodeDirEntry(block, static_cast<uint32_t>(slot), kInvalidInode, "");
    disk.RawWrite(dir_block, 1, block);

    report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean) << "orphan inode not detected";
    bool named = false;
    for (const auto& p : report.value().problems) {
      if (p.find("orphan") != std::string::npos) named = true;
    }
    EXPECT_TRUE(named) << report.value().ToString();
  });
  env.Run();
}

TEST(CheckLfsTest, DetectsOwnerTableMismatch) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  BufferCache cache(&env, 1024);
  Lfs fs(&env, &disk, &cache);
  cache.set_writeback(&fs);
  env.Spawn("main", [&] {
    ASSERT_TRUE(fs.Format().ok());
    InodeNum ino = fs.Create("/moved").value();
    ASSERT_TRUE(fs.Write(ino, 0, Slice("payload")).ok());
    ASSERT_TRUE(fs.Close(ino).ok());
    ASSERT_TRUE(fs.SyncAll().ok());
    CheckContext ctx;
    ctx.env = &env;
    ctx.lfs = &fs;
    auto report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();

    // Point the on-disk inode's block 0 at slot 0 of segment 0, Format's
    // first summary block: the segment's live count is unchanged, so only
    // the slot-by-slot owner comparison can see it.
    BlockAddr inode_addr = fs.imap().Get(ino).inode_addr;
    char block[kBlockSize];
    disk.RawRead(inode_addr, 1, block);
    bool patched = false;
    for (uint32_t slot = 0; slot < kInodesPerBlock; slot++) {
      DiskInode d;
      DecodeInode(block, slot, &d);
      if (d.inum != ino) continue;
      ASSERT_NE(d.direct[0], fs.seg_start());
      d.direct[0] = fs.seg_start();
      EncodeInode(d, block, slot);
      patched = true;
    }
    ASSERT_TRUE(patched);
    disk.RawWrite(inode_addr, 1, block);

    report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean) << "owner mismatch not detected";
    // Both directions: the slot the block map now names holds nothing in
    // the table, and the slot the table names is no longer claimed.
    std::string moved = "block 0 of #" + std::to_string(ino);
    int both_ways = 0;
    for (const auto& p : report.value().problems) {
      if (p == "segment 0 slot 0: usage table owner none, recount owner " +
                   moved ||
          (p.find("usage table owner " + moved + ", recount owner none") !=
           std::string::npos)) {
        both_ways++;
      }
    }
    EXPECT_EQ(both_ways, 2) << report.value().ToString();
  });
  env.Run();
}

TEST(CheckLfsTest, DetectsACleanSegmentInTheRedoSpan) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  BufferCache cache(&env, 1024);
  Lfs fs(&env, &disk, &cache);
  cache.set_writeback(&fs);
  env.Spawn("main", [&] {
    ASSERT_TRUE(fs.Format().ok());
    InodeNum a = fs.Create("/a").value();
    ASSERT_TRUE(fs.Write(a, 0, std::string(20 * kBlockSize, 'a')).ok());
    ASSERT_TRUE(fs.SyncFile(a).ok());
    ASSERT_TRUE(fs.Checkpoint().ok());
    // A deferred fsync, then enough of /b to retire its segment: the next
    // checkpoint leaves /a deferred, so its redo span starts there.
    ASSERT_TRUE(fs.Write(a, 3 * kBlockSize, std::string(kBlockSize, 'A')).ok());
    ASSERT_TRUE(fs.SyncFile(a).ok());
    InodeNum b = fs.Create("/b").value();
    ASSERT_TRUE(fs.Write(b, 0, std::string(200 * kBlockSize, 'b')).ok());
    ASSERT_TRUE(fs.SyncFile(b).ok());
    ASSERT_TRUE(fs.Checkpoint().ok());
    const Lfs::CaptureSpan span = fs.last_capture();
    ASSERT_LT(span.redo_seq, span.head_seq);
    const auto seg = static_cast<uint32_t>((span.redo_addr - fs.seg_start()) /
                                           fs.segment_blocks());
    ASSERT_EQ(fs.usage().state(seg), SegState::kDirty);
    CheckContext ctx;
    ctx.env = &env;
    ctx.lfs = &fs;
    auto report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();

    // A segment the writer may reuse while a recovery still reads it.
    fs.SetSegmentStateForTest(seg, SegState::kClean);
    report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    const std::string want = "segment " + std::to_string(seg) +
                             " is clean but holds chunk " +
                             std::to_string(span.redo_seq);
    bool named = false;
    for (const auto& p : report.value().problems) {
      if (p.find(want) != std::string::npos) named = true;
    }
    EXPECT_TRUE(named) << report.value().ToString();
    fs.SetSegmentStateForTest(seg, SegState::kDirty);

    // A span chunk overwritten under the image: the chain breaks there.
    char zero[kBlockSize] = {};
    disk.RawWrite(span.redo_addr, 1, zero);
    report = CheckLfsStructure(ctx);
    ASSERT_TRUE(report.ok());
    named = false;
    for (const auto& p : report.value().problems) {
      if (p.find("chunk " + std::to_string(span.redo_seq) +
                 ", which a recovery") != std::string::npos) {
        named = true;
      }
    }
    EXPECT_TRUE(named) << report.value().ToString();
  });
  env.Run();
}

TEST(CheckCacheTest, DetectsLeakedPinAtQuiescePoint) {
  SimEnv env;
  env.Spawn("main", [&] {
    BufferCache cache(&env, 64);
    auto buf = cache.GetNoLoad(BufferKey{1, 0});
    ASSERT_TRUE(buf.ok());
    CheckContext ctx;
    ctx.cache = &cache;
    auto report = CheckBufferCache(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean) << "pin leak not detected";

    cache.Release(buf.value());
    report = CheckBufferCache(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(CheckCacheTest, DetectsACleanBufferThatDiffersFromItsDiskCopy) {
  // A lost update looks like this: the frame reads clean, but the disk
  // holds other bytes, so an eviction would silently drop the change.
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    FileSystem* fs = rig->machine->fs.get();
    InodeNum ino = fs->Create("/f").value();
    ASSERT_TRUE(fs->Write(ino, 0, Slice("on disk")).ok());
    ASSERT_TRUE(fs->SyncAll().ok());
    CheckContext ctx = MakeCheckContext(*rig);
    auto report = CheckBufferCache(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
    EXPECT_GT(report.value().CounterOr("clean_compared"), 0u);

    BufferCache* cache = rig->machine->cache.get();
    Buffer* b = cache->Peek(BufferKey{Inode::DataFileId(ino), 0});
    ASSERT_NE(b, nullptr);
    ASSERT_FALSE(b->dirty);
    b->data[0] = 'X';  // changed without MarkDirty
    cache->Release(b);
    report = CheckBufferCache(ctx);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.value().problems.size(), 1u)
        << report.value().ToString();
    EXPECT_EQ(report.value().problems[0].rfind(
                  "clean buffer (file " + std::to_string(ino) +
                      ", block 0) differs from its disk copy",
                  0),
              0u)
        << report.value().problems[0];
  });
}

TEST(CheckLocksTest, DetectsLeakedLockAfterQuiesce) {
  SimEnv env;
  env.Spawn("main", [&] {
    LockManager lm(&env);
    ASSERT_TRUE(lm.Lock(7, LockId{1, 42}, LockMode::kExclusive).ok());
    CheckContext ctx;
    ctx.user_locks = &lm;
    auto report = CheckLocks(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean) << "leaked lock not detected";

    lm.UnlockAll(7);
    report = CheckLocks(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(CheckLogTest, DetectsCorruptionInDurableRegion) {
  Machine::Options options;
  auto m = Machine::Build(options);
  m->env->Spawn("main", [&] {
    ASSERT_TRUE(m->Boot(options).ok());
    LogManager log(m->kernel.get());
    ASSERT_TRUE(log.Open("/wal").ok());
    LogRecord rec;
    rec.type = LogRecType::kUpdate;
    rec.txn = 1;
    rec.file_ref = 1;
    rec.page = 0;
    rec.offset = 0;
    rec.before = "aaaa";
    rec.after = "bbbb";
    auto lsn1 = log.Append(rec);
    ASSERT_TRUE(lsn1.ok());
    LogRecord commit;
    commit.type = LogRecType::kCommit;
    commit.txn = 1;
    commit.prev_lsn = lsn1.value();
    auto lsn2 = log.Append(commit);
    ASSERT_TRUE(lsn2.ok());
    ASSERT_TRUE(log.FlushTo(lsn2.value()).ok());

    CheckContext ctx;
    ctx.env = m->env.get();
    ctx.log = &log;
    auto report = CheckLog(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
    EXPECT_EQ(report.value().CounterOr("records"), 2u);

    // Flip bytes inside the first record, now in the durable region.
    InodeNum ino = m->kernel->Open("/wal").value();
    char garbage[4];
    memset(garbage, 0xBD, sizeof(garbage));
    ASSERT_TRUE(m->kernel->Write(ino, 40, Slice(garbage, 4)).ok());
    ASSERT_TRUE(m->kernel->Close(ino).ok());

    report = CheckLog(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean) << "log corruption not detected";
    ASSERT_TRUE(log.Close().ok());
  });
  m->env->Run();
}

TEST(CheckTxnTest, DetectsLiveUserTransactionAtQuiesce) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    auto txn = rig->backend->Begin();
    ASSERT_TRUE(txn.ok());
    CheckSummary summary = RunAllChecks(*rig);
    EXPECT_FALSE(ReportOf(summary, "txn").clean)
        << "live transaction not detected";

    ASSERT_TRUE(rig->backend->Commit(txn.value()).ok());
    summary = RunAllChecks(*rig);
    EXPECT_TRUE(summary.clean()) << summary.ToString();
  });
}

TEST(CheckGensTest, DetectsMutationBehindTheSnapshot) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    Kernel* kernel = rig->machine->kernel.get();
    ASSERT_TRUE(kernel->Sync().ok());  // clean cache arms the comparison
    CheckContext ctx = MakeCheckContext(*rig);
    ASSERT_TRUE(ctx.gens_captured);
    ASSERT_TRUE(ctx.gens_cache_clean);
    auto report = CheckGenerations(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();

    // A foreign mutation between capture and the sweep — exactly what a
    // process that was not really parked would do.
    auto ino = kernel->Create("/intruder");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(kernel->Close(ino.value()).ok());
    report = CheckGenerations(ctx);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().clean) << "mid-sweep mutation not detected";
    bool named = false;
    for (const auto& p : report.value().problems) {
      if (p.find("quiescent point was not quiescent") != std::string::npos) {
        named = true;
      }
    }
    EXPECT_TRUE(named) << report.value().ToString();
  });
}

TEST(CheckTxnTest, DetectsLiveEmbeddedTransactionAtQuiesce) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  rig->Run([&] {
    auto txn = rig->backend->Begin();
    ASSERT_TRUE(txn.ok());
    CheckSummary summary = RunAllChecks(*rig);
    EXPECT_FALSE(ReportOf(summary, "txn").clean)
        << "live embedded transaction not detected";

    ASSERT_TRUE(rig->backend->Commit(txn.value()).ok());
    summary = RunAllChecks(*rig);
    EXPECT_TRUE(summary.clean()) << summary.ToString();
  });
}

}  // namespace
}  // namespace lfstx
