#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "lfs/cleaner.h"
#include "lfs/fsck.h"
#include "lfs/lfs.h"

namespace lfstx {
namespace {

struct LfsFixture {
  explicit LfsFixture(size_t cache_blocks = 1024,
                      Lfs::Options opt = Lfs::Options{})
      : disk(&env, SimDisk::Options{}),
        cache(&env, cache_blocks),
        fs(&env, &disk, &cache, opt) {
    cache.set_writeback(&fs);
  }
  SimEnv env;
  SimDisk disk;
  BufferCache cache;
  Lfs fs;
};

void RunIn(SimEnv* env, std::function<void()> fn) {
  env->Spawn("test", std::move(fn));
  env->Run();
}

TEST(LfsTest, FormatMountBasics) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    FileStat st;
    ASSERT_TRUE(f.fs.Stat("/", &st).ok());
    EXPECT_EQ(st.inum, kRootInode);
    EXPECT_GT(f.fs.nsegments(), 500u);  // ~600 segments on a 300 MB disk
    EXPECT_GT(f.fs.clean_segments(), f.fs.nsegments() - 3);
  });
}

TEST(LfsTest, WriteReadSmallFile) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/x").value();
    ASSERT_TRUE(f.fs.Write(ino, 0, Slice("log-structured")).ok());
    char buf[32] = {0};
    EXPECT_EQ(f.fs.Read(ino, 0, 32, buf).value(), 14u);
    EXPECT_EQ(std::string(buf, 14), "log-structured");
  });
}

TEST(LfsTest, LargeFileThroughIndirectBlocks) {
  LfsFixture f(2048);
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/big").value();
    const uint64_t kBlocks = 600;  // spans direct, single, double indirect
    std::string page(kBlockSize, 0);
    for (uint64_t b = 0; b < kBlocks; b++) {
      memset(page.data(), static_cast<int>('A' + b % 26), kBlockSize);
      ASSERT_TRUE(f.fs.Write(ino, b * kBlockSize, page).ok()) << b;
    }
    ASSERT_TRUE(f.fs.SyncAll().ok());
    char out[kBlockSize];
    for (uint64_t b : {0ull, 11ull, 12ull, 523ull, 524ull, 599ull}) {
      ASSERT_EQ(f.fs.Read(ino, b * kBlockSize, kBlockSize, out).value(),
                kBlockSize);
      EXPECT_EQ(out[0], static_cast<char>('A' + b % 26)) << b;
      EXPECT_EQ(out[kBlockSize - 1], static_cast<char>('A' + b % 26)) << b;
    }
  });
}

TEST(LfsTest, SegmentWritesAreSequentialAndBatched) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/seq").value();
    std::string data(64 * kBlockSize, 'd');
    ASSERT_TRUE(f.fs.Write(ino, 0, data).ok());
    f.disk.ResetStats();
    ASSERT_TRUE(f.fs.SyncAll().ok());
    // 64 data blocks + metadata should go out in very few large writes.
    EXPECT_LE(f.disk.stats().writes, 3u);
    EXPECT_GE(f.disk.stats().blocks_written, 64u);
  });
}

TEST(LfsTest, PersistsAcrossRemount) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      ASSERT_TRUE(fs.Mkdir("/d").ok());
      InodeNum ino = fs.Create("/d/file").value();
      ASSERT_TRUE(fs.Write(ino, 0, Slice("durable bytes")).ok());
      ASSERT_TRUE(fs.Close(ino).ok());
      ASSERT_TRUE(fs.Unmount().ok());
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      auto r = fs.Open("/d/file");
      ASSERT_TRUE(r.ok());
      char buf[32] = {0};
      EXPECT_EQ(fs.Read(r.value(), 0, 32, buf).value(), 13u);
      EXPECT_EQ(std::string(buf, 13), "durable bytes");
      ASSERT_TRUE(fs.Close(r.value()).ok());
      ASSERT_TRUE(fs.Unmount().ok());
    }
  });
  env.Run();
}

TEST(LfsTest, NoOverwrite_BeforeImageSurvivesUntilNextFlush) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/v").value();
    std::string v1(kBlockSize, '1');
    ASSERT_TRUE(f.fs.Write(ino, 0, v1).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    auto inode = f.fs.GetInode(ino).value();
    BlockAddr addr1 = f.fs.MapBlock(inode, 0).value();
    std::string v2(kBlockSize, '2');
    ASSERT_TRUE(f.fs.Write(ino, 0, v2).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    BlockAddr addr2 = f.fs.MapBlock(inode, 0).value();
    EXPECT_NE(addr1, addr2);  // never overwritten in place
    char old[kBlockSize];
    f.disk.RawRead(addr1, 1, old);
    EXPECT_EQ(old[0], '1');  // the before-image is still on disk
  });
}

TEST(LfsTest, RollForwardRecoversUncheckpointedWrites) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      // High checkpoint interval: the writes below are only in the log.
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = fs.Create("/after-checkpoint").value();
      ASSERT_TRUE(fs.Write(ino, 0, Slice("recovered by roll-forward")).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      // Crash now: no Unmount, no checkpoint since Format's.
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      auto r = fs.Open("/after-checkpoint");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      char buf[64] = {0};
      EXPECT_EQ(fs.Read(r.value(), 0, 64, buf).value(), 25u);
      EXPECT_EQ(std::string(buf, 25), "recovered by roll-forward");
    }
  });
  env.Run();
}

TEST(LfsTest, TornFinalWriteIsDiscarded) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = fs.Create("/good").value();
      ASSERT_TRUE(fs.Write(ino, 0, Slice("complete")).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      // Power fails two blocks into the next flush.
      InodeNum ino2 = fs.Create("/torn").value();
      std::string big(20 * kBlockSize, 't');
      ASSERT_TRUE(fs.Write(ino2, 0, big).ok());
      disk.CrashAfterBlocks(2);
      ASSERT_TRUE(fs.SyncAll().ok());  // appears to succeed; tail dropped
    }
    disk.ClearCrash();
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      // The completed file survived; the torn one atomically never existed.
      EXPECT_TRUE(fs.Open("/good").ok());
      EXPECT_EQ(fs.Open("/torn").status().code(), Code::kNotFound);
    }
  });
  env.Run();
}

TEST(LfsTest, DeleteDecrementsUsageAndFreesInode) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/dead").value();
    std::string data(50 * kBlockSize, 'x');
    ASSERT_TRUE(f.fs.Write(ino, 0, data).ok());
    ASSERT_TRUE(f.fs.Close(ino).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    uint64_t live_before = 0;
    for (uint32_t s = 0; s < f.fs.nsegments(); s++) {
      live_before += f.fs.usage().live(s);
    }
    ASSERT_TRUE(f.fs.Remove("/dead").ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    uint64_t live_after = 0;
    for (uint32_t s = 0; s < f.fs.nsegments(); s++) {
      live_after += f.fs.usage().live(s);
    }
    EXPECT_LT(live_after + 45, live_before);  // ~50 data blocks went dead
    EXPECT_FALSE(f.fs.imap().InUse(ino));
  });
}

TEST(LfsTest, CleanerReclaimsDeadSegments) {
  // Small disk region stress: overwrite one file repeatedly so segments
  // fill with dead blocks, then let the cleaner reclaim them.
  LfsFixture f(1024);
  Cleaner::Options copt;
  copt.low_water = 590;  // effectively: always clean when possible
  copt.high_water = 595;
  copt.poll_interval = 100 * kMillisecond;
  Cleaner cleaner(&f.env, &f.fs, copt);
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/churn").value();
    std::string data(32 * kBlockSize, 'c');
    for (int round = 0; round < 40; round++) {
      memset(data.data(), 'a' + round % 26, data.size());
      ASSERT_TRUE(f.fs.Write(ino, 0, data).ok());
      ASSERT_TRUE(f.fs.SyncAll().ok());
      f.env.SleepFor(200 * kMillisecond);
    }
    // Data is still intact after cleaning.
    char out[kBlockSize];
    ASSERT_EQ(f.fs.Read(ino, 31 * kBlockSize, kBlockSize, out).value(),
              kBlockSize);
    EXPECT_EQ(out[0], 'a' + 39 % 26);
  });
  EXPECT_GT(cleaner.stats().segments_cleaned, 0u);
  EXPECT_GT(cleaner.stats().dead_blocks_dropped, 0u);
}

TEST(LfsTest, KernelCleanerLocksOutFileAccess) {
  LfsFixture f(4096);
  std::unique_ptr<Cleaner> cleaner;  // outlives the simulation
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/locked").value();
    // Enough data to retire several segments (128 blocks each), then
    // rewrite part of it so retired segments hold dead blocks.
    std::string data(400 * kBlockSize, 'l');
    ASSERT_TRUE(f.fs.Write(ino, 0, data).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    ASSERT_TRUE(f.fs.Write(ino, 0, std::string(100 * kBlockSize, 'm')).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());

    Cleaner::Options copt;
    copt.mode = Cleaner::Mode::kKernel;
    cleaner = std::make_unique<Cleaner>(&f.env, &f.fs, copt);
    // Run one cleaning pass from a separate process while a reader hammers
    // the file; the reader must stall while the cleaner holds the file.
    SimTime max_read_gap = 0;
    uint64_t reader_stall_us = 0;
    bool done = false;
    bool reader_exited = false;
    f.env.Spawn("reader", [&] {
      char out[kBlockSize];
      SimTime last = f.env.Now();
      while (!done) {
        ASSERT_TRUE(f.fs.Read(ino, 0, kBlockSize, out).ok());
        SimTime now = f.env.Now();
        max_read_gap = std::max(max_read_gap, now - last);
        last = now;
        f.env.SleepFor(10 * kMillisecond);
      }
      reader_stall_us = f.env.profiler()->PhaseTotal(Phase::kCleanerStall);
      reader_exited = true;
    });
    f.env.Spawn("clean", [&] {
      Status s = cleaner->CleanOne();
      done = true;
      ASSERT_TRUE(s.ok()) << s.ToString();
    });
    // Keep this frame alive until both children are finished — they
    // capture these locals by reference.
    while (!done || !reader_exited) f.env.SleepFor(50 * kMillisecond);
    // Reading a cached block takes ~nothing; the cleaner lockout makes one
    // gap comparable to a whole-segment read + rewrite (hundreds of ms).
    EXPECT_GT(max_read_gap, 100 * kMillisecond);
    EXPECT_EQ(cleaner->stats().segments_cleaned, 1u);
    // The lockout is charged to the reader's cleaner_stall phase, not to
    // an unlabelled share of `run`.
    EXPECT_GT(reader_stall_us, 0u);
  });
}

TEST(LfsTest, KernelCleanerLetsLockedOutAccessesRunDuringItsReads) {
  // Every pass locks /f, but only after reading its victim's live blocks:
  // the reader the last pass woke runs during the next pass's reads. A
  // pass that locked before its first I/O would re-lock /f at once, and
  // the reader would wait out the whole engagement.
  LfsFixture f(4096);
  // Outlives the simulation: a pass may still be in flight when the
  // test's process returns.
  std::unique_ptr<Cleaner> cleaner;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/f").value();
    ASSERT_TRUE(f.fs.Write(ino, 0, std::string(600 * kBlockSize, 'f')).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    // Leave every tenth of the first 400 blocks live: several victims,
    // each holding a few blocks of /f.
    for (uint64_t lb = 0; lb < 400; lb++) {
      if (lb % 10 == 0) continue;
      ASSERT_TRUE(f.fs.Write(ino, lb * kBlockSize,
                             std::string(kBlockSize, 'g'))
                      .ok());
    }
    ASSERT_TRUE(f.fs.SyncAll().ok());
    f.cache.Clear();  // every pass reads its victim's live blocks

    Cleaner::Options copt;
    copt.mode = Cleaner::Mode::kKernel;
    copt.low_water = f.fs.nsegments();  // engage now, run to stagnation
    copt.high_water = f.fs.nsegments();
    copt.poll_interval = 10 * kMillisecond;
    cleaner = std::make_unique<Cleaner>(&f.env, &f.fs, copt);
    std::set<uint64_t> seen;  // segments cleaned when each read finished
    bool done = false;
    bool reader_exited = false;
    f.env.Spawn("reader", [&] {
      char out[kBlockSize];
      while (!done) {
        ASSERT_TRUE(f.fs.Read(ino, 500 * kBlockSize, kBlockSize, out).ok());
        seen.insert(cleaner->stats().segments_cleaned);
        f.env.SleepFor(kMillisecond);
      }
      reader_exited = true;
    });
    while (cleaner->stats().segments_cleaned < 4) {
      f.env.SleepFor(50 * kMillisecond);
    }
    done = true;
    while (!reader_exited) f.env.SleepFor(10 * kMillisecond);
    // The reader got in between passes, not just before and after.
    EXPECT_GE(seen.size(), 4u) << "reads finished at only "
                               << seen.size() << " pass counts";
  });
}

TEST(LfsTest, CrashDuringRecoveredStateRoundTrips) {
  // Write, crash, recover, write more, crash again, recover again.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum a = fs.Create("/a").value();
      ASSERT_TRUE(fs.Write(a, 0, Slice("one")).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      InodeNum b = fs.Create("/b").value();
      ASSERT_TRUE(fs.Write(b, 0, Slice("two")).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      char buf[8] = {0};
      auto ra = fs.Open("/a");
      ASSERT_TRUE(ra.ok());
      EXPECT_EQ(fs.Read(ra.value(), 0, 8, buf).value(), 3u);
      EXPECT_EQ(std::string(buf, 3), "one");
      auto rb = fs.Open("/b");
      ASSERT_TRUE(rb.ok());
      EXPECT_EQ(fs.Read(rb.value(), 0, 8, buf).value(), 3u);
      EXPECT_EQ(std::string(buf, 3), "two");
    }
  });
  env.Run();
}

TEST(LfsTest, InodeNumbersAreReusedWithBumpedVersion) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum first = f.fs.Create("/tmp1").value();
    ASSERT_TRUE(f.fs.Close(first).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    uint32_t v1 = f.fs.imap().Get(first).version;
    ASSERT_TRUE(f.fs.Remove("/tmp1").ok());
    InodeNum second = f.fs.Create("/tmp2").value();
    ASSERT_TRUE(f.fs.Close(second).ok());
    EXPECT_EQ(first, second);  // number reused...
    ASSERT_TRUE(f.fs.SyncAll().ok());
    EXPECT_GT(f.fs.imap().Get(second).version, v1);  // ...at a new version
  });
}

TEST(LfsTest, SyncFileWritesOnlyThatFile) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum a = f.fs.Create("/a").value();
    InodeNum b = f.fs.Create("/b").value();
    ASSERT_TRUE(f.fs.SyncAll().ok());  // the namespace is on disk
    ASSERT_TRUE(f.fs.Write(a, 0, std::string(4 * kBlockSize, 'a')).ok());
    ASSERT_TRUE(f.fs.Write(b, 0, std::string(kBlockSize, 'b')).ok());
    f.disk.ResetStats();
    ASSERT_TRUE(f.fs.SyncFile(b).ok());
    // A summary block, b's data block and b's inode block.
    EXPECT_LE(f.disk.stats().blocks_written, 3u);
    EXPECT_EQ(f.cache.dirty_count(), 4u);  // a's data is still dirty
    EXPECT_TRUE(f.fs.GetInode(a).value()->dirty);
    EXPECT_FALSE(f.fs.GetInode(b).value()->dirty);
  });
}

std::string Pattern(char c, size_t n) { return std::string(n, c); }

TEST(LfsTest, AnAppendingFsyncOfALoggedFileWritesOnlyItsData) {
  // The block lands inside an indirect block the log already holds, so
  // only a pointer and the size changed: the fsync writes a summary and
  // the data block, and the indirect blocks and inode wait in core.
  const uint64_t kDoubleIndirect = kNumDirect + kPtrsPerBlock;
  for (uint64_t blocks : {uint64_t{20}, kDoubleIndirect + 20}) {
    SCOPED_TRACE(blocks);
    LfsFixture f(4096);
    RunIn(&f.env, [&] {
      ASSERT_TRUE(f.fs.Format().ok());
      InodeNum a = f.fs.Create("/a").value();
      ASSERT_TRUE(f.fs.Write(a, 0, Pattern('a', blocks * kBlockSize)).ok());
      ASSERT_TRUE(f.fs.SyncFile(a).ok());
      ASSERT_FALSE(f.fs.GetInode(a).value()->deferred);
      f.disk.ResetStats();
      ASSERT_TRUE(f.fs.Write(a, blocks * kBlockSize, Pattern('b', 10)).ok());
      ASSERT_TRUE(f.fs.SyncFile(a).ok());
      EXPECT_EQ(f.disk.stats().blocks_written, 2u);
      Inode* ino = f.fs.GetInode(a).value();
      EXPECT_TRUE(ino->deferred);
      EXPECT_TRUE(ino->dirty);
      EXPECT_EQ(f.cache.dirty_count(), 1u);  // the leaf with the pointer
    });
  }
}

TEST(LfsTest, DeferredDataAndSizeSurviveACrashBeforeAnyCheckpoint) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  const uint64_t size = 21 * kBlockSize + 100;
  env.Spawn("test", [&] {
    InodeNum a = kInvalidInode;
    {
      BufferCache cache(&env, 1024);
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      a = fs.Create("/a").value();
      ASSERT_TRUE(fs.Write(a, 0, Pattern('a', 20 * kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      // An overwrite, then an append that ends mid-block.
      ASSERT_TRUE(fs.Write(a, 3 * kBlockSize, Pattern('b', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.Write(a, 20 * kBlockSize,
                           Pattern('c', size - 20 * kBlockSize))
                      .ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred);
      // Crash now: no Unmount, no checkpoint since Format's.
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    FileStat st;
    ASSERT_TRUE(fs.StatInode(a, &st).ok());
    EXPECT_EQ(st.size, size);
    std::string got(size, '\0');
    ASSERT_EQ(fs.Read(a, 0, size, got.data()).value(), size);
    std::string want = Pattern('a', 20 * kBlockSize) +
                       Pattern('c', size - 20 * kBlockSize);
    want.replace(3 * kBlockSize, kBlockSize, Pattern('b', kBlockSize));
    EXPECT_TRUE(got == want);
    // The recovery checkpoint logged the redone inode.
    EXPECT_FALSE(fs.GetInode(a).value()->deferred);
    auto report = CheckLfs(&fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(LfsTest, ACheckpointKeepsADeferredFileAtItsRedoPoint) {
  // The checkpoint after the fsync leaves the file deferred: its image names
  // the fsync's chunk as the redo point, and roll-forward reads that
  // chunk's summary although it lies before the image's head.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    InodeNum a = kInvalidInode;
    uint64_t redo_seq = 0;
    {
      BufferCache cache(&env, 1024);
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      a = fs.Create("/a").value();
      ASSERT_TRUE(fs.Write(a, 0, Pattern('a', 20 * kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_TRUE(fs.Write(a, 20 * kBlockSize, Pattern('d', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred);
      redo_seq = fs.GetInode(a).value()->redo_seq;
      ASSERT_TRUE(fs.imap().DirtyBlocks().empty());
      const uint64_t flushes = fs.lfs_stats().flushes;
      ASSERT_TRUE(fs.Checkpoint().ok());
      EXPECT_TRUE(fs.GetInode(a).value()->deferred);
      EXPECT_EQ(fs.lfs_stats().flushes, flushes);  // nothing written whole
      EXPECT_EQ(fs.lfs_stats().checkpoint_forced_files, 0u);
      EXPECT_EQ(fs.last_capture().redo_seq, redo_seq);
      EXPECT_EQ(fs.last_capture().head_seq, redo_seq + 1);
      // Crash right after the image.
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    EXPECT_EQ(fs.recovery_stats().redo_chunks, 1u);
    EXPECT_EQ(fs.recovery_stats().chunks, 0u);  // nothing after the head
    FileStat st;
    ASSERT_TRUE(fs.StatInode(a, &st).ok());
    EXPECT_EQ(st.size, 21 * kBlockSize);
    char buf[kBlockSize] = {0};
    ASSERT_EQ(fs.Read(a, 20 * kBlockSize, kBlockSize, buf).value(),
              kBlockSize);
    EXPECT_EQ(buf[0], 'd');
    ASSERT_EQ(fs.Read(a, 0, kBlockSize, buf).value(), kBlockSize);
    EXPECT_EQ(buf[0], 'a');
    auto report = CheckLfs(&fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(LfsTest, ACheckpointWritesWholeOnlyFilesDeferredBeforeThePreviousOne) {
  // /a is deferred before the first checkpoint below and /b only after it,
  // so the second writes /a whole and leaves /b to its redo point: replay
  // never reaches back past the previous capture.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    InodeNum a = kInvalidInode, b = kInvalidInode;
    {
      BufferCache cache(&env, 1024);
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      a = fs.Create("/a").value();
      b = fs.Create("/b").value();
      ASSERT_TRUE(fs.Write(a, 0, Pattern('a', 20 * kBlockSize)).ok());
      ASSERT_TRUE(fs.Write(b, 0, Pattern('b', 20 * kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_TRUE(fs.Write(a, 3 * kBlockSize, Pattern('A', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred);
      ASSERT_EQ(fs.lfs_stats().checkpoint_forced_files, 0u);
      ASSERT_TRUE(fs.Write(b, 5 * kBlockSize, Pattern('B', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(b).ok());
      const uint64_t b_seq = fs.GetInode(b).value()->redo_seq;
      ASSERT_TRUE(fs.Checkpoint().ok());
      EXPECT_FALSE(fs.GetInode(a).value()->deferred);
      EXPECT_TRUE(fs.GetInode(b).value()->deferred);
      EXPECT_EQ(fs.lfs_stats().checkpoint_forced_files, 1u);
      EXPECT_EQ(fs.last_capture().redo_seq, b_seq);
      // Crash right after the image.
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    char buf[kBlockSize] = {0};
    ASSERT_EQ(fs.Read(a, 3 * kBlockSize, kBlockSize, buf).value(), kBlockSize);
    EXPECT_EQ(buf[0], 'A');
    ASSERT_EQ(fs.Read(b, 5 * kBlockSize, kBlockSize, buf).value(), kBlockSize);
    EXPECT_EQ(buf[0], 'B');
    auto report = CheckLfs(&fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(LfsTest, ARedoSpanCountsEachFileFromItsOwnRecord) {
  // The span starts at /b's record. /a has an older record inside it,
  // which a later write of /a's inode superseded before the capture: the
  // image lists /a from its newer record only, so roll-forward must not
  // put the older block back.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    InodeNum a = kInvalidInode;
    Lfs::CaptureSpan span;
    {
      BufferCache cache(&env, 1024);
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      a = fs.Create("/a").value();
      InodeNum b = fs.Create("/b").value();
      ASSERT_TRUE(fs.Write(a, 0, Pattern('a', 10 * kBlockSize)).ok());
      ASSERT_TRUE(fs.Write(b, 0, Pattern('b', 20 * kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_TRUE(fs.Write(b, 5 * kBlockSize, Pattern('B', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(b).ok());
      ASSERT_TRUE(fs.Write(a, 3 * kBlockSize, Pattern('1', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred);
      // A new direct block is an attribute change: this fsync logs /a's
      // inode.
      ASSERT_TRUE(fs.Write(a, 3 * kBlockSize, Pattern('2', kBlockSize)).ok());
      ASSERT_TRUE(fs.Write(a, 10 * kBlockSize, Pattern('a', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_FALSE(fs.GetInode(a).value()->deferred);
      ASSERT_TRUE(fs.Write(a, 7 * kBlockSize, Pattern('3', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred);
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred);
      ASSERT_TRUE(fs.GetInode(b).value()->deferred);
      span = fs.last_capture();
      ASSERT_EQ(span.redo_seq, fs.GetInode(b).value()->redo_seq);
      // Crash right after the image.
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    EXPECT_EQ(fs.recovery_stats().redo_chunks, span.head_seq - span.redo_seq);
    char buf[kBlockSize] = {0};
    ASSERT_EQ(fs.Read(a, 3 * kBlockSize, kBlockSize, buf).value(), kBlockSize);
    EXPECT_EQ(buf[0], '2');
    ASSERT_EQ(fs.Read(a, 7 * kBlockSize, kBlockSize, buf).value(), kBlockSize);
    EXPECT_EQ(buf[0], '3');
    auto report = CheckLfs(&fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(LfsTest, ACrashInRecoverysCheckpointFlushRecoversTheSameState) {
  // The image is taken at a segment's end, so it names the successor S the
  // log continues in. /t then fills S and is removed, and deferred fsyncs
  // of /u fill the next segment, so S holds no live block when the log
  // ends. Recovery's checkpoint flush needs a fresh segment, and the
  // image's successor hint offers S: it must stay dirty until that
  // checkpoint is durable, because a crash inside the flush recovers from
  // the same image, whose chain runs through S.
  for (uint64_t n = 1; n < 400; n++) {
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    bool at_end = false;
    uint64_t digest = 0;
    auto read_all = [](Lfs* fs) {
      auto f = fs->Open("/u");
      EXPECT_TRUE(f.ok());
      if (!f.ok()) return std::string();
      FileStat st;
      EXPECT_TRUE(fs->Stat("/u", &st).ok());
      std::string bytes(st.size, '\0');
      EXPECT_EQ(fs->Read(f.value(), 0, st.size, bytes.data()).value(),
                st.size);
      EXPECT_TRUE(fs->Close(f.value()).ok());
      EXPECT_FALSE(fs->Open("/t").ok());
      return bytes;
    };
    std::string before;
    env.Spawn("test", [&] {
      {
        BufferCache cache(&env, 1024);
        Lfs::Options opt;
        opt.checkpoint_every_segments = 1000;
        Lfs fs(&env, &disk, &cache, opt);
        cache.set_writeback(&fs);
        ASSERT_TRUE(fs.Format().ok());
        InodeNum a = fs.Create("/a").value();
        ASSERT_TRUE(fs.Write(a, 0, Pattern('a', n * kBlockSize)).ok());
        ASSERT_TRUE(fs.SyncFile(a).ok());
        ASSERT_TRUE(fs.Checkpoint().ok());
        at_end = fs.current_offset() + 2 > fs.segment_blocks();
        if (!at_end) return;
        InodeNum t = fs.Create("/t").value();
        ASSERT_TRUE(
            fs.Write(t, 0, Pattern('t', 2 * fs.segment_blocks() * kBlockSize))
                .ok());
        ASSERT_TRUE(fs.SyncFile(t).ok());
        ASSERT_TRUE(fs.Close(t).ok());
        ASSERT_TRUE(fs.Remove("/t").ok());
        InodeNum u = fs.Create("/u").value();
        ASSERT_TRUE(fs.Write(u, 0, Pattern('u', 20 * kBlockSize)).ok());
        ASSERT_TRUE(fs.SyncFile(u).ok());
        const uint32_t last = fs.current_segment();
        for (uint64_t i = 0; fs.current_offset() + 2 <= fs.segment_blocks();
             i++) {
          ASSERT_LT(i, fs.segment_blocks());
          ASSERT_TRUE(fs.Write(u, (i % 20) * kBlockSize,
                               Pattern(static_cast<char>('0' + i % 10),
                                       kBlockSize))
                          .ok());
          ASSERT_TRUE(fs.SyncFile(u).ok());
          ASSERT_EQ(fs.current_segment(), last);
        }
        ASSERT_TRUE(fs.GetInode(u).value()->deferred);
        // Crash: no checkpoint since the one at the segment's end.
      }
      {
        // Recover, and crash one block into the recovery checkpoint's flush.
        BufferCache cache(&env, 1024);
        Lfs fs(&env, &disk, &cache);
        cache.set_writeback(&fs);
        disk.CrashAfterBlocks(1);
        ASSERT_TRUE(fs.Mount().ok());
        before = read_all(&fs);
        ASSERT_FALSE(before.empty());
      }
      disk.ClearCrash();
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      EXPECT_TRUE(read_all(&fs) == before);
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean) << report.value().ToString();
      digest = 1;
    });
    env.Run();
    if (!at_end) continue;
    ASSERT_EQ(digest, 1u) << "the run stopped early";
    return;
  }
  FAIL() << "no file size left a checkpoint at a segment's end";
}

TEST(LfsTest, ARemovedDeferredFilesNumberReusedBeforeACrashRecovers) {
  // /f's redo record names its inode number; /g reuses that number, and
  // /g's inode block, written later, supersedes the record.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    InodeNum g = kInvalidInode;
    {
      BufferCache cache(&env, 1024);
      Lfs::Options opt;
      opt.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, opt);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum f = fs.Create("/f").value();
      ASSERT_TRUE(fs.Write(f, 0, Pattern('f', 20 * kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(f).ok());
      ASSERT_TRUE(fs.Write(f, 20 * kBlockSize, Pattern('F', kBlockSize)).ok());
      ASSERT_TRUE(fs.SyncFile(f).ok());
      ASSERT_TRUE(fs.GetInode(f).value()->deferred);
      ASSERT_TRUE(fs.Close(f).ok());
      ASSERT_TRUE(fs.Remove("/f").ok());
      g = fs.Create("/g").value();
      ASSERT_EQ(g, f);
      ASSERT_TRUE(fs.Write(g, 0, Slice("reused")).ok());
      ASSERT_TRUE(fs.SyncFile(g).ok());
      ASSERT_TRUE(fs.Close(g).ok());
      // Crash now.
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    EXPECT_EQ(fs.Open("/f").status().code(), Code::kNotFound);
    auto r = fs.Open("/g");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value(), g);
    FileStat st;
    ASSERT_TRUE(fs.StatInode(g, &st).ok());
    EXPECT_EQ(st.size, 6u);
    char buf[8] = {0};
    EXPECT_EQ(fs.Read(g, 0, sizeof(buf), buf).value(), 6u);
    EXPECT_EQ(std::string(buf, 6), "reused");
    ASSERT_TRUE(fs.Close(g).ok());
    auto report = CheckLfs(&fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(LfsTest, AWriteDuringItsChunkWriteKeepsTheBlockDirty) {
  // A flush marks its chunk's buffers clean once the chunk is on disk. A
  // process that overwrote one of them while that write was in flight
  // must find it still dirty, and the next sync must write the new bytes.
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum a = f.fs.Create("/a").value();
    ASSERT_TRUE(f.fs.Write(a, 0, std::string(kBlockSize, 'o')).ok());
    uint64_t chunks = f.fs.lfs_stats().partial_segments;
    bool wrote = false;
    f.env.Spawn("writer", [&] {
      // Runs at the flush's first yield: its chunk write.
      EXPECT_EQ(f.fs.lfs_stats().partial_segments, chunks);
      EXPECT_TRUE(f.fs.Write(a, 0, std::string(kBlockSize, 'n')).ok());
      wrote = true;
    });
    ASSERT_TRUE(f.fs.SyncAll().ok());
    ASSERT_TRUE(wrote);
    Buffer* b = f.cache.Peek(BufferKey{Inode::DataFileId(a), 0});
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->dirty);
    f.cache.Release(b);
    ASSERT_TRUE(f.fs.SyncAll().ok());
    char disk[kBlockSize];
    f.disk.RawRead(f.fs.MapBlock(f.fs.GetInode(a).value(), 0).value(), 1,
                   disk);
    EXPECT_EQ(disk[0], 'n');
  });
}

TEST(LfsTest, SyncFileMakesEveryNameInItsDirectoryDurable) {
  // /a is created but never synced; fsync of /b writes the root directory
  // block, which names /a too, so /a's inode must go out with it.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      ASSERT_TRUE(fs.Create("/a").ok());
      InodeNum b = fs.Create("/b").value();
      ASSERT_TRUE(fs.Write(b, 0, Slice("fsynced")).ok());
      ASSERT_TRUE(fs.SyncFile(b).ok());
      // Crash now: no Unmount.
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      auto r = fs.Open("/b");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      char buf[16] = {0};
      EXPECT_EQ(fs.Read(r.value(), 0, 16, buf).value(), 7u);
      EXPECT_EQ(std::string(buf, 7), "fsynced");
      ASSERT_TRUE(fs.Close(r.value()).ok());
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean) << report.value().ToString();
    }
  });
  env.Run();
}

TEST(LfsTest, AFileLoggedOnlyForItsNameLogsItsIndirectBlockOnItsFsync) {
  // /b's fsync logs /a's inode for the directory's sake, but not /a's data
  // or single-indirect block. /a's own fsync must not defer: the logged
  // inode names no indirect block, and roll-forward does not invent one.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    InodeNum a = kInvalidInode;
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      a = fs.Create("/a").value();
      ASSERT_TRUE(fs.Write(a, 0, Pattern('a', 20 * kBlockSize)).ok());
      InodeNum b = fs.Create("/b").value();
      ASSERT_TRUE(fs.Write(b, 0, Slice("fsynced")).ok());
      ASSERT_TRUE(fs.SyncFile(b).ok());
      ASSERT_TRUE(fs.SyncFile(a).ok());
      EXPECT_FALSE(fs.GetInode(a).value()->deferred);
      // Crash now: no Unmount.
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    FileStat st;
    ASSERT_TRUE(fs.StatInode(a, &st).ok());
    ASSERT_EQ(st.size, 20 * kBlockSize);
    std::string got(st.size, '\0');
    ASSERT_EQ(fs.Read(a, 0, st.size, got.data()).value(), st.size);
    EXPECT_TRUE(got == Pattern('a', 20 * kBlockSize));
    auto report = CheckLfs(&fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
  });
  env.Run();
}

TEST(LfsTest, RollForwardReplaysALoggedFree) {
  // Roll-forward learns inode locations from inode blocks, but a free
  // leaves no inode block behind: the flush after it must log the imap.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  InodeNum c = kInvalidInode;
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      c = fs.Create("/c").value();
      ASSERT_TRUE(fs.Write(c, 0, Slice("doomed")).ok());
      ASSERT_TRUE(fs.Close(c).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      ASSERT_TRUE(fs.Checkpoint().ok());
      ASSERT_TRUE(fs.Remove("/c").ok());
      ASSERT_TRUE(fs.SyncAll().ok());
      // Crash before the next checkpoint.
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      EXPECT_GT(fs.recovery_stats().chunks, 0u);
      EXPECT_FALSE(fs.imap().InUse(c));
      EXPECT_EQ(fs.Open("/c").status().code(), Code::kNotFound);
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean) << report.value().ToString();
    }
  });
  env.Run();
}

TEST(LfsTest, CheckpointLogsTheDirtyImapBeforeItsCapture) {
  // Files made durable by fsync alone are known to the in-memory imap and
  // to roll-forward, not to the on-disk imap. A checkpoint moves the
  // roll-forward start past their inode blocks, so it must log the imap
  // first — on the periodic path inside the flush's last chunk.
  for (bool forced : {false, true}) {
    SCOPED_TRACE(forced ? "Checkpoint() call" : "periodic checkpoint");
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    const int kFiles = 4;
    env.Spawn("test", [&] {
      {
        BufferCache cache(&env, 1024);
        Lfs::Options opt;
        opt.checkpoint_every_segments = forced ? 1000 : 1;
        Lfs fs(&env, &disk, &cache, opt);
        cache.set_writeback(&fs);
        ASSERT_TRUE(fs.Format().ok());
        for (int i = 0; i < kFiles; i++) {
          InodeNum ino = fs.Create("/f" + std::to_string(i)).value();
          ASSERT_TRUE(fs.Write(ino, 0, "file " + std::to_string(i)).ok());
          ASSERT_TRUE(fs.SyncFile(ino).ok());
          ASSERT_TRUE(fs.Close(ino).ok());
        }
        ASSERT_FALSE(fs.imap().DirtyBlocks().empty());
        uint64_t checkpoints = fs.lfs_stats().checkpoints;
        if (forced) {
          ASSERT_TRUE(fs.Checkpoint().ok());
        } else {
          // A flush that opens a segment makes the periodic checkpoint due.
          InodeNum big = fs.Create("/big").value();
          ASSERT_TRUE(
              fs.Write(big, 0, std::string(200 * kBlockSize, 'b')).ok());
          ASSERT_TRUE(fs.Close(big).ok());
          uint64_t flushes = fs.lfs_stats().flushes;
          ASSERT_TRUE(fs.SyncAll().ok());
          EXPECT_EQ(fs.lfs_stats().flushes, flushes + 1);
        }
        EXPECT_EQ(fs.lfs_stats().checkpoints, checkpoints + 1);
        EXPECT_TRUE(fs.imap().DirtyBlocks().empty());
        // Crash right after the checkpoint.
      }
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      EXPECT_EQ(fs.recovery_stats().chunks, 0u);  // the checkpoint has it all
      for (int i = 0; i < kFiles; i++) {
        auto r = fs.Open("/f" + std::to_string(i));
        ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
        char buf[16] = {0};
        EXPECT_EQ(fs.Read(r.value(), 0, 16, buf).value(), 6u);
        EXPECT_EQ(std::string(buf, 6), "file " + std::to_string(i));
        ASSERT_TRUE(fs.Close(r.value()).ok());
      }
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean) << report.value().ToString();
    });
    env.Run();
  }
}

TEST(LfsTest, DrainedFlushLeavesTheGateOnlyWhileTheReserveIsWhole) {
  // A cleaning pass drains every dirty block, so a writer stalled at the
  // reserve gate often wakes with nothing left to write. At exactly the
  // reserve such a flush returns; below it, it waits for the cleaner.
  SimDisk::Options small;
  small.geometry.cylinders = 40;
  SimEnv env;
  SimDisk disk(&env, small);
  RunIn(&env, [&] {
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    InodeNum f = fs.Create("/f").value();
    std::string data(32 * kBlockSize, 'd');
    // Rewrite one region until only `target` segments are clean. Each
    // rewrite kills the copy before it, so the cleaner finds dead victims.
    auto fill_to = [&](uint32_t target) {
      while (fs.clean_segments() > target) {
        ASSERT_TRUE(fs.Write(f, 0, data).ok());
        ASSERT_TRUE(fs.SyncAll().ok());
      }
    };
    Cleaner::Options copt;
    copt.poll_interval = 1000 * kSecond;
    fill_to(Lfs::kCleanerReserveSegments);
    {
      Cleaner cleaner(&env, &fs, copt);
      ASSERT_TRUE(fs.SyncAll().ok());
      EXPECT_EQ(fs.lfs_stats().writer_stalls, 0u);
      EXPECT_EQ(fs.clean_segments(), Lfs::kCleanerReserveSegments);
    }
    fill_to(Lfs::kCleanerReserveSegments - 1);
    Cleaner cleaner(&env, &fs, copt);
    ASSERT_TRUE(fs.SyncAll().ok());
    EXPECT_GT(fs.lfs_stats().writer_stalls, 0u);
    EXPECT_GT(fs.clean_segments(), Lfs::kCleanerReserveSegments);
    ASSERT_TRUE(fs.Close(f).ok());
  });
}

TEST(LfsTest, AFlushThatStartsAboveTheReserveStopsAtIt) {
  // The entry gate admits a flush while more than the reserve is clean.
  // A backlog that would take the log below the reserve meets the same
  // rule in AdvanceSegment, and waits there for the cleaner.
  SimDisk::Options small;
  small.geometry.cylinders = 40;
  SimEnv env;
  SimDisk disk(&env, small);
  RunIn(&env, [&] {
    BufferCache cache(&env, 1024);
    Lfs::Options opt;
    opt.checkpoint_every_segments = 1000;  // no checkpoint flush to stall
    Lfs fs(&env, &disk, &cache, opt);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    InodeNum f = fs.Create("/f").value();
    // Rewrite one region, killing the copy before each time, until two
    // segments more than the reserve are clean.
    std::string data(32 * kBlockSize, 'd');
    while (fs.clean_segments() > Lfs::kCleanerReserveSegments + 2) {
      ASSERT_TRUE(fs.Write(f, 0, data).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    Cleaner::Options copt;
    copt.poll_interval = 1000 * kSecond;  // passes run only when poked
    Cleaner cleaner(&env, &fs, copt);
    std::string backlog(3 * fs.segment_blocks() * kBlockSize, 'b');
    ASSERT_TRUE(fs.Write(f, 0, backlog).ok());
    ASSERT_TRUE(fs.SyncAll().ok());
    EXPECT_GT(fs.lfs_stats().writer_stalls, 0u);
    EXPECT_GE(fs.clean_segments(), Lfs::kCleanerReserveSegments);
    std::string got(backlog.size(), '\0');
    ASSERT_EQ(fs.Read(f, 0, got.size(), got.data()).value(), got.size());
    EXPECT_TRUE(got == backlog);
    ASSERT_TRUE(fs.Close(f).ok());
  });
}

TEST(LfsTest, StoppingTheCleanerEndsItsEngagementAndFreesTheReserve) {
  // A writer stalled at the reserve keeps a cleaner engaged. Stop ends the
  // engagement after the pass in flight and detaches the cleaner, so the
  // log may then be flushed below the reserve without stalling.
  SimDisk::Options small;
  small.geometry.cylinders = 40;
  SimEnv env;
  SimDisk disk(&env, small);
  RunIn(&env, [&] {
    BufferCache cache(&env, 1024);
    Lfs::Options opt;
    opt.checkpoint_every_segments = 1000;  // no checkpoint flush to stall
    Lfs fs(&env, &disk, &cache, opt);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    InodeNum f = fs.Create("/f").value();
    // Rewrite one region, killing the copy before each time, until only
    // the reserve is clean.
    std::string data(32 * kBlockSize, 'd');
    while (fs.clean_segments() > Lfs::kCleanerReserveSegments) {
      ASSERT_TRUE(fs.Write(f, 0, data).ok());
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    Cleaner::Options copt;
    copt.poll_interval = 1000 * kSecond;  // passes run only when poked
    Cleaner cleaner(&env, &fs, copt);
    const MetricHistogram* passes =
        env.metrics()->FindHistogram("cleaner.busy_us");
    ASSERT_NE(passes, nullptr);
    // Two segments of backlog: the first pass drains it into the reserve.
    std::string backlog(2 * fs.segment_blocks() * kBlockSize, 'b');
    ASSERT_TRUE(fs.Write(f, 0, backlog).ok());
    bool synced = false;
    env.Spawn("writer", [&] {
      EXPECT_TRUE(fs.SyncAll().ok());
      synced = true;
    });
    while (!cleaner.busy()) env.SleepFor(kMillisecond);
    EXPECT_GT(fs.lfs_stats().writer_stalls, 0u);
    cleaner.Stop();
    EXPECT_FALSE(cleaner.busy());
    const uint64_t taken = passes->count();
    EXPECT_GT(taken, 0u);
    cleaner.Poke();
    env.SleepFor(10 * kSecond);
    EXPECT_EQ(passes->count(), taken);
    EXPECT_TRUE(synced);
    EXPECT_LT(fs.clean_segments(), Lfs::kCleanerReserveSegments);
    ASSERT_TRUE(fs.Write(f, 0, data).ok());
    ASSERT_TRUE(fs.SyncAll().ok());
    EXPECT_LT(fs.clean_segments(), Lfs::kCleanerReserveSegments);
    EXPECT_EQ(passes->count(), taken);
    std::string got(backlog.size(), '\0');
    ASSERT_EQ(fs.Read(f, 0, got.size(), got.data()).value(), got.size());
    EXPECT_TRUE(got.substr(0, data.size()) == data);
    EXPECT_TRUE(got.substr(data.size()) == backlog.substr(data.size()));
    ASSERT_TRUE(fs.Close(f).ok());
  });
}

// ---- the cleaner's live-block read path ----

// A victim segment holding only data blocks of /f, all but `keep` of them
// dead. `keep` and `cached` are offsets from the victim's first block of
// /f; the cache holds exactly the `cached` ones when the pass starts.
struct LiveVictim {
  static constexpr uint64_t kFileBlocks = 400;
  std::vector<uint64_t> keep = {5, 6, 7, 8, 20, 21, 22, 40, 60, 61};
  std::vector<uint64_t> cached = {6, 21, 60};
  std::string expect;
  InodeNum ino = kInvalidInode;    ///< /f
  uint64_t first_lb = 0;           ///< /f's first block in the victim
  std::vector<BlockAddr> live;     ///< addresses of the kept blocks
  uint64_t victim = 0;

  // Writes /f, kills every victim block outside `keep`, and syncs.
  void Build(Lfs* fs) {
    expect.assign(kFileBlocks * kBlockSize, 'a');
    for (uint64_t lb = 0; lb < kFileBlocks; lb++) {
      expect[lb * kBlockSize] = static_cast<char>('A' + lb % 26);
    }
    ino = fs->Create("/f").value();
    ASSERT_TRUE(fs->Write(ino, 0, expect).ok());
    ASSERT_TRUE(fs->SyncAll().ok());
    Inode* fi = fs->GetInode(ino).value();
    auto seg_of = [&](BlockAddr a) {
      return (a - fs->seg_start()) / fs->segment_blocks();
    };
    victim = seg_of(fs->MapBlock(fi, 200).value());
    first_lb = 200;
    while (seg_of(fs->MapBlock(fi, first_lb - 1).value()) == victim) {
      first_lb--;
    }
    for (uint64_t lb = first_lb;
         lb < kFileBlocks && seg_of(fs->MapBlock(fi, lb).value()) == victim;
         lb++) {
      uint64_t off = lb - first_lb;
      if (std::count(keep.begin(), keep.end(), off) != 0) {
        live.push_back(fs->MapBlock(fi, lb).value());
        continue;
      }
      memset(expect.data() + lb * kBlockSize, 'z', kBlockSize);
      ASSERT_TRUE(fs->Write(ino, lb * kBlockSize,
                            Slice(expect.data() + lb * kBlockSize,
                                  kBlockSize))
                      .ok());
    }
    ASSERT_EQ(live.size(), keep.size());
    ASSERT_TRUE(fs->Close(ino).ok());
    ASSERT_TRUE(fs->SyncAll().ok());
    ASSERT_EQ(fs->usage().live(static_cast<uint32_t>(victim)), keep.size());
  }

  // Empties the cache, then reads back exactly the `cached` blocks.
  void CacheOnly(Lfs* fs, BufferCache* cache) {
    ASSERT_TRUE(fs->SyncAll().ok());
    cache->Clear();
    fs->set_readahead_window(1);  // one block per read, nothing more
    InodeNum ino = fs->Open("/f").value();
    char out[kBlockSize];
    for (uint64_t off : cached) {
      ASSERT_TRUE(
          fs->Read(ino, (first_lb + off) * kBlockSize, kBlockSize, out).ok());
    }
    ASSERT_TRUE(fs->Close(ino).ok());
  }

  // Runs of address-contiguous kept blocks the cache lacks.
  uint64_t UncachedRuns() const {
    uint64_t runs = 0;
    BlockAddr prev = 0;
    for (size_t i = 0; i < keep.size(); i++) {
      if (std::count(cached.begin(), cached.end(), keep[i]) != 0) continue;
      if (runs == 0 || live[i] != prev + 1) runs++;
      prev = live[i];
    }
    return runs;
  }

  // The whole file, the survivors included, reads back as written.
  void Verify(Lfs* fs) {
    auto report = CheckLfs(fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().clean) << report.value().ToString();
    InodeNum ino = fs->Open("/f").value();
    std::string got(expect.size(), '\0');
    ASSERT_EQ(fs->Read(ino, 0, got.size(), got.data()).value(), got.size());
    EXPECT_TRUE(got == expect);
    ASSERT_TRUE(fs->Close(ino).ok());
  }
};

// Cleans the victim once and checks the pass read exactly the live blocks
// the cache lacked, one request per address-contiguous run.
void CleanAndCheckReads(SimEnv* env, Lfs* fs, LiveVictim* v) {
  Cleaner::Options copt;
  copt.poll_interval = 1000 * kSecond;  // passes run only on demand
  Cleaner cleaner(env, fs, copt);
  ASSERT_TRUE(cleaner.CleanOne().ok());
  const auto& st = cleaner.stats();
  EXPECT_EQ(st.segments_cleaned, 1u);
  EXPECT_EQ(st.blocks_read, v->keep.size() - v->cached.size());
  EXPECT_EQ(st.read_requests, v->UncachedRuns());
  EXPECT_EQ(st.live_blocks_copied, v->keep.size());
  EXPECT_GT(st.dead_blocks_dropped, 100u);
  EXPECT_EQ(fs->usage().state(static_cast<uint32_t>(v->victim)),
            SegState::kClean);
}

TEST(LfsTest, CleanerReadsOnlyTheLiveBlocksTheCacheLacks) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  LiveVictim v;
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      v.Build(&fs);
      v.CacheOnly(&fs, &cache);
      ASSERT_EQ(v.UncachedRuns(), 6u);
      CleanAndCheckReads(&env, &fs, &v);
      ASSERT_TRUE(fs.Unmount().ok());
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    v.Verify(&fs);
  });
  env.Run();
}

TEST(LfsTest, CleanerReadsOnlyLiveBlocksOfAVictimWrittenBeforeAMount) {
  // The owners now come from RebuildUsage's walk, not from the writer.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  LiveVictim v;
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      v.Build(&fs);
      // Crash: no unmount, so the mount also rolls the log forward.
    }
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      v.CacheOnly(&fs, &cache);
      CleanAndCheckReads(&env, &fs, &v);
      ASSERT_TRUE(fs.Unmount().ok());
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    v.Verify(&fs);
  });
  env.Run();
}

TEST(LfsTest, CleanerLeavesAFileBeingFreedAlone) {
  // A truncate or remove releases blocks between yields; a pass must not
  // dirty (and its flush pin) buffers that free is about to drop.
  LfsFixture f(1024);
  LiveVictim v;
  std::unique_ptr<Cleaner> cleaner;  // outlives the simulation
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    v.Build(&f.fs);
    Cleaner::Options copt;
    copt.poll_interval = 1000 * kSecond;
    cleaner = std::make_unique<Cleaner>(&f.env, &f.fs, copt);
    Inode* fi = f.fs.GetInode(v.ino).value();
    uint32_t written = f.fs.usage().written(static_cast<uint32_t>(v.victim));
    fi->freeing = true;
    ASSERT_TRUE(cleaner->CleanOne().ok());
    EXPECT_EQ(cleaner->stats().live_blocks_copied, 0u);
    // The victim stays dirty, so none of its dead blocks is dropped yet.
    EXPECT_EQ(cleaner->stats().dead_blocks_dropped, 0u);
    EXPECT_EQ(f.fs.usage().live(static_cast<uint32_t>(v.victim)),
              v.keep.size());
    EXPECT_EQ(f.fs.usage().state(static_cast<uint32_t>(v.victim)),
              SegState::kDirty);
    fi->freeing = false;
    ASSERT_TRUE(cleaner->CleanOne().ok());
    EXPECT_EQ(cleaner->stats().live_blocks_copied, v.keep.size());
    EXPECT_EQ(cleaner->stats().dead_blocks_dropped, written - v.keep.size());
    EXPECT_EQ(f.fs.usage().state(static_cast<uint32_t>(v.victim)),
              SegState::kClean);
    v.Verify(&f.fs);
  });
}

TEST(LfsTest, APassCutShortLeavesItsVictimDirty) {
  // The simulation stops while a daemon pass's final flush is writing, as
  // at the end of a bench run. The relocated blocks never reach the disk,
  // so the victim keeps the only durable copies: it stays dirty and is not
  // counted as cleaned, and a remount reads every block from it.
  LfsFixture f(1024);
  LiveVictim v;
  std::unique_ptr<Cleaner> cleaner;  // outlives the simulation
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    v.Build(&f.fs);
    Cleaner::Options copt;
    copt.poll_interval = 1000 * kSecond;
    copt.low_water = f.fs.nsegments();  // the daemon engages when poked
    copt.high_water = f.fs.nsegments();
    cleaner = std::make_unique<Cleaner>(&f.env, &f.fs, copt);
    f.env.Yield();  // the daemon goes to sleep
    cleaner->Poke();
    // The victim holds no live block once the pass has placed them all,
    // and the chunk that relocates the last of them is the first write
    // submitted after the last poll that still saw one. Each placement
    // takes 30 us of CPU and a write takes milliseconds, so 10 us polls
    // stop while that write is in flight.
    auto victim = static_cast<uint32_t>(v.victim);
    uint64_t writes = 0;
    while (f.fs.usage().live(victim) > 0) {
      writes = f.disk.stats().writes;
      f.env.SleepFor(10);
    }
    while (f.disk.stats().writes == writes) f.env.SleepFor(10);
    ASSERT_TRUE(cleaner->busy());
    ASSERT_EQ(f.fs.usage().state(victim), SegState::kDirty);
    // Returning stops the simulation with that write in flight.
  });
  EXPECT_EQ(f.fs.usage().state(static_cast<uint32_t>(v.victim)),
            SegState::kDirty);
  EXPECT_EQ(cleaner->stats().segments_cleaned, 0u);

  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  disk.CopyContentsFrom(f.disk);
  RunIn(&env, [&] {
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    v.Verify(&fs);
  });
}

TEST(LfsDeathTest, DestroyingACleanerMidPassDies) {
  // A pass blocked on its victim's reads resumes into its Cleaner.
  EXPECT_DEATH(
      {
        LfsFixture f(1024);
        LiveVictim v;
        RunIn(&f.env, [&] {
          ASSERT_TRUE(f.fs.Format().ok());
          v.Build(&f.fs);
          v.CacheOnly(&f.fs, &f.cache);
          Cleaner::Options copt;
          copt.poll_interval = 1000 * kSecond;
          auto cleaner = std::make_unique<Cleaner>(&f.env, &f.fs, copt);
          f.env.Spawn("clean", [&] { (void)cleaner->CleanOne(); });
          f.env.SleepFor(kMillisecond);  // the pass is reading its victim
          cleaner.reset();
        });
      },
      "pass in flight");
}

TEST(LfsDeathTest, CleanerLowWaterAtTheReserveDies) {
  LfsFixture f;
  Cleaner::Options copt;
  copt.low_water = Lfs::kCleanerReserveSegments;
  EXPECT_DEATH(Cleaner(&f.env, &f.fs, copt), "low watermark");
}

// The log-economics charges of one kernel-mode pass over LiveVictim's
// victim. /g's kBacklog data blocks lie outside the victim; with
// `dirty_backlog` the pass starts with all of them rewritten but not yet
// flushed, so its drain writes them.
constexpr uint64_t kBacklog = 8;

std::vector<uint64_t> PassCharges(bool dirty_backlog) {
  LfsFixture f(1024);
  LiveVictim v;
  std::unique_ptr<Cleaner> cleaner;  // outlives the simulation
  std::vector<uint64_t> charged(kNumLogByteCats);
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum g = f.fs.Create("/g").value();
    std::string data(kBacklog * kBlockSize, 'g');
    ASSERT_TRUE(f.fs.Write(g, 0, data).ok());
    v.Build(&f.fs);  // syncs /g too
    if (dirty_backlog) {
      ASSERT_TRUE(f.fs.Write(g, 0, data).ok());
    }
    ASSERT_EQ(f.cache.dirty_count(), dirty_backlog ? kBacklog : 0);
    LogEcon* le = f.env.log_econ();
    for (int c = 0; c < kNumLogByteCats; c++) {
      charged[c] = le->blocks(static_cast<LogByteCat>(c));
    }
    Cleaner::Options copt;
    copt.poll_interval = 1000 * kSecond;
    cleaner = std::make_unique<Cleaner>(&f.env, &f.fs, copt);
    ASSERT_TRUE(cleaner->CleanOne().ok());
    EXPECT_EQ(cleaner->stats().live_blocks_copied, v.keep.size());
    for (int c = 0; c < kNumLogByteCats; c++) {
      charged[c] = le->blocks(static_cast<LogByteCat>(c)) - charged[c];
    }
  });
  return charged;
}

TEST(LfsTest, CleaningPassChargesItsDrainToTheWriters) {
  std::vector<uint64_t> quiet = PassCharges(false);
  std::vector<uint64_t> drained = PassCharges(true);
  auto cat = [](const std::vector<uint64_t>& charged, LogByteCat c) {
    return charged[static_cast<int>(c)];
  };
  // With nothing to drain, the pass's payload is all copy-forward.
  EXPECT_EQ(cat(quiet, LogByteCat::kUserData), 0u);
  EXPECT_EQ(cat(quiet, LogByteCat::kInode), 0u);
  EXPECT_GT(cat(quiet, LogByteCat::kCleaner), kBacklog);
  // The drain writes the writer's blocks, charged as its own flush would
  // be: /g's data and the block holding its inode...
  EXPECT_EQ(cat(drained, LogByteCat::kUserData), kBacklog);
  EXPECT_EQ(cat(drained, LogByteCat::kInode), 1u);
  // ...and the cleaner pays for exactly the copy flush it would have
  // written with no backlog at all.
  EXPECT_EQ(cat(drained, LogByteCat::kCleaner),
            cat(quiet, LogByteCat::kCleaner));
}

// Runs one user-space pass with `meddle` spawned beside it; `meddle` acts
// while the pass reads its victim with no locks held.
void UserSpacePassWith(LiveVictim* v,
                       const std::function<void(Lfs*, BufferCache*)>& meddle,
                       Cleaner::CleanerStats* stats) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      v->Build(&fs);
      v->CacheOnly(&fs, &cache);
      Cleaner::Options copt;
      copt.mode = Cleaner::Mode::kUserSpace;
      copt.poll_interval = 1000 * kSecond;
      Cleaner cleaner(&env, &fs, copt);
      bool meddled = false, cleaned = false;
      env.Spawn("meddle", [&] {
        // The pass's first read seeks and rotates for milliseconds.
        env.SleepFor(kMillisecond);
        meddle(&fs, &cache);
        meddled = true;
      });
      env.Spawn("clean", [&] {
        Status s = cleaner.CleanOne();
        EXPECT_TRUE(s.ok()) << s.ToString();
        cleaned = true;
      });
      while (!meddled || !cleaned) env.SleepFor(10 * kMillisecond);
      *stats = cleaner.stats();
      ASSERT_TRUE(fs.Unmount().ok());
    }
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Mount().ok());
    v->Verify(&fs);
  });
  env.Run();
}

TEST(LfsTest, UserSpaceCleanerDropsABlockThatDiesDuringItsRead) {
  LiveVictim v;
  Cleaner::CleanerStats st;
  UserSpacePassWith(
      &v,
      [&](Lfs* fs, BufferCache*) {
        // Overwrite and sync a live block the pass is reading.
        uint64_t lb = v.first_lb + v.keep.front();
        memset(v.expect.data() + lb * kBlockSize, 'n', kBlockSize);
        InodeNum ino = fs->Open("/f").value();
        ASSERT_TRUE(fs->Write(ino, lb * kBlockSize,
                              Slice(v.expect.data() + lb * kBlockSize,
                                    kBlockSize))
                        .ok());
        ASSERT_TRUE(fs->SyncFile(ino).ok());
        ASSERT_TRUE(fs->Close(ino).ok());
      },
      &st);
  EXPECT_EQ(st.blocks_read, v.keep.size() - v.cached.size());
  EXPECT_EQ(st.live_blocks_copied, v.keep.size() - 1);
  EXPECT_EQ(st.segments_cleaned, 1u);
}

TEST(LfsTest, UserSpaceCleanerCopiesABlockEvictedDuringItsRead) {
  LiveVictim v;
  Cleaner::CleanerStats st;
  UserSpacePassWith(
      &v,
      [&](Lfs*, BufferCache* cache) {
        // Drop the clean frames of the cached live block at offset 60 and
        // of every block after it: the pass saw them cached, so only a
        // read after the log lock can copy them.
        cache->DropFile(Inode::DataFileId(v.ino), v.first_lb + 60);
      },
      &st);
  // One request more than the snapshot's runs: offset 60 was cached when
  // the pass looked, so it is read on its own, after the lock.
  EXPECT_EQ(st.blocks_read, v.keep.size() - v.cached.size() + 1);
  EXPECT_EQ(st.read_requests, v.UncachedRuns() + 1);
  EXPECT_EQ(st.live_blocks_copied, v.keep.size());
  EXPECT_EQ(st.segments_cleaned, 1u);
}

// ---- a checkpoint at a segment's end ----

TEST(LfsTest, CheckpointAtASegmentsEndKeepsLaterSyncs) {
  // The write point of a checkpoint taken right after a chunk filled its
  // segment leaves no room for another chunk; the log continues in the
  // successor that chunk's summary named. Try file sizes until the head
  // lands there, then sync a second file and crash.
  bool hit = false;
  for (uint64_t n = 1; n < 400 && !hit; n++) {
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    env.Spawn("test", [&] {
      {
        BufferCache cache(&env, 1024);
        Lfs fs(&env, &disk, &cache);
        cache.set_writeback(&fs);
        ASSERT_TRUE(fs.Format().ok());
        InodeNum a = fs.Create("/a").value();
        ASSERT_TRUE(fs.Write(a, 0, std::string(n * kBlockSize, 'a')).ok());
        ASSERT_TRUE(fs.SyncFile(a).ok());
        ASSERT_TRUE(fs.Checkpoint().ok());
        if (fs.current_offset() + 2 <= fs.segment_blocks()) return;
        hit = true;
        InodeNum b = fs.Create("/b").value();
        ASSERT_TRUE(fs.Write(b, 0, Slice("synced after")).ok());
        ASSERT_TRUE(fs.SyncFile(b).ok());
        // Crash: the checkpoint above is the newest one on disk.
      }
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      EXPECT_GT(fs.recovery_stats().chunks, 0u) << "n = " << n;
      auto b = fs.Open("/b");
      ASSERT_TRUE(b.ok()) << "n = " << n << ": " << b.status().ToString();
      char buf[16] = {0};
      EXPECT_EQ(fs.Read(b.value(), 0, 16, buf).value(), 12u);
      EXPECT_EQ(std::string(buf, 12), "synced after");
      ASSERT_TRUE(fs.Close(b.value()).ok());
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean) << report.value().ToString();
    });
    env.Run();
  }
  EXPECT_TRUE(hit) << "no file size left a checkpoint at a segment's end";
}

TEST(LfsTest, SparseFileReadsZeroes) {
  LfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/sparse").value();
    ASSERT_TRUE(f.fs.Write(ino, 200 * kBlockSize, Slice("tail")).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    char buf[16];
    memset(buf, 0x55, sizeof(buf));
    EXPECT_EQ(f.fs.Read(ino, 100 * kBlockSize, 16, buf).value(), 16u);
    for (char c : buf) EXPECT_EQ(c, 0);
  });
}

}  // namespace
}  // namespace lfstx
