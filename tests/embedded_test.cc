// Embedded (kernel) transaction manager tests: the section 4 semantics —
// txn syscalls, page locking inside read/write, abort via buffer
// invalidation, commit via forced segment writes, group commit, and
// crash atomicity of commits.
#include <gtest/gtest.h>

#include "machines.h"

namespace lfstx {
namespace {

struct EmbeddedFixture {
  EmbeddedFixture() : rig(TestRig::Create(Arch::kEmbedded)) {}
  std::unique_ptr<TestRig> rig;
  Kernel* kernel() { return rig->machine->kernel.get(); }
  EmbeddedTxnManager* etm() { return rig->etm.get(); }
  SimEnv* env() { return rig->env(); }
};

TEST(EmbeddedTest, TxnSyscallsRequireManager) {
  Machine::Options mo;
  auto machine = Machine::Build(mo);
  machine->env->Spawn("main", [&] {
    ASSERT_TRUE(machine->Boot(mo).ok());
    EXPECT_EQ(machine->kernel->TxnBegin().code(), Code::kNotSupported);
  });
  machine->env->Run();
}

TEST(EmbeddedTest, CommitMakesWritesDurable) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum ino = k->Create("/bank").value();
    ASSERT_TRUE(k->SetTxnProtected("/bank", true).ok());
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("balance=100")).ok());
    ASSERT_TRUE(k->TxnCommit().ok());
    // Committed data is on disk: drop nothing, just verify a re-read.
    char buf[32] = {0};
    EXPECT_EQ(k->Read(ino, 0, 32, buf).value(), 11u);
    EXPECT_EQ(std::string(buf, 11), "balance=100");
    EXPECT_EQ(f.etm()->stats().committed, 1u);
  });
}

TEST(EmbeddedTest, AbortInvalidatesDirtyBuffers) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum ino = k->Create("/bank").value();
    ASSERT_TRUE(k->SetTxnProtected("/bank", true).ok());
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("balance=100")).ok());
    ASSERT_TRUE(k->TxnCommit().ok());

    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("balance=999")).ok());
    ASSERT_TRUE(k->TxnAbort().ok());

    char buf[32] = {0};
    EXPECT_EQ(k->Read(ino, 0, 32, buf).value(), 11u);
    EXPECT_EQ(std::string(buf, 11), "balance=100");
    EXPECT_EQ(f.etm()->stats().aborted, 1u);
  });
}

TEST(EmbeddedTest, AbortRollsBackFileExtension) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum ino = k->Create("/grow").value();
    ASSERT_TRUE(k->SetTxnProtected("/grow", true).ok());
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("base")).ok());
    ASSERT_TRUE(k->TxnCommit().ok());
    FileStat st;
    ASSERT_TRUE(k->Stat("/grow", &st).ok());
    EXPECT_EQ(st.size, 4u);

    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 4, Slice(" plus aborted growth")).ok());
    ASSERT_TRUE(k->TxnAbort().ok());
    ASSERT_TRUE(k->Stat("/grow", &st).ok());
    EXPECT_EQ(st.size, 4u);
  });
}

TEST(EmbeddedTest, UnprotectedFilesIgnoreTransactions) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum ino = k->Create("/plain").value();  // not protected
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("not transactional")).ok());
    ASSERT_TRUE(k->TxnAbort().ok());
    // The abort has no effect on unprotected files.
    char buf[32] = {0};
    EXPECT_EQ(k->Read(ino, 0, 32, buf).value(), 17u);
    EXPECT_EQ(std::string(buf, 17), "not transactional");
  });
}

TEST(EmbeddedTest, OneTransactionPerProcess) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    ASSERT_TRUE(k->TxnBegin().ok());
    EXPECT_EQ(k->TxnBegin().code(), Code::kInvalidArgument);  // restriction 4
    ASSERT_TRUE(k->TxnAbort().ok());
    EXPECT_EQ(k->TxnAbort().code(), Code::kInvalidArgument);
    EXPECT_EQ(k->TxnCommit().code(), Code::kInvalidArgument);
  });
}

TEST(EmbeddedTest, WriteConflictBlocksSecondTransaction) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum ino = k->Create("/shared").value();
    ASSERT_TRUE(k->SetTxnProtected("/shared", true).ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("init")).ok());
    ASSERT_TRUE(k->Sync().ok());

    std::vector<int> order;
    bool t1_done = false, t2_done = false;
    f.env()->Spawn("t1", [&] {
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(ino, 0, Slice("t1-x")).ok());
      f.env()->SleepFor(300 * kMillisecond);  // hold the lock
      order.push_back(1);
      ASSERT_TRUE(k->TxnCommit().ok());
      t1_done = true;
    });
    f.env()->Spawn("t2", [&] {
      f.env()->SleepFor(50 * kMillisecond);
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(ino, 0, Slice("t2-y")).ok());  // blocks on t1
      order.push_back(2);
      ASSERT_TRUE(k->TxnCommit().ok());
      t2_done = true;
    });
    while (!t1_done || !t2_done) f.env()->SleepFor(10 * kMillisecond);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    char buf[8] = {0};
    EXPECT_EQ(k->Read(ino, 0, 4, buf).value(), 4u);
    EXPECT_EQ(std::string(buf, 4), "t2-y");
  });
}

TEST(EmbeddedTest, DeadlockIsDetectedAndReported) {
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum a = k->Create("/a").value();
    InodeNum b = k->Create("/b").value();
    ASSERT_TRUE(k->SetTxnProtected("/a", true).ok());
    ASSERT_TRUE(k->SetTxnProtected("/b", true).ok());
    ASSERT_TRUE(k->Write(a, 0, Slice("A")).ok());
    ASSERT_TRUE(k->Write(b, 0, Slice("B")).ok());
    ASSERT_TRUE(k->Sync().ok());

    bool saw_deadlock = false;
    bool done1 = false, done2 = false;
    f.env()->Spawn("t1", [&] {
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(a, 0, Slice("1")).ok());
      f.env()->SleepFor(100 * kMillisecond);
      Status s = k->Write(b, 0, Slice("1"));
      if (s.IsDeadlock()) {
        saw_deadlock = true;
        ASSERT_TRUE(k->TxnAbort().ok());
      } else {
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(k->TxnCommit().ok());
      }
      done1 = true;
    });
    f.env()->Spawn("t2", [&] {
      ASSERT_TRUE(k->TxnBegin().ok());
      ASSERT_TRUE(k->Write(b, 0, Slice("2")).ok());
      f.env()->SleepFor(100 * kMillisecond);
      Status s = k->Write(a, 0, Slice("2"));
      if (s.IsDeadlock()) {
        saw_deadlock = true;
        ASSERT_TRUE(k->TxnAbort().ok());
      } else {
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE(k->TxnCommit().ok());
      }
      done2 = true;
    });
    while (!done1 || !done2) f.env()->SleepFor(10 * kMillisecond);
    EXPECT_TRUE(saw_deadlock);
    EXPECT_GE(f.etm()->stats().deadlocks, 1u);
  });
}

TEST(EmbeddedTest, GroupCommitBatchesConcurrentCommits) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  EmbeddedTxnManager::Options eo;
  eo.group_commit.timeout = 5 * kMillisecond;
  eo.group_commit.min_txns = 4;
  eo.group_commit.adaptive = true;
  rig->etm = std::make_unique<EmbeddedTxnManager>(rig->machine->env.get(),
                                                  rig->machine->lfs(), eo);
  rig->machine->kernel->AttachTxnManager(rig->etm.get());
  rig->Run([&] {
    Kernel* k = rig->machine->kernel.get();
    std::vector<InodeNum> inos;
    for (int i = 0; i < 4; i++) {
      std::string path = "/gc" + std::to_string(i);
      inos.push_back(k->Create(path).value());
      ASSERT_TRUE(k->SetTxnProtected(path, true).ok());
    }
    ASSERT_TRUE(k->Sync().ok());
    int done = 0;
    for (int i = 0; i < 4; i++) {
      rig->env()->Spawn("c" + std::to_string(i), [&, i] {
        ASSERT_TRUE(k->TxnBegin().ok());
        ASSERT_TRUE(k->Write(inos[static_cast<size_t>(i)], 0,
                             Slice("grouped")).ok());
        ASSERT_TRUE(k->TxnCommit().ok());
        done++;
      });
    }
    while (done < 4) rig->env()->SleepFor(kMillisecond);
    // All four commits shared at most two segment flushes.
    EXPECT_GE(rig->etm->group_commit()->stats().batched, 2u);
  });
}

TEST(EmbeddedTest, CommittedTxnSurvivesCrashUncommittedDoesNot) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 2048);
      Lfs::Options lo;
      lo.checkpoint_every_segments = 1000;  // force roll-forward recovery
      Lfs fs(&env, &disk, &cache, lo);
      cache.set_writeback(&fs);
      Kernel kernel(&env, &fs);
      EmbeddedTxnManager etm(&env, &fs);
      kernel.AttachTxnManager(&etm);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = kernel.Create("/acct").value();
      ASSERT_TRUE(kernel.SetTxnProtected("/acct", true).ok());
      ASSERT_TRUE(kernel.TxnBegin().ok());
      ASSERT_TRUE(kernel.Write(ino, 0, Slice("COMMITTED")).ok());
      ASSERT_TRUE(kernel.TxnCommit().ok());
      // A second transaction writes but crashes before commit completes:
      // its buffers never reach the log at all.
      ASSERT_TRUE(kernel.TxnBegin().ok());
      ASSERT_TRUE(kernel.Write(ino, 0, Slice("UNSTABLE!")).ok());
      // no commit — power fails here
    }
    {
      BufferCache cache(&env, 2048);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      Kernel kernel(&env, &fs);
      ASSERT_TRUE(fs.Mount().ok());
      auto r = kernel.Open("/acct");
      ASSERT_TRUE(r.ok());
      char buf[16] = {0};
      EXPECT_EQ(kernel.Read(r.value(), 0, 16, buf).value(), 9u);
      EXPECT_EQ(std::string(buf, 9), "COMMITTED");
    }
  });
  env.Run();
}

TEST(EmbeddedTest, TornCommitIsAtomicallyDiscarded) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 2048);
      Lfs::Options lo;
      lo.checkpoint_every_segments = 1000;
      Lfs fs(&env, &disk, &cache, lo);
      cache.set_writeback(&fs);
      Kernel kernel(&env, &fs);
      EmbeddedTxnManager etm(&env, &fs);
      kernel.AttachTxnManager(&etm);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = kernel.Create("/acct").value();
      ASSERT_TRUE(kernel.SetTxnProtected("/acct", true).ok());
      ASSERT_TRUE(kernel.TxnBegin().ok());
      std::string big(30 * kBlockSize, 'C');
      ASSERT_TRUE(kernel.Write(ino, 0, big).ok());
      ASSERT_TRUE(kernel.TxnCommit().ok());
      // Second commit tears: power dies 3 blocks into the segment write.
      ASSERT_TRUE(kernel.TxnBegin().ok());
      std::string evil(30 * kBlockSize, 'X');
      ASSERT_TRUE(kernel.Write(ino, 0, evil).ok());
      disk.CrashAfterBlocks(3);
      Status s = kernel.TxnCommit();  // "succeeds", but nothing persisted
      (void)s;
    }
    disk.ClearCrash();
    {
      BufferCache cache(&env, 2048);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      Kernel kernel(&env, &fs);
      ASSERT_TRUE(fs.Mount().ok());
      auto r = kernel.Open("/acct");
      ASSERT_TRUE(r.ok());
      char buf[kBlockSize];
      // Every block shows the first commit; none shows the torn one.
      for (uint64_t b = 0; b < 30; b++) {
        ASSERT_EQ(kernel.Read(r.value(), b * kBlockSize, kBlockSize, buf)
                      .value(),
                  kBlockSize);
        EXPECT_EQ(buf[0], 'C') << b;
        EXPECT_EQ(buf[kBlockSize - 1], 'C') << b;
      }
    }
  });
  env.Run();
}

TEST(EmbeddedTest, WholePagesAreWrittenAtCommit) {
  // Section 4.3: "in the case where only part of a page is modified, the
  // entire page still gets written to disk at commit."
  EmbeddedFixture f;
  f.rig->Run([&] {
    Kernel* k = f.kernel();
    InodeNum ino = k->Create("/partial").value();
    ASSERT_TRUE(k->SetTxnProtected("/partial", true).ok());
    std::string page(kBlockSize, 'p');
    ASSERT_TRUE(k->Write(ino, 0, page).ok());
    ASSERT_TRUE(k->Sync().ok());
    f.rig->machine->disk->ResetStats();
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 100, Slice("xy")).ok());  // 2 bytes
    ASSERT_TRUE(k->TxnCommit().ok());
    // The commit flushed at least the whole 4 KiB page (plus metadata).
    EXPECT_GE(f.rig->machine->disk->stats().blocks_written, 2u);
  });
}

TEST(EmbeddedTest, ACommitToLoggedFilesWritesOnlyTheirDataBlocks) {
  // Each block lands inside an indirect block the log already holds (a
  // single-indirect leaf of /a, a double-indirect child of /b), so the
  // commit changes only pointers: it writes one summary and the two data
  // blocks, and both files' indirect blocks and inodes wait in core.
  const uint64_t kDoubleIndirect = kNumDirect + kPtrsPerBlock;
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("main", [&] {
    BufferCache cache(&env, 2048);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    Kernel kernel(&env, &fs);
    EmbeddedTxnManager etm(&env, &fs);
    kernel.AttachTxnManager(&etm);
    ASSERT_TRUE(fs.Format().ok());
    InodeNum a = kernel.Create("/a").value();
    InodeNum b = kernel.Create("/b").value();
    ASSERT_TRUE(kernel.SetTxnProtected("/a", true).ok());
    ASSERT_TRUE(kernel.SetTxnProtected("/b", true).ok());
    ASSERT_TRUE(kernel.TxnBegin().ok());
    ASSERT_TRUE(kernel.Write(a, 0, std::string(20 * kBlockSize, 'a')).ok());
    ASSERT_TRUE(
        kernel.Write(b, 0, std::string((kDoubleIndirect + 20) * kBlockSize,
                                       'b'))
            .ok());
    ASSERT_TRUE(kernel.TxnCommit().ok());
    // The first commit created the blocks, so it logged both files whole.
    ASSERT_FALSE(fs.GetInode(a).value()->deferred);
    ASSERT_FALSE(fs.GetInode(b).value()->deferred);
    disk.ResetStats();
    ASSERT_TRUE(kernel.TxnBegin().ok());
    ASSERT_TRUE(kernel.Write(a, 15 * kBlockSize, Slice("a15")).ok());
    ASSERT_TRUE(kernel.Write(b, (kDoubleIndirect + 5) * kBlockSize,
                             Slice("b529"))
                    .ok());
    ASSERT_TRUE(kernel.TxnCommit().ok());
    EXPECT_EQ(disk.stats().blocks_written, 3u);
    EXPECT_TRUE(fs.GetInode(a).value()->deferred);
    EXPECT_TRUE(fs.GetInode(b).value()->deferred);
    // The leaves with the new pointers stay dirty: /a's indirect block,
    // /b's double-indirect child.
    EXPECT_EQ(cache.dirty_count(), 2u);
  });
  env.Run();
}

TEST(EmbeddedTest, ACommitThatMakesACheckpointDueWritesOnlyItsDataAndTheMap) {
  // The capture at the end of the commit's flush lists the file and takes
  // its redo record's first chunk as the redo point, so the commit writes
  // its data block, the summary and the dirty inode-map block, and no
  // indirect block or inode; the image follows.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("main", [&] {
    BufferCache cache(&env, 2048);
    Lfs::Options lo;
    lo.checkpoint_every_segments = 1;
    Lfs fs(&env, &disk, &cache, lo);
    cache.set_writeback(&fs);
    Kernel kernel(&env, &fs);
    EmbeddedTxnManager etm(&env, &fs);
    kernel.AttachTxnManager(&etm);
    ASSERT_TRUE(fs.Format().ok());
    InodeNum a = kernel.Create("/a").value();
    ASSERT_TRUE(kernel.SetTxnProtected("/a", true).ok());
    ASSERT_TRUE(kernel.TxnBegin().ok());
    ASSERT_TRUE(kernel.Write(a, 0, std::string(20 * kBlockSize, 'a')).ok());
    ASSERT_TRUE(kernel.TxnCommit().ok());
    // One-block commits defer until one fills the segment.
    LogEcon* econ = env.log_econ();
    for (int i = 0;; i++) {
      ASSERT_LT(i, 200) << "no commit filled the segment";
      const Lfs::LfsStats before = fs.lfs_stats();
      const uint64_t meta = econ->blocks(LogByteCat::kInode);
      const uint64_t imap = econ->blocks(LogByteCat::kImap);
      const uint64_t data = econ->blocks(LogByteCat::kUserData);
      ASSERT_TRUE(kernel.TxnBegin().ok());
      ASSERT_TRUE(kernel.Write(a, (i % 20) * kBlockSize, Slice("x")).ok());
      ASSERT_TRUE(kernel.TxnCommit().ok());
      ASSERT_TRUE(fs.GetInode(a).value()->deferred) << i;
      EXPECT_EQ(econ->blocks(LogByteCat::kInode), meta) << i;
      EXPECT_EQ(econ->blocks(LogByteCat::kUserData), data + 1) << i;
      if (fs.lfs_stats().checkpoints == before.checkpoints) continue;
      EXPECT_EQ(fs.lfs_stats().flushes - before.flushes, 1u);
      EXPECT_EQ(fs.lfs_stats().checkpoint_forced_files, 0u);
      EXPECT_EQ(econ->blocks(LogByteCat::kImap), imap + 1);
      EXPECT_EQ(fs.last_capture().redo_seq,
                fs.GetInode(a).value()->redo_seq);
      // The leaf with the new pointers waits in core.
      EXPECT_EQ(cache.dirty_count(), 1u);
      break;
    }
  });
  env.Run();
}

TEST(EmbeddedTest, AnAbortedAppendsSizeDoesNotSurviveACrash) {
  // A full flush logs the size an open transaction's append grew; the
  // abort puts the old size back, and the next flush must log it.
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("main", [&] {
    {
      BufferCache cache(&env, 2048);
      Lfs::Options lo;
      lo.checkpoint_every_segments = 1000;  // force roll-forward recovery
      Lfs fs(&env, &disk, &cache, lo);
      cache.set_writeback(&fs);
      Kernel kernel(&env, &fs);
      EmbeddedTxnManager etm(&env, &fs);
      kernel.AttachTxnManager(&etm);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = kernel.Create("/grow").value();
      ASSERT_TRUE(kernel.SetTxnProtected("/grow", true).ok());
      ASSERT_TRUE(kernel.TxnBegin().ok());
      ASSERT_TRUE(kernel.Write(ino, 0, Slice("base")).ok());
      ASSERT_TRUE(kernel.TxnCommit().ok());
      ASSERT_TRUE(kernel.TxnBegin().ok());
      ASSERT_TRUE(kernel.Write(ino, 4, Slice(" plus aborted growth")).ok());
      ASSERT_TRUE(kernel.Sync().ok());
      ASSERT_TRUE(kernel.TxnAbort().ok());
      ASSERT_TRUE(kernel.Sync().ok());
      // Crash now: no Unmount.
    }
    BufferCache cache(&env, 2048);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    Kernel kernel(&env, &fs);
    ASSERT_TRUE(fs.Mount().ok());
    FileStat st;
    ASSERT_TRUE(kernel.Stat("/grow", &st).ok());
    EXPECT_EQ(st.size, 4u);
    auto r = kernel.Open("/grow");
    ASSERT_TRUE(r.ok());
    char buf[32] = {0};
    EXPECT_EQ(kernel.Read(r.value(), 0, sizeof(buf), buf).value(), 4u);
    EXPECT_EQ(std::string(buf, 4), "base");
  });
  env.Run();
}

}  // namespace
}  // namespace lfstx
