// Checkpoint invariants:
//
//   1. Checkpoints taken mid-transaction never capture a state the gens
//      checker rejects: WriteCheckpointLocked holds the flush lock from
//      the capture to the end of the image write (its GenStamp assertion
//      would abort the run on a violation), and the online and offline
//      checks stay clean under a concurrent writer.
//   2. Differential recovery, LFS level: replaying the segment chain from
//      the *older* checkpoint region converges to the same logical state
//      as replaying from the newer one — a checkpoint is an optimization,
//      never a correctness input.
//   3. Differential recovery, LIBTP level: redo from the persisted
//      low-water mark equals redo from the truncation point, and the
//      low-water mark actually skips log.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/registry.h"
#include "common/random.h"
#include "machines.h"
#include "tpcb/driver.h"
#include "tpcb/loader.h"

namespace lfstx {
namespace {

void HashBytes(uint64_t* h, const char* p, size_t n) {
  for (size_t i = 0; i < n; i++) {
    *h ^= static_cast<unsigned char>(p[i]);
    *h *= 1099511628211ull;
  }
}

void LogicalDigest(FileSystem* fs, const std::string& dir, uint64_t* h) {
  std::vector<DirEntry> entries;
  ASSERT_TRUE(fs->ReadDir(dir, &entries).ok()) << dir;
  for (const DirEntry& e : entries) {
    if (e.name == "." || e.name == "..") continue;
    std::string path = dir == "/" ? "/" + e.name : dir + "/" + e.name;
    FileStat st;
    ASSERT_TRUE(fs->Stat(path, &st).ok()) << path;
    HashBytes(h, path.data(), path.size());
    uint64_t meta[2] = {static_cast<uint64_t>(st.type), st.size};
    HashBytes(h, reinterpret_cast<const char*>(meta), sizeof(meta));
    if (st.type == FileType::kDirectory) {
      LogicalDigest(fs, path, h);
    } else {
      auto ino = fs->Open(path);
      ASSERT_TRUE(ino.ok()) << path;
      std::vector<char> buf(st.size + 1);
      auto n = fs->Read(ino.value(), 0, buf.size(), buf.data());
      ASSERT_TRUE(n.ok()) << path;
      HashBytes(h, buf.data(), n.value());
      ASSERT_TRUE(fs->Close(ino.value()).ok());
    }
  }
}

// ---- 1. checkpoints race a live writer ----

TEST(FuzzyCheckpoint, CheckpointsUnderLoadKeepInvariants) {
  Machine::Options mo;
  mo.start_fsck = true;
  mo.fsck.interval = 7 * kMillisecond;
  // Make the checkpointing process the only checkpoint source so the
  // count below measures its checkpoints, not flush-path ones.
  mo.lfs.checkpoint_every_segments = 100000;
  auto m = Machine::Build(mo);
  bool writing = true;
  bool checkpointer_done = false;
  m->env->Spawn("main", [&] {
    ASSERT_TRUE(m->Boot(mo).ok());
    Lfs* lfs = m->lfs();
    const uint64_t at_boot = lfs->lfs_stats().checkpoints;
    m->env->Spawn("checkpointer", [&] {
      while (writing) {
        m->env->SleepFor(20 * kMillisecond);
        EXPECT_TRUE(lfs->Checkpoint().ok());
      }
      checkpointer_done = true;
    });
    auto write = [&] {
      Random rng(7);
      for (int i = 0; i < 120; i++) {
        std::string path = "/w" + std::to_string(rng.Uniform(24));
        auto r = m->fs->Open(path);
        if (!r.ok()) r = m->fs->Create(path);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(m->fs->Write(r.value(), 0,
                                 rng.Bytes(256 + rng.Uniform(kBlockSize)))
                        .ok());
        ASSERT_TRUE(m->fs->Close(r.value()).ok());
        // A checkpoint writes only after the log moved since the last one.
        if (i % 5 == 4) {
          ASSERT_TRUE(m->fs->SyncAll().ok());
        }
        m->env->SleepFor(5 * kMillisecond);
      }
    };
    write();
    writing = false;  // even after a failed assertion, or Run never ends
    while (!checkpointer_done) m->env->SleepFor(kMillisecond);
    ASSERT_TRUE(m->fs->SyncAll().ok());
    EXPECT_GE(lfs->lfs_stats().checkpoints - at_boot, 20u);
    EXPECT_GT(m->fsck->stats().audits, 0u);
    EXPECT_EQ(m->fsck->stats().problems, 0u);
    CheckSummary sweep = RunAllChecks(*m);
    EXPECT_TRUE(sweep.clean()) << sweep.ToString();
  });
  m->env->Run();
}

// ---- 2. LFS differential recovery: older vs newer checkpoint region ----

TEST(FuzzyCheckpoint, ReplayFromOlderCheckpointEqualsNewer) {
  SimEnv base_env;
  SimDisk base(&base_env, SimDisk::Options{});
  base_env.Spawn("workload", [&] {
    BufferCache cache(&base_env, 1024);
    Lfs::Options lo;
    lo.checkpoint_every_segments = 1;  // several checkpoints, both regions
    Lfs fs(&base_env, &base, &cache, lo);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    Random rng(31);
    for (int round = 0; round < 8; round++) {
      for (int i = 0; i < 10; i++) {
        std::string path = "/d" + std::to_string(rng.Uniform(12));
        auto r = fs.Open(path);
        if (!r.ok()) r = fs.Create(path);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(fs.Truncate(r.value(), 0).ok());
        ASSERT_TRUE(
            fs.Write(r.value(), 0, rng.Bytes(128 + rng.Uniform(8 * kBlockSize)))
                .ok());
        ASSERT_TRUE(fs.Close(r.value()).ok());
      }
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    ASSERT_GE(fs.lfs_stats().checkpoints, 2u)
        << "need both checkpoint regions written for the differential";
    // No Unmount: the next mounts roll forward from a checkpoint.
  });
  base_env.Run();

  uint64_t digest[2];
  uint64_t seq[2];
  for (int region = 0; region < 2; region++) {
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    disk.CopyContentsFrom(base);
    env.Spawn("recover", [&] {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      fs.ForceCheckpointRegionForTest(region);
      ASSERT_TRUE(fs.Mount().ok()) << "region " << region;
      seq[region] = fs.recovery_stats().checkpoint_seq;
      CheckContext ctx;
      ctx.env = &env;
      ctx.cache = &cache;
      ctx.lfs = &fs;
      CheckSummary sweep = RunAllChecks(ctx);
      EXPECT_TRUE(sweep.clean()) << "region " << region << ":\n"
                                 << sweep.ToString();
      digest[region] = 14695981039346656037ull;
      LogicalDigest(&fs, "/", &digest[region]);
    });
    env.Run();
  }
  EXPECT_NE(seq[0], seq[1])
      << "both regions held the same checkpoint — differential is vacuous";
  EXPECT_EQ(digest[0], digest[1])
      << "replay from checkpoint " << seq[0] << " and " << seq[1]
      << " recovered different logical states";
}

// ---- 3. LIBTP differential recovery: low-water mark vs full scan ----

TpcbConfig LwmConfig() {
  TpcbConfig c;
  c.accounts = 200;
  c.tellers = 10;
  c.branches = 2;
  return c;
}

uint64_t DigestDb(DbBackend* backend, TpcbDatabase* db) {
  uint64_t h = 14695981039346656037ull;
  auto begin = backend->Begin();
  EXPECT_TRUE(begin.ok());
  if (!begin.ok()) return 0;
  TxnId txn = begin.value();
  Db* keyed[] = {db->accounts.get(), db->tellers.get(), db->branches.get()};
  for (Db* rel : keyed) {
    Status s = rel->Scan(txn, [&](Slice key, Slice val) {
      HashBytes(&h, key.data(), key.size());
      HashBytes(&h, val.data(), val.size());
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  auto count = db->history->RecordCount(txn);
  EXPECT_TRUE(count.ok());
  if (count.ok()) {
    std::string rec;
    for (uint64_t r = 0; r < count.value(); r++) {
      EXPECT_TRUE(db->history->GetRecord(txn, r, &rec).ok());
      HashBytes(&h, rec.data(), rec.size());
    }
  }
  EXPECT_TRUE(backend->Commit(txn).ok());
  return h;
}

TEST(FuzzyCheckpoint, LibtpLwmRecoveryEqualsFullScan) {
  TpcbConfig cfg = LwmConfig();
  std::vector<SimDisk::TraceBlock> trace;
  uint64_t want = 0;

  {
    auto rig = TestRig::Create(Arch::kUserLfs);
    rig->machine->disk->RecordPersistTrace(&trace);
    rig->Run([&] {
      auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), cfg,
                         /*batch=*/100);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      TpcbDriver driver(rig->backend.get(), &db.value(), cfg, /*seed=*/17);
      for (int i = 0; i < 6; i++) ASSERT_TRUE(driver.RunOne().ok());
      // Fuzzy checkpoint with a transaction mid-flight: the low-water
      // mark must cover the live transaction's first record.
      auto t = rig->backend->Begin();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(db.value()
                      .accounts
                      ->Put(t.value(), EncodeKey(3),
                            MakeBalanceRecord(777, cfg.account_record_len))
                      .ok());
      ASSERT_TRUE(rig->libtp->Checkpoint().ok());
      EXPECT_GT(rig->libtp->log()->low_water_lsn(), 0u)
          << "fuzzy checkpoint did not persist a low-water mark";
      EXPECT_LE(rig->libtp->log()->low_water_lsn(),
                rig->libtp->log()->checkpoint_lsn());
      ASSERT_TRUE(rig->backend->Commit(t.value()).ok());
      for (int i = 0; i < 6; i++) ASSERT_TRUE(driver.RunOne().ok());
      want = DigestDb(rig->backend.get(), &db.value());
    });
    rig->machine->disk->RecordPersistTrace(nullptr);
  }

  // Reboot the full platter twice: low-water-mark redo vs. full scan.
  for (int full_scan = 0; full_scan < 2; full_scan++) {
    Machine::Options mo;
    mo.format = false;
    auto rig = TestRig::Create(Arch::kUserLfs, mo);
    for (const auto& tb : trace) {
      rig->machine->disk->RawWrite(tb.addr, 1, tb.data.data());
    }
    rig->env()->Spawn("main", [&] {
      ASSERT_TRUE(rig->machine->Boot(rig->options).ok());
      ASSERT_TRUE(
          rig->libtp->Open("/txn.log", /*run_recovery=*/false).ok());
      for (const std::string& path :
           {cfg.AccountPath(), cfg.TellerPath(), cfg.BranchPath(),
            cfg.HistoryPath()}) {
        ASSERT_TRUE(
            rig->libtp->pool()->RegisterFile(path, /*create=*/false).ok());
      }
      if (full_scan) rig->libtp->log()->IgnoreLwmForTest();
      ASSERT_TRUE(rig->libtp->Recover().ok());
      auto db = OpenTpcb(rig->backend.get(), cfg);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      uint64_t got = DigestDb(rig->backend.get(), &db.value());
      EXPECT_EQ(got, want) << (full_scan ? "full-scan" : "low-water-mark")
                           << " recovery diverged from the pre-crash state";
      double skipped = 0;
      for (const auto& [name, value] :
           rig->env()->metrics()->SampleNumeric()) {
        if (name == "recovery.libtp.skipped_bytes") skipped = value;
      }
      if (full_scan) {
        EXPECT_EQ(skipped, 0) << "IgnoreLwmForTest did not disable the mark";
      } else {
        EXPECT_GT(skipped, 0) << "low-water mark skipped no log at all";
      }
    });
    rig->env()->Run();
  }
}

}  // namespace
}  // namespace lfstx
