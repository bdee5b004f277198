// Recovery determinism: recovery is a pure function of the platter.
// Mounting the same crashed disk image must produce a byte-identical
// recovered platter, identical recovery.* metrics (including virtual-time
// costs), and an identical online-fsck report — across the fibers and
// threads execution backends and across repeated runs — and the daemons
// that poll during Mount (cleaner, syncer) must not change what it
// recovers. LIBTP's restart, whose redo fetches pages through worker
// processes, obeys the same contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/registry.h"
#include "common/random.h"
#include "harness/machine.h"
#include "harness/rig.h"
#include "tpcb/driver.h"
#include "tpcb/loader.h"

namespace lfstx {
namespace {

/// Seeded workload that leaves a torn final flush on the platter: several
/// sync'd generations of files, then a power cut partway through a flush.
void BuildCrashedImage(SimDisk* base, uint64_t seed) {
  SimEnv* env = base->env();
  Random rng(seed);
  env->Spawn("workload", [&] {
    BufferCache cache(env, 1024);
    Lfs::Options lo;
    lo.checkpoint_every_segments = 3;
    Lfs fs(env, base, &cache, lo);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    for (int round = 0; round < 3; round++) {
      for (int i = 0; i < 12; i++) {
        std::string path = "/f" + std::to_string(rng.Uniform(16));
        std::string contents = rng.Bytes(64 + rng.Uniform(4 * kBlockSize));
        auto r = fs.Open(path);
        if (!r.ok()) r = fs.Create(path);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(fs.Truncate(r.value(), 0).ok());
        ASSERT_TRUE(fs.Write(r.value(), 0, contents).ok());
        ASSERT_TRUE(fs.Close(r.value()).ok());
      }
      ASSERT_TRUE(fs.SyncAll().ok());
    }
    // More dirt, then cut the power mid-flush (torn final write).
    for (int i = 0; i < 8; i++) {
      auto r = fs.Create("/torn" + std::to_string(i));
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(fs.Write(r.value(), 0, rng.Bytes(2 * kBlockSize)).ok());
      ASSERT_TRUE(fs.Close(r.value()).ok());
    }
    base->CrashAfterBlocks(3 + rng.Uniform(30));
    Status s = fs.SyncAll();
    (void)s;
    base->ClearCrash();
  });
  env->Run();
}

void HashBytes(uint64_t* h, const char* p, size_t n) {
  for (size_t i = 0; i < n; i++) {
    *h ^= static_cast<unsigned char>(p[i]);
    *h *= 1099511628211ull;
  }
}

/// Digest of the logical namespace: every path, its type/size, and its
/// contents, walked in directory order. Must run inside a simulated
/// process. Unlike the platter digest this is invariant under recovery
/// *timing* (checkpoint timestamps, segment write times), so it is the
/// right equality for mounts whose daemons write after recovery.
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
      EXPECT_EQ(n.value(), st.size) << path;
      HashBytes(h, buf.data(), n.value());
      ASSERT_TRUE(fs->Close(ino.value()).ok());
    }
  }
}

uint64_t PlatterDigest(const SimDisk& disk) {
  uint64_t h = 14695981039346656037ull;
  std::vector<char> buf(kBlockSize);
  for (uint64_t b = 0; b < disk.num_blocks(); b++) {
    disk.RawRead(b, 1, buf.data());
    for (char c : buf) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Fingerprint {
  uint64_t platter = 0;    ///< raw platter bytes (includes timestamps)
  uint64_t logical = 0;    ///< namespace + contents (timing-invariant)
  std::string metrics;     ///< recovery.* and fsck.* samples, "name=value\n"
  bool checks_clean = false;

  bool operator==(const Fingerprint& o) const {
    return platter == o.platter && logical == o.logical &&
           metrics == o.metrics && checks_clean == o.checks_clean;
  }
};

/// Mount a copy of `base` (running restart recovery), audit every fsck
/// slice once, sweep the invariant checkers, and fingerprint the result.
Fingerprint RecoverOnce(const SimDisk& base, SimBackend backend) {
  Machine::Options mo;
  mo.sim_backend = backend;
  mo.format = false;
  mo.start_syncer = false;   // keep the post-mount platter exactly the
  mo.start_cleaner = false;  // recovered state, no daemon writes
  mo.start_fsck = true;
  mo.fsck.interval = 3600 * kSecond;  // audits driven explicitly below
  auto m = Machine::Build(mo);
  m->disk->CopyContentsFrom(base);
  Fingerprint fp;
  m->env->Spawn("main", [&] {
    ASSERT_TRUE(m->Boot(mo).ok());
    for (int i = 0; i < 64; i++) m->fsck->AuditSlice();
    CheckSummary sweep = RunAllChecks(*m);
    fp.checks_clean = sweep.clean();
    EXPECT_TRUE(fp.checks_clean) << sweep.ToString();
    fp.logical = 14695981039346656037ull;
    LogicalDigest(m->fs.get(), "/", &fp.logical);
  });
  m->env->Run();
  fp.platter = PlatterDigest(*m->disk);
  for (const auto& [name, value] : m->env->metrics()->SampleNumeric()) {
    if (name.rfind("recovery.", 0) == 0 || name.rfind("fsck.", 0) == 0) {
      fp.metrics += name + "=" + std::to_string(value) + "\n";
    }
  }
  return fp;
}

TEST(RecoveryDeterminism, IdenticalAcrossBackendsAndRuns) {
  SimEnv base_env;
  SimDisk base(&base_env, SimDisk::Options{});
  BuildCrashedImage(&base, /*seed=*/4242);

  Fingerprint fibers = RecoverOnce(base, SimBackend::kFibers);
  ASSERT_TRUE(fibers.checks_clean);
  EXPECT_NE(fibers.metrics.find("recovery.total_us"), std::string::npos)
      << "recovery metrics missing:\n" << fibers.metrics;

  // Repeated run, same backend: bit-for-bit identical.
  Fingerprint again = RecoverOnce(base, SimBackend::kFibers);
  EXPECT_TRUE(fibers == again)
      << "repeat run diverged:\n--- first\n" << fibers.metrics
      << "--- second\n" << again.metrics;

  // Threads backend: the execution backend must not change simulation
  // results (SIMULATOR.md contract) — recovered platter, virtual-time
  // recovery costs, and the fsck report all included.
  Fingerprint threads = RecoverOnce(base, SimBackend::kThreads);
  EXPECT_TRUE(fibers == threads)
      << "fibers vs threads diverged:\n--- fibers\n" << fibers.metrics
      << "--- threads\n" << threads.metrics;
}

constexpr SimTime kCleanerPoll = kMillisecond;
constexpr SimTime kSyncInterval = 5 * kMillisecond;

struct DaemonMount {
  uint64_t logical = 0;
  Lfs::RecoveryStats rec;
};

/// Mount a copy of `base`, with or without the cleaner and syncer polling
/// throughout recovery, and digest what the mount recovered.
DaemonMount MountWithDaemons(const SimDisk& base, bool daemons) {
  Machine::Options mo;
  mo.format = false;
  mo.start_syncer = daemons;
  mo.sync_interval = kSyncInterval;
  mo.start_cleaner = daemons;
  mo.cleaner.poll_interval = kCleanerPoll;
  mo.cleaner.low_water = 100000;   // every poll engages...
  mo.cleaner.high_water = 100000;  // ...and keeps cleaning
  auto m = Machine::Build(mo);
  m->disk->CopyContentsFrom(base);
  DaemonMount out;
  m->env->Spawn("main", [&] {
    Status s = m->Boot(mo);
    ASSERT_TRUE(s.ok()) << s.ToString();
    out.rec = m->lfs()->recovery_stats();
    out.logical = 14695981039346656037ull;
    LogicalDigest(m->fs.get(), "/", &out.logical);
  });
  m->env->Run();
  return out;
}

// The cleaner and syncer start with the machine, before Boot mounts the
// file system. A roll-forward that outlasts their poll must still own the
// log. Otherwise a cleaner pass mid-scan appends at the half-recovered
// head: it overwrites synced chunks the scan has not reached yet or, on
// this image, trips the segment writer's log-head GenStamp check.
TEST(RecoveryDeterminism, DaemonsPollingDuringMountChangeNothing) {
  SimEnv base_env;
  SimDisk base(&base_env, SimDisk::Options{});
  BuildCrashedImage(&base, /*seed=*/4242);

  DaemonMount quiet = MountWithDaemons(base, /*daemons=*/false);
  ASSERT_GT(quiet.rec.scan_us, 10 * std::max(kCleanerPoll, kSyncInterval))
      << "roll-forward too short to overlap the daemons' polls";
  DaemonMount busy = MountWithDaemons(base, /*daemons=*/true);
  EXPECT_EQ(busy.rec.chunks, quiet.rec.chunks);
  EXPECT_EQ(busy.rec.payload_blocks, quiet.rec.payload_blocks);
  EXPECT_EQ(busy.logical, quiet.logical)
      << "daemons running during Mount changed the recovered state";
}

/// User-level TPC-B on LFS with a kernel cache and a LIBTP pool far
/// smaller than the account relation, and no daemon writing after restart.
std::unique_ptr<ArchRig> SmallUserLfs(bool format, SimBackend backend) {
  Machine::Options mo;
  mo.format = format;
  mo.sim_backend = backend;
  mo.cache_blocks = 128;
  mo.start_syncer = false;
  mo.start_cleaner = false;
  LibTp::Options lo;
  lo.pool_pages = 16;
  return ArchRig::Create(Arch::kUserLfs, mo, lo);
}

const TpcbConfig kSmallTpcb = TpcbConfig().Scaled(250);  // 4000 accounts

/// Loads TPC-B, runs transactions and copies the platter without a sync:
/// what only the LIBTP pool or the kernel cache held is lost.
void BuildLibTpCrashImage(SimDisk* image) {
  auto rig = SmallUserLfs(/*format=*/true, SimBackend::kFibers);
  Status boot = rig->Run([&] {
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(),
                       kSmallTpcb, /*batch=*/100);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    TpcbDriver driver(rig->backend.get(), &db.value(), kSmallTpcb,
                      /*seed=*/5);
    for (int i = 0; i < 150; i++) ASSERT_TRUE(driver.RunOne().ok());
    image->CopyContentsFrom(*rig->machine->disk);
  });
  ASSERT_TRUE(boot.ok()) << boot.ToString();
}

struct LibTpRestart {
  uint64_t platter = 0;   ///< the recovered platter
  std::string metrics;    ///< recovery.libtp.* samples, "name=value\n"
  SimTime restart_us = 0; ///< virtual time at the end of Recover

  bool operator==(const LibTpRestart& o) const {
    return platter == o.platter && metrics == o.metrics &&
           restart_us == o.restart_us;
  }
};

/// Mounts a copy of `image`, re-registers the relations and runs LIBTP's
/// restart recovery.
LibTpRestart RestartLibTp(const SimDisk& image, SimBackend backend) {
  auto rig = SmallUserLfs(/*format=*/false, backend);
  rig->machine->disk->CopyContentsFrom(image);
  LibTpRestart out;
  SimEnv* env = rig->env();
  env->Spawn("restart", [&] {
    ASSERT_TRUE(rig->machine->Boot(rig->options).ok());
    ASSERT_TRUE(rig->libtp->Open("/txn.log", /*run_recovery=*/false).ok());
    for (const std::string& path :
         {kSmallTpcb.AccountPath(), kSmallTpcb.TellerPath(),
          kSmallTpcb.BranchPath(), kSmallTpcb.HistoryPath()}) {
      ASSERT_TRUE(
          rig->libtp->pool()->RegisterFile(path, /*create=*/false).ok());
    }
    Status s = rig->libtp->Recover();
    ASSERT_TRUE(s.ok()) << s.ToString();
    out.restart_us = env->Now();
  });
  env->Run();
  out.platter = PlatterDigest(*rig->machine->disk);
  for (const auto& [name, value] : env->metrics()->SampleNumeric()) {
    if (name.rfind("recovery.libtp.", 0) == 0) {
      out.metrics += name + "=" + std::to_string(value) + "\n";
    }
  }
  return out;
}

TEST(RecoveryDeterminism, LibTpRestartIdenticalAcrossBackendsAndRuns) {
  SimEnv base_env;
  SimDisk image(&base_env, SimDisk::Options{});
  BuildLibTpCrashImage(&image);

  LibTpRestart first = RestartLibTp(image, SimBackend::kFibers);
  ASSERT_NE(first.metrics.find("recovery.libtp.redo_applied="),
            std::string::npos)
      << first.metrics;
  EXPECT_EQ(first.metrics.find("recovery.libtp.pages=0."),
            std::string::npos)
      << "redo fetched no page:\n" << first.metrics;
  for (SimBackend backend : {SimBackend::kFibers, SimBackend::kThreads}) {
    for (int run = backend == SimBackend::kFibers; run < 2; run++) {
      SCOPED_TRACE(std::string(SimBackendName(backend)) + " run " +
                   std::to_string(run));
      LibTpRestart again = RestartLibTp(image, backend);
      EXPECT_TRUE(again == first)
          << "restart diverged (" << again.restart_us << " vs "
          << first.restart_us << " us):\n--- first\n" << first.metrics
          << "--- again\n" << again.metrics;
    }
  }
}

}  // namespace
}  // namespace lfstx
