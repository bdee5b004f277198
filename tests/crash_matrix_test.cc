// Exhaustive crash-point matrix (ISSUE 9): record the per-block persist
// trace of a seeded TPC-B run, then crash at write boundaries by replaying
// a trace prefix into a fresh platter, reboot, recover, and verify
//
//   1. the full invariant sweep (RunAllChecks) is clean,
//   2. the recovered logical database state digests to exactly one of the
//      two oracle states bracketing the crash point — every transaction
//      whose commit returned before the crash is durable, every unfinished
//      or aborted transaction is invisible, and no torn mix of the two.
//
// Because each block of a multi-block request is its own trace entry, a
// prefix that ends mid-request IS a torn write — the same states
// SimDisk::CrashAfterBlocks produces — so the matrix covers torn segment
// chunks, torn checkpoint images, and torn WAL flushes without separate
// plumbing. Runs on both the user-level/LFS and embedded architectures.
//
// By default the matrix runs a stride that still hits every commit
// boundary (the interesting edges) plus evenly spaced interior points;
// LFSTX_CRASH_MATRIX_FULL=1 sweeps every boundary (a step of CI's tier1
// job). A second, file-level sweep crashes at every block boundary after a
// checkpoint whose write point is a segment's end, where roll-forward must
// continue in the successor segment the checkpoint recorded. A third
// crashes at every block boundary of a run of deferred fsyncs (DESIGN.md
// §14) with checkpoints that leave the file deferred and one that writes it
// whole, a cleaning pass whose victim lies in the redo span, and an fsync
// whose chunks cross a segment end among them, and a fourth at every block
// boundary of a run of the embedded manager's deferred commits with the
// same events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "check/registry.h"
#include "common/random.h"
#include "lfs/cleaner.h"
#include "lfs/fsck.h"
#include "lfs/lfs.h"
#include "machines.h"
#include "tpcb/driver.h"
#include "tpcb/loader.h"

namespace lfstx {
namespace {

TpcbConfig MatrixConfig() {
  TpcbConfig c;
  c.accounts = 200;
  c.tellers = 10;
  c.branches = 2;
  return c;
}

constexpr uint64_t kSeed = 99;
constexpr int kTxns = 20;

void HashBytes(uint64_t* h, const char* p, size_t n) {
  for (size_t i = 0; i < n; i++) {
    *h ^= static_cast<unsigned char>(p[i]);
    *h *= 1099511628211ull;  // FNV-1a
  }
}

/// Order-sensitive digest of the four relations' logical contents, read
/// through a (read-only) transaction so both backends serve committed
/// state. Returns 0 only on failure (the hash of real content is never 0
/// in practice; failures also flag through gtest).
uint64_t DigestDb(DbBackend* backend, TpcbDatabase* db) {
  uint64_t h = 14695981039346656037ull;
  auto begin = backend->Begin();
  EXPECT_TRUE(begin.ok()) << begin.status().ToString();
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
  EXPECT_TRUE(count.ok()) << count.status().ToString();
  if (count.ok()) {
    std::string rec;
    for (uint64_t r = 0; r < count.value(); r++) {
      Status s = db->history->GetRecord(txn, r, &rec);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) break;
      HashBytes(&h, rec.data(), rec.size());
    }
  }
  EXPECT_TRUE(backend->Commit(txn).ok());
  return h;
}

/// The oracle: one seeded run from a zeroed platter with every persisted
/// block mirrored into `trace`. boundary[i] is the trace length once
/// transaction i's commit (and the digest scan after it) is durable;
/// digest[i] is the logical state at that point. boundary[0]/digest[0]
/// describe the freshly loaded database.
struct Oracle {
  std::vector<SimDisk::TraceBlock> trace;
  std::vector<size_t> boundary;
  std::vector<uint64_t> digest;
};

void RecordOracle(Arch arch, Oracle* o) {
  auto rig = TestRig::Create(arch);
  rig->machine->disk->RecordPersistTrace(&o->trace);
  TpcbConfig cfg = MatrixConfig();
  rig->Run([&] {
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), cfg,
                       /*batch=*/100);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    TpcbDriver driver(rig->backend.get(), &db.value(), cfg, kSeed);
    Random rng(kSeed ^ 0xabcdef);
    o->digest.push_back(DigestDb(rig->backend.get(), &db.value()));
    o->boundary.push_back(o->trace.size());
    for (int i = 0; i < kTxns; i++) {
      // Aborted-invisible coverage: every third round, scribble on an
      // account inside a transaction that then aborts. Its records reach
      // the platter with the next commit's flush; recovery at any later
      // crash point must keep the update invisible.
      if (i % 3 == 1) {
        auto t = rig->backend->Begin();
        ASSERT_TRUE(t.ok());
        uint64_t acct = rng.Uniform(cfg.accounts);
        Status s = db.value().accounts->Put(
            t.value(), EncodeKey(acct),
            MakeBalanceRecord(-424242, cfg.account_record_len));
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_TRUE(rig->backend->Abort(t.value()).ok());
      }
      ASSERT_TRUE(driver.RunOne().ok()) << "txn " << i;
      o->digest.push_back(DigestDb(rig->backend.get(), &db.value()));
      o->boundary.push_back(o->trace.size());
    }
  });
  rig->machine->disk->RecordPersistTrace(nullptr);
}

/// Materialize the platter as of crash point `k`, reboot a fresh machine
/// over it, run restart recovery, sweep every invariant checker, and
/// digest the recovered database.
uint64_t RecoverAndDigest(Arch arch, const Oracle& o, size_t k) {
  Machine::Options mo;
  mo.format = false;
  auto rig = TestRig::Create(arch, mo);
  for (size_t j = 0; j < k; j++) {
    rig->machine->disk->RawWrite(o.trace[j].addr, 1, o.trace[j].data.data());
  }
  TpcbConfig cfg = MatrixConfig();
  uint64_t digest = 0;
  bool booted = false;
  rig->env()->Spawn("main", [&] {
    Status s = rig->machine->Boot(rig->options);  // LFS roll-forward
    ASSERT_TRUE(s.ok()) << "crash point " << k << ": " << s.ToString();
    if (rig->libtp != nullptr) {
      // Crash-test boot order: open the log without recovering, re-register
      // the database files in creation order (the redo pass resolves
      // file_refs positionally and rebuilds page counts), recover, and only
      // then open the relations — their meta pages may exist solely in the
      // recovered pool.
      ASSERT_TRUE(rig->libtp->Open("/txn.log", /*run_recovery=*/false).ok());
      for (const std::string& path :
           {cfg.AccountPath(), cfg.TellerPath(), cfg.BranchPath(),
            cfg.HistoryPath()}) {
        auto ref = rig->libtp->pool()->RegisterFile(path, /*create=*/false);
        ASSERT_TRUE(ref.ok()) << "crash point " << k << ": " << path << ": "
                              << ref.status().ToString();
      }
      ASSERT_TRUE(rig->libtp->Recover().ok()) << "crash point " << k;
      auto db = OpenTpcb(rig->backend.get(), cfg);
      ASSERT_TRUE(db.ok()) << "crash point " << k << ": "
                           << db.status().ToString();
      booted = true;
      CheckSummary sweep = RunAllChecks(*rig);
      EXPECT_TRUE(sweep.clean())
          << "crash point " << k << ":\n" << sweep.ToString();
      digest = DigestDb(rig->backend.get(), &db.value());
    } else {
      auto db = OpenTpcb(rig->backend.get(), cfg);
      ASSERT_TRUE(db.ok()) << "crash point " << k << ": "
                           << db.status().ToString();
      booted = true;
      CheckSummary sweep = RunAllChecks(*rig);
      EXPECT_TRUE(sweep.clean())
          << "crash point " << k << ":\n" << sweep.ToString();
      digest = DigestDb(rig->backend.get(), &db.value());
    }
  });
  rig->env()->Run();
  EXPECT_TRUE(booted) << "reboot at crash point " << k << " did not finish";
  return digest;
}

// ---- a checkpoint taken at a segment's end ----

/// Persist trace of: format; write and fsync an n-block /a; take a
/// checkpoint; then create and fsync /b0../b3, one at a time. `mark` is the
/// trace length once the checkpoint is durable; synced[i] once /b<i> is.
/// Returns false when the checkpoint's write point left room for a chunk.
bool RecordSegmentEndRun(uint64_t n, std::vector<SimDisk::TraceBlock>* trace,
                         size_t* mark, std::vector<size_t>* synced) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  disk.RecordPersistTrace(trace);
  bool at_end = false;
  env.Spawn("main", [&] {
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    InodeNum a = fs.Create("/a").value();
    ASSERT_TRUE(fs.Write(a, 0, std::string(n * kBlockSize, 'a')).ok());
    ASSERT_TRUE(fs.SyncFile(a).ok());
    ASSERT_TRUE(fs.Checkpoint().ok());
    at_end = fs.current_offset() + 2 > fs.segment_blocks();
    if (!at_end) return;
    *mark = trace->size();
    for (int i = 0; i < 4; i++) {
      std::string name = "/b" + std::to_string(i);
      InodeNum b = fs.Create(name).value();
      ASSERT_TRUE(fs.Write(b, 0, Slice(name)).ok());
      ASSERT_TRUE(fs.SyncFile(b).ok());
      synced->push_back(trace->size());
    }
  });
  env.Run();
  disk.RecordPersistTrace(nullptr);
  return at_end;
}

TEST(CrashMatrixSegmentEnd, EveryBoundaryAfterTheCheckpointKeepsSyncedFiles) {
  std::vector<SimDisk::TraceBlock> trace;
  size_t mark = 0;
  std::vector<size_t> synced;
  uint64_t n = 1;
  for (; n < 400; n++) {
    trace.clear();
    synced.clear();
    if (RecordSegmentEndRun(n, &trace, &mark, &synced)) break;
  }
  ASSERT_LT(n, 400u) << "no file size left a checkpoint at a segment's end";
  ASSERT_EQ(synced.size(), 4u);

  for (size_t k = mark; k <= trace.size(); k++) {
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    for (size_t j = 0; j < k; j++) {
      disk.RawWrite(trace[j].addr, 1, trace[j].data.data());
    }
    env.Spawn("main", [&] {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok()) << "crash point " << k;
      FileStat st;
      ASSERT_TRUE(fs.Stat("/a", &st).ok()) << "crash point " << k;
      EXPECT_EQ(st.size, n * kBlockSize) << "crash point " << k;
      for (size_t i = 0; i < synced.size(); i++) {
        std::string name = "/b" + std::to_string(i);
        auto b = fs.Open(name);
        if (k < synced[i]) continue;  // may or may not have reached the log
        ASSERT_TRUE(b.ok()) << "crash point " << k << ": " << name
                            << " was synced but is gone";
        char buf[8] = {0};
        EXPECT_EQ(fs.Read(b.value(), 0, sizeof(buf), buf).value(),
                  name.size());
        EXPECT_EQ(std::string(buf, name.size()), name);
        ASSERT_TRUE(fs.Close(b.value()).ok());
      }
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean)
          << "crash point " << k << ":\n" << report.value().ToString();
    });
    env.Run();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting segment-end sweep at crash point " << k;
    }
  }
}

// ---- deferred fsyncs around a checkpoint and a cleaning pass ----

/// One file's size and the bytes of its blocks [first, last), as far as
/// its size reaches, as a digest.
uint64_t DigestFile(Lfs* fs, InodeNum ino, uint64_t first = 0,
                    uint64_t last = kMaxFileBlocks) {
  FileStat st;
  if (!fs->StatInode(ino, &st).ok()) return 0;
  uint64_t lo = std::min(first * kBlockSize, st.size);
  uint64_t hi = std::min(last * kBlockSize, st.size);
  std::string bytes(hi - lo, '\0');
  auto n = fs->Read(ino, lo, bytes.size(), bytes.data());
  if (!n.ok() || n.value() != bytes.size()) return 0;
  uint64_t h = 14695981039346656037ull;
  HashBytes(&h, bytes.data(), bytes.size());
  return h ^ st.size;
}

/// Whether a chunk between the last capture's redo point and its head
/// lies in segment `seg`.
bool SpanHolds(const Lfs& fs, uint32_t seg) {
  bool holds = false;
  fs.WalkCaptureSpan(fs.last_capture().head_seq, [&](uint64_t, BlockAddr at) {
    holds |= (at - fs.seg_start()) / fs.segment_blocks() == seg;
  });
  return holds;
}

/// Persist trace of: format; write and fsync a 200-block /a and take a
/// checkpoint; then sixty fsyncs of /a, most of them deferred. After the
/// twentieth a forced checkpoint (Lfs::Checkpoint) leaves /a deferred, and
/// after the twenty-fifth another writes it whole, since its record began
/// before the one before. After the twenty-seventh a two-segment /f is
/// fsynced and removed; after the thirtieth a checkpoint leaves /a deferred
/// again, so its redo span holds /f's empty segment, and after the
/// fortieth a kernel cleaning pass reclaims that segment. After the
/// forty-first a checkpoint leaves /a deferred and a 20-block /b is
/// fsynced twice, deferred by the second; the forty-second fsync overwrites
/// a block of /a, the forty-third writes the first block of /a's
/// double-indirect map, past its end, and overwrites that block again, so it
/// logs /a's inode, and the forty-fourth defers /a again. The checkpoint
/// after it leaves both files deferred, so its redo span starts at /b's
/// record and holds /a's older record and the inode block that superseded
/// it. Every other fsync writes one block (an overwrite, and every fifth an
/// append, inside that map's first child once it exists) except the
/// fiftieth, which overwrites /a's last 64 blocks and appends 64 more: one
/// chunk holds less than a segment, so that fsync's chunks cross a segment
/// end, and /a's new size is part of the record they carry.
/// `boundary[i]` is the trace length once the i-th fsync of /a is
/// durable and `digest[i]` its contents then; the checkpoints, /b, /f and
/// the pass change no contents. `deferred` counts the fsyncs that left /a
/// deferred.
void RecordDeferredRun(std::vector<SimDisk::TraceBlock>* trace,
                       std::vector<size_t>* boundary,
                       std::vector<uint64_t>* digest, uint64_t* deferred) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  disk.RecordPersistTrace(trace);
  env.Spawn("main", [&] {
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    ASSERT_TRUE(fs.Format().ok());
    // Dropped before the Lfs it attaches to, with no pass in flight: the
    // only pass is the CleanOne call below, which returns first.
    auto cleaner = std::make_unique<Cleaner>(&env, &fs, Cleaner::Options{});
    InodeNum a = fs.Create("/a").value();
    Random rng(kSeed);
    ASSERT_TRUE(fs.Write(a, 0, rng.Bytes(200 * kBlockSize)).ok());
    ASSERT_TRUE(fs.SyncFile(a).ok());
    // The inode map is clean from here on: only deferred fsyncs follow.
    ASSERT_TRUE(fs.Checkpoint().ok());
    auto synced = [&] {
      boundary->push_back(trace->size());
      digest->push_back(DigestFile(&fs, a));
    };
    synced();
    uint64_t blocks = 200;
    uint32_t emptied = 0;  // /f's segment
    InodeNum b = kInvalidInode;
    for (int i = 0; i < 60; i++) {
      uint64_t chunks = fs.lfs_stats().partial_segments;
      const uint64_t size = fs.GetInode(a).value()->d.size;
      if (i == 50) {
        const uint64_t n = fs.segment_blocks();
        ASSERT_TRUE(fs.Write(a, (blocks - n / 2) * kBlockSize,
                             rng.Bytes(n * kBlockSize))
                        .ok());
        blocks += n / 2;
      } else if (i == 43) {
        // A new indirect block is an attribute change: this fsync logs
        // /a's inode, with the block the fsync before wrote rewritten. The
        // appends after it stay inside the double-indirect child it starts.
        blocks = kNumDirect + kPtrsPerBlock;
        ASSERT_TRUE(
            fs.Write(a, blocks++ * kBlockSize, rng.Bytes(kBlockSize)).ok());
        ASSERT_TRUE(fs.Write(a, (42 * 3 % 200) * kBlockSize,
                             rng.Bytes(kBlockSize))
                        .ok());
      } else {
        uint64_t lb =
            i % 5 == 4 ? blocks++ : (static_cast<uint64_t>(i) * 3) % 200;
        ASSERT_TRUE(fs.Write(a, lb * kBlockSize, rng.Bytes(kBlockSize)).ok());
      }
      ASSERT_TRUE(fs.SyncFile(a).ok());
      if (fs.GetInode(a).value()->deferred) ++*deferred;
      if (i == 43 || i == 44) {
        ASSERT_EQ(fs.GetInode(a).value()->deferred, i == 44);
      }
      if (i == 50) {
        ASSERT_TRUE(fs.GetInode(a).value()->deferred);
        ASSERT_GE(fs.lfs_stats().partial_segments - chunks, 2u);
        ASSERT_EQ(fs.GetInode(a).value()->d.size,
                  size + fs.segment_blocks() / 2 * kBlockSize);
      }
      synced();
      if (i == 41) {
        b = fs.Create("/b").value();
        ASSERT_TRUE(fs.Write(b, 0, rng.Bytes(20 * kBlockSize)).ok());
        ASSERT_TRUE(fs.SyncFile(b).ok());
      }
      if (i == 20 || i == 25 || i == 30 || i == 41 || i == 44) {
        const uint64_t forced = fs.lfs_stats().checkpoint_forced_files;
        ASSERT_TRUE(fs.Checkpoint().ok());
        ASSERT_EQ(fs.GetInode(a).value()->deferred, i != 25);
        ASSERT_EQ(fs.lfs_stats().checkpoint_forced_files - forced,
                  i == 25 ? 1u : 0u);
      }
      if (i == 41) {
        // /b's record starts after the capture, before /a's next one.
        ASSERT_TRUE(fs.Write(b, 0, rng.Bytes(kBlockSize)).ok());
        ASSERT_TRUE(fs.SyncFile(b).ok());
        ASSERT_TRUE(fs.GetInode(b).value()->deferred);
      }
      if (i == 44) {
        ASSERT_TRUE(fs.GetInode(b).value()->deferred);
        ASSERT_EQ(fs.last_capture().redo_seq,
                  fs.GetInode(b).value()->redo_seq);
      }
      if (i == 27) {
        // /f fills the segment after this one alone.
        const uint32_t seg = fs.current_segment();
        InodeNum f = fs.Create("/f").value();
        ASSERT_TRUE(
            fs.Write(f, 0,
                     std::string(2 * fs.segment_blocks() * kBlockSize, 'f'))
                .ok());
        ASSERT_TRUE(fs.SyncFile(f).ok());
        ASSERT_GE(fs.current_segment(), seg + 2);
        emptied = seg + 1;
        ASSERT_TRUE(fs.Close(f).ok());
        ASSERT_TRUE(fs.Remove("/f").ok());
      }
      if (i == 40) {
        // The victim lies between the durable image's redo point and its
        // head.
        ASSERT_EQ(fs.usage().PickVictim().value(), emptied);
        ASSERT_TRUE(SpanHolds(fs, emptied));
        ASSERT_TRUE(cleaner->CleanOne().ok());
        ASSERT_EQ(cleaner->stats().segments_cleaned, 1u);
        ASSERT_EQ(fs.usage().state(emptied), SegState::kClean);
      }
    }
  });
  env.Run();
  disk.RecordPersistTrace(nullptr);
}

/// Crashes at every block boundary from `boundary.front()` to the end of
/// `trace`: replays the prefix onto a fresh platter, mounts it, and
/// requires `digest_of` to read one of the two states `digest` brackets
/// the point with (`boundary[i]` is where state i is durable) and
/// `CheckLfs` to come back clean. `what` names a step of the run. Returns
/// how many of the mounts read a redo span before their image's head.
uint64_t SweepEveryBoundary(const std::vector<SimDisk::TraceBlock>& trace,
                        const std::vector<size_t>& boundary,
                        const std::vector<uint64_t>& digest,
                        const char* what,
                        const std::function<uint64_t(Lfs*)>& digest_of) {
  uint64_t spans = 0;
  for (size_t k = boundary.front(); k <= trace.size(); k++) {
    // j = last state durable at or before k; the one after may be too.
    size_t j = static_cast<size_t>(std::upper_bound(boundary.begin(),
                                                    boundary.end(), k) -
                                   boundary.begin()) -
               1;
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    for (size_t b = 0; b < k; b++) {
      disk.RawWrite(trace[b].addr, 1, trace[b].data.data());
    }
    env.Spawn("main", [&] {
      BufferCache cache(&env, 1024);
      Lfs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok()) << "crash point " << k;
      if (fs.recovery_stats().redo_chunks > 0) spans++;
      uint64_t got = digest_of(&fs);
      EXPECT_TRUE(got == digest[j] ||
                  (j + 1 < digest.size() && got == digest[j + 1]))
          << "crash point " << k << " (after " << what << " " << j
          << "): the files match neither bracketing state";
      auto report = CheckLfs(&fs);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean)
          << "crash point " << k << ":\n" << report.value().ToString();
    });
    env.Run();
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "aborting the " << what << " sweep at crash point "
                    << k;
      break;
    }
  }
  return spans;
}

/// The digest of the file at `path`, 0 if it cannot be opened.
uint64_t DigestPath(Lfs* fs, const char* path) {
  auto f = fs->Open(path);
  EXPECT_TRUE(f.ok()) << path;
  if (!f.ok()) return 0;
  uint64_t h = DigestFile(fs, f.value());
  EXPECT_TRUE(fs->Close(f.value()).ok());
  return h;
}

TEST(CrashMatrixDeferred, EveryBoundaryRecoversAnFsyncedState) {
  std::vector<SimDisk::TraceBlock> trace;
  std::vector<size_t> boundary;
  std::vector<uint64_t> digest;
  uint64_t deferred = 0;
  RecordDeferredRun(&trace, &boundary, &digest, &deferred);
  ASSERT_EQ(boundary.size(), 61u);
  EXPECT_GT(deferred, 50u);  // the run exercises the deferred path
  EXPECT_GT(SweepEveryBoundary(trace, boundary, digest, "fsync",
                               [](Lfs* fs) { return DigestPath(fs, "/a"); }),
            0u);
}

// ---- deferred commits of the embedded manager ----

// /a's blocks below this are a hole in RecordDeferredCommitRun, except for
// its first 20.
constexpr uint64_t kCommitHoleEnd = 900;

/// The contents of RecordDeferredCommitRun's two files, as one digest.
uint64_t DigestCommitted(Lfs* fs, InodeNum a, InodeNum b) {
  uint64_t h = DigestFile(fs, a, 0, 20);
  h = h * 1099511628211ull ^ DigestFile(fs, a, kCommitHoleEnd);
  return h * 1099511628211ull ^ DigestFile(fs, b);
}

/// Persist trace of: format, with a periodic checkpoint every two segments;
/// one commit that writes a sparse /a (blocks 0-19, and the last 15 of its
/// first double-indirect child) and a 20-block /b, both
/// transaction-protected; a sync and a checkpoint; then sixty commits, most
/// of them deferred. After the twentieth a forced checkpoint
/// (Lfs::Checkpoint) leaves both files deferred, and after the twenty-fifth
/// another writes them whole, their records having begun before the one
/// before. The twenty-seventh also writes a two-segment /f, which is then
/// removed: its periodic checkpoint leaves /a and /b deferred, so the redo
/// span holds /f's empty segment, and a kernel cleaning pass after the
/// fortieth reclaims that segment. Each commit overwrites one block of /b
/// and one of /a, except that every fifth appends to /a and overwrites
/// again the block the commit before wrote: /a's double-indirect map grows,
/// and the sixth append starts its second child, so that commit logs /a's
/// inode over the record of the commit before. The fiftieth and the
/// fifty-fifth overwrite /a's last 64 blocks and append 64 more, so their
/// chunks cross a segment end and carry /a's new size; the fiftieth also
/// makes the periodic checkpoint due. After the forty-first a forced
/// checkpoint leaves both files deferred. The forty-second starts /b's
/// double-indirect map, so it logs /b's inode, and /b's next record starts
/// with the forty-third, which overwrites a block of /a no later commit
/// writes. The forty-fourth's append skips a hole to the first block of
/// /a's third double-indirect child and it overwrites that block again, so
/// it logs /a's inode; the appends after it stay inside that child, and the
/// forty-fifth defers /a again. The fiftieth's periodic checkpoint leaves
/// both deferred, so its redo span starts at /b's record and holds /a's
/// older record and the inode block that superseded it.
/// `boundary[i]` is the trace length once the i-th commit returned and
/// `digest[i]` the files' contents then; the checkpoints, /f and the pass
/// change no contents. `deferred` counts the commits that left both files
/// deferred.
void RecordDeferredCommitRun(std::vector<SimDisk::TraceBlock>* trace,
                             std::vector<size_t>* boundary,
                             std::vector<uint64_t>* digest,
                             uint64_t* deferred) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  disk.RecordPersistTrace(trace);
  env.Spawn("main", [&] {
    BufferCache cache(&env, 1024);
    Lfs::Options lo;
    lo.checkpoint_every_segments = 2;
    Lfs fs(&env, &disk, &cache, lo);
    cache.set_writeback(&fs);
    Kernel kernel(&env, &fs);
    EmbeddedTxnManager etm(&env, &fs);
    kernel.AttachTxnManager(&etm);
    ASSERT_TRUE(fs.Format().ok());
    // Dropped before the Lfs it attaches to, with no pass in flight: the
    // only pass is the CleanOne call below, which returns first.
    auto cleaner = std::make_unique<Cleaner>(&env, &fs, Cleaner::Options{});
    InodeNum a = kernel.Create("/a").value();
    InodeNum b = kernel.Create("/b").value();
    ASSERT_TRUE(kernel.SetTxnProtected("/a", true).ok());
    ASSERT_TRUE(kernel.SetTxnProtected("/b", true).ok());
    Random rng(kSeed);
    auto write = [&](InodeNum f, uint64_t lb, uint64_t n) {
      ASSERT_TRUE(kernel.Write(f, lb * kBlockSize, rng.Bytes(n * kBlockSize))
                      .ok());
    };
    // /a's size in blocks: five short of its second double-indirect child.
    uint64_t blocks = kNumDirect + 2 * kPtrsPerBlock - 5;
    ASSERT_TRUE(kernel.TxnBegin().ok());
    write(a, 0, 20);
    write(a, blocks - 15, 15);
    write(b, 0, 20);
    ASSERT_TRUE(kernel.TxnCommit().ok());
    ASSERT_TRUE(kernel.Sync().ok());
    ASSERT_TRUE(fs.Checkpoint().ok());
    auto committed = [&] {
      boundary->push_back(trace->size());
      digest->push_back(DigestCommitted(&fs, a, b));
    };
    committed();
    uint64_t last = 0;  // the block of /a the commit before overwrote
    uint32_t emptied = 0;  // /f's segment
    for (int i = 0; i < 60; i++) {
      uint64_t chunks = fs.lfs_stats().partial_segments;
      const uint64_t size = fs.GetInode(a).value()->d.size;
      const uint32_t seg = fs.current_segment();
      InodeNum f = kInvalidInode;
      if (i == 27) f = kernel.Create("/f").value();
      ASSERT_TRUE(kernel.TxnBegin().ok());
      if (i == 27) {
        ASSERT_TRUE(kernel
                        .Write(f, 0,
                               std::string(
                                   2 * fs.segment_blocks() * kBlockSize, 'f'))
                        .ok());
      }
      if (i == 50 || i == 55) {
        const uint64_t n = fs.segment_blocks();
        write(a, blocks - n / 2, n);
        blocks += n / 2;
      } else if (i % 5 == 4) {
        // The forty-fourth's new child is an attribute change.
        if (i == 44) blocks = kNumDirect + 3 * kPtrsPerBlock;
        write(a, blocks++, 1);
        write(a, last, 1);
      } else {
        // The forty-third's block is one no later commit writes.
        last = i == 43      ? 19
               : i % 2 == 0 ? (i * 3) % 20
                            : blocks - 1 - i % 10;
        write(a, last, 1);
      }
      write(b, (i * 7) % 20, 1);
      if (i == 42) write(b, kNumDirect + kPtrsPerBlock, 1);
      uint64_t checkpoints = fs.lfs_stats().checkpoints;
      ASSERT_TRUE(kernel.TxnCommit().ok());
      const bool a_deferred = fs.GetInode(a).value()->deferred;
      const bool b_deferred = fs.GetInode(b).value()->deferred;
      if (a_deferred && b_deferred) ++*deferred;
      if (i >= 41 && i <= 45) {
        ASSERT_EQ(a_deferred, i != 44);
        ASSERT_EQ(b_deferred, i != 42);
      }
      if (i == 27 || i == 50 || i == 55) {
        ASSERT_GE(fs.lfs_stats().partial_segments - chunks, 2u);
        // The twenty-seventh and the fiftieth make the periodic checkpoint
        // due; the files stay deferred across it, their records having
        // begun after the capture before.
        ASSERT_EQ(fs.lfs_stats().checkpoints - checkpoints,
                  i == 55 ? 0u : 1u);
        ASSERT_TRUE(a_deferred && b_deferred);
      }
      if (i == 50 || i == 55) {
        ASSERT_EQ(fs.GetInode(a).value()->d.size,
                  size + fs.segment_blocks() / 2 * kBlockSize);
      }
      committed();
      if (i == 20 || i == 25 || i == 41) {
        const uint64_t forced = fs.lfs_stats().checkpoint_forced_files;
        ASSERT_TRUE(fs.Checkpoint().ok());
        ASSERT_EQ(fs.GetInode(a).value()->deferred, i != 25);
        ASSERT_EQ(fs.GetInode(b).value()->deferred, i != 25);
        ASSERT_EQ(fs.lfs_stats().checkpoint_forced_files - forced,
                  i == 25 ? 2u : 0u);
      }
      if (i == 50) {
        ASSERT_EQ(fs.last_capture().redo_seq,
                  fs.GetInode(b).value()->redo_seq);
      }
      if (i == 27) {
        // /f filled the segment after `seg` alone.
        ASSERT_GE(fs.current_segment(), seg + 2);
        emptied = seg + 1;
        ASSERT_TRUE(kernel.Close(f).ok());
        ASSERT_TRUE(kernel.Remove("/f").ok());
      }
      if (i == 40) {
        // The victim lies between the durable image's redo point and its
        // head.
        ASSERT_EQ(fs.usage().PickVictim().value(), emptied);
        ASSERT_TRUE(SpanHolds(fs, emptied));
        ASSERT_TRUE(cleaner->CleanOne().ok());
        ASSERT_EQ(cleaner->stats().segments_cleaned, 1u);
        ASSERT_EQ(fs.usage().state(emptied), SegState::kClean);
      }
    }
  });
  env.Run();
  disk.RecordPersistTrace(nullptr);
}

TEST(CrashMatrixDeferredCommits, EveryBoundaryRecoversACommittedState) {
  std::vector<SimDisk::TraceBlock> trace;
  std::vector<size_t> boundary;
  std::vector<uint64_t> digest;
  uint64_t deferred = 0;
  RecordDeferredCommitRun(&trace, &boundary, &digest, &deferred);
  ASSERT_EQ(boundary.size(), 61u);
  EXPECT_GT(deferred, 50u);  // the run exercises the deferred path
  EXPECT_GT(SweepEveryBoundary(trace, boundary, digest, "commit",
                               [](Lfs* fs) {
                                 auto a = fs->Open("/a");
                                 auto b = fs->Open("/b");
                                 EXPECT_TRUE(a.ok() && b.ok());
                                 return a.ok() && b.ok()
                                            ? DigestCommitted(fs, a.value(),
                                                              b.value())
                                            : 0;
                               }),
            0u);
}

class CrashMatrix : public ::testing::TestWithParam<Arch> {};

TEST_P(CrashMatrix, EveryWriteBoundaryRecoversToACommittedState) {
  const Arch arch = GetParam();
  Oracle o;
  RecordOracle(arch, &o);
  ASSERT_EQ(o.boundary.size(), static_cast<size_t>(kTxns) + 1);
  ASSERT_GT(o.trace.size(), o.boundary.front());

  // Crash points: the region from "database loaded" to end-of-run.
  const size_t lo = o.boundary.front();
  const size_t hi = o.trace.size();
  const bool full = [] {
    const char* e = getenv("LFSTX_CRASH_MATRIX_FULL");
    return e != nullptr && e[0] != '\0' && e[0] != '0';
  }();
  std::set<size_t> points;
  if (full) {
    for (size_t k = lo; k <= hi; k++) points.insert(k);
  } else {
    // Every commit boundary and its immediate neighbours (the edges where
    // a commit record is half-durable), plus evenly spaced interior
    // points.
    for (size_t b : o.boundary) {
      if (b > lo) points.insert(b - 1);
      points.insert(b);
      points.insert(std::min(b + 1, hi));
    }
    size_t stride = std::max<size_t>(1, (hi - lo) / 32);
    for (size_t k = lo; k <= hi; k += stride) points.insert(k);
    points.insert(hi);
  }

  for (size_t k : points) {
    // j = last oracle state fully durable at or before k.
    size_t j =
        static_cast<size_t>(std::upper_bound(o.boundary.begin(),
                                             o.boundary.end(), k) -
                            o.boundary.begin()) -
        1;
    uint64_t got = RecoverAndDigest(arch, o, k);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting matrix sweep at crash point " << k;
    }
    bool match = got == o.digest[j] ||
                 (j + 1 < o.digest.size() && got == o.digest[j + 1]);
    EXPECT_TRUE(match) << "crash point " << k << " (between commits " << j
                       << " and " << j + 1
                       << "): recovered state matches neither bracketing "
                          "committed state — digest "
                       << got << ", expected " << o.digest[j] << " or "
                       << (j + 1 < o.digest.size() ? o.digest[j + 1] : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothArchitectures, CrashMatrix,
                         ::testing::Values(Arch::kUserLfs, Arch::kEmbedded),
                         [](const ::testing::TestParamInfo<Arch>& info) {
                           return info.param == Arch::kUserLfs ? "UserLfs"
                                                               : "Embedded";
                         });

}  // namespace
}  // namespace lfstx
