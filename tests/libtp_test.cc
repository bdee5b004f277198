// LIBTP (user-level transaction system) tests: log format, buffer pool,
// WAL rule, commit/abort semantics, group commit, and restart recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "harness/table.h"
#include "libtp/log_record.h"
#include "libtp/page_diff.h"
#include "machines.h"

namespace lfstx {
namespace {

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.type = LogRecType::kUpdate;
  rec.txn = 42;
  rec.prev_lsn = 1234;
  rec.file_ref = 2;
  rec.page = 77;
  rec.offset = 100;
  rec.before = "old-bytes";
  rec.after = "new-bytes!";
  std::string buf;
  rec.AppendTo(&buf);
  EXPECT_EQ(buf.size(), rec.EncodedSize());
  size_t consumed = 0;
  auto r = LogRecord::Decode(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(r.value().txn, 42u);
  EXPECT_EQ(r.value().prev_lsn, 1234u);
  EXPECT_EQ(r.value().before, "old-bytes");
  EXPECT_EQ(r.value().after, "new-bytes!");
}

TEST(LogRecordTest, TornRecordDetected) {
  LogRecord rec;
  rec.type = LogRecType::kUpdate;
  rec.txn = 1;
  rec.before = std::string(100, 'b');
  rec.after = std::string(100, 'a');
  std::string buf;
  rec.AppendTo(&buf);
  size_t consumed;
  // Truncated payload.
  EXPECT_TRUE(LogRecord::Decode(buf.data(), buf.size() - 10, &consumed)
                  .status()
                  .IsCorruption());
  // Flipped byte.
  buf[70] ^= 0x1;
  EXPECT_TRUE(LogRecord::Decode(buf.data(), buf.size(), &consumed)
                  .status()
                  .IsCorruption());
}

// A plain byte-at-a-time diff, kept as the oracle DiffPage must reproduce
// range for range.
PageDiff ByteWiseDiff(const char* before, const char* after) {
  PageDiff out;
  uint32_t lo = sizeof(Lsn), hi = kBlockSize;
  while (lo < kBlockSize && before[lo] == after[lo]) lo++;
  while (hi > lo && before[hi - 1] == after[hi - 1]) hi--;
  if (lo < hi) {
    uint32_t best_start = hi, best_len = 0, run_start = 0, run_len = 0;
    for (uint32_t i = lo; i < hi; i++) {
      if (before[i] == after[i]) {
        if (run_len == 0) run_start = i;
        if (++run_len > best_len) {
          best_len = run_len;
          best_start = run_start;
        }
      } else {
        run_len = 0;
      }
    }
    if (best_len >= 128) {
      out.count = 2;
      out.ranges[0] = {lo, best_start};
      out.ranges[1] = {best_start + best_len, hi};
    } else {
      out.count = 1;
      out.ranges[0] = {lo, hi};
    }
  }
  return out;
}

using Spans = std::vector<std::pair<uint32_t, uint32_t>>;

Spans ToSpans(const PageDiff& d) {
  Spans out;
  for (int i = 0; i < d.count; i++) {
    out.emplace_back(d.ranges[i].lo, d.ranges[i].hi);
  }
  return out;
}

/// DiffPage of `before` against a copy with each listed byte flipped,
/// checked against the oracle before it is returned.
Spans DiffWithFlips(const std::vector<uint32_t>& flips) {
  std::vector<char> before(kBlockSize, 'a'), after(kBlockSize, 'a');
  for (uint32_t at : flips) after[at] = 'b';
  Spans got = ToSpans(DiffPage(before.data(), after.data()));
  EXPECT_EQ(got, ToSpans(ByteWiseDiff(before.data(), after.data())));
  return got;
}

TEST(PageDiffTest, LsnFieldAloneLogsNothing) {
  EXPECT_EQ(DiffWithFlips({}), Spans{});
  EXPECT_EQ(DiffWithFlips({0, 3, 7}), Spans{});
  EXPECT_EQ(DiffWithFlips({0, 7, 8}), (Spans{{8, 9}}));
}

TEST(PageDiffTest, FirstAndLastLoggedBytes) {
  EXPECT_EQ(DiffWithFlips({8}), (Spans{{8, 9}}));
  EXPECT_EQ(DiffWithFlips({kBlockSize - 1}),
            (Spans{{kBlockSize - 1, kBlockSize}}));
  EXPECT_EQ(DiffWithFlips({8, kBlockSize - 1}),
            (Spans{{8, 9}, {kBlockSize - 1, kBlockSize}}));
}

TEST(PageDiffTest, SplitsOnlyAtGapsOfAtLeastMinGap) {
  // Two changed bytes 127, 128 and 129 unchanged bytes apart, at every
  // alignment of the first one.
  for (uint32_t at = 1000; at < 1008; at++) {
    EXPECT_EQ(DiffWithFlips({at, at + 1 + 127}), (Spans{{at, at + 129}}));
    EXPECT_EQ(DiffWithFlips({at, at + 1 + 128}),
              (Spans{{at, at + 1}, {at + 129, at + 130}}));
    EXPECT_EQ(DiffWithFlips({at, at + 1 + 129}),
              (Spans{{at, at + 1}, {at + 130, at + 131}}));
  }
}

TEST(PageDiffTest, EarliestOfEqualGapsWins) {
  for (uint32_t gap : {128u, 200u, 1000u}) {
    for (uint32_t at = 100; at < 108; at++) {
      uint32_t second = at + 1 + gap, third = second + 1 + gap;
      EXPECT_EQ(DiffWithFlips({at, second, third}),
                (Spans{{at, at + 1}, {second, third + 1}}));
    }
  }
  // A strictly longer later gap still beats an earlier one.
  EXPECT_EQ(DiffWithFlips({100, 229, 400}), (Spans{{100, 230}, {400, 401}}));
}

TEST(PageDiffTest, UnalignedBounds) {
  for (uint32_t lo = 2000; lo < 2008; lo++) {
    for (uint32_t hi = 2010; hi < 2018; hi++) {
      // Changes in [lo, hi] with unchanged holes shorter than a word.
      EXPECT_EQ(DiffWithFlips({lo, lo + 3, hi}), (Spans{{lo, hi + 1}}));
    }
  }
}

TEST(PageDiffTest, MatchesByteWiseDiffOnRandomMutations) {
  Random r(4096);
  std::vector<char> before(kBlockSize), after(kBlockSize);
  int split = 0, whole = 0, none = 0;
  for (int page = 0; page < 10000; page++) {
    // Low-entropy images: a rewrite often stores the byte already there,
    // which breaks a change into many short runs.
    uint64_t alphabet = 1 + r.Uniform(4);
    for (char& c : before) c = static_cast<char>(r.Uniform(alphabet));
    after = before;
    uint64_t edits = r.Uniform(6);
    for (uint64_t e = 0; e < edits; e++) {
      uint32_t at = static_cast<uint32_t>(r.Uniform(kBlockSize));
      uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>(1 + r.Uniform(r.Bernoulli(0.5) ? 8 : 300),
                             kBlockSize - at));
      if (r.Bernoulli(0.3)) {
        // Slotted insert: a region slides over by a few bytes.
        uint32_t shift = static_cast<uint32_t>(1 + r.Uniform(16));
        if (at + shift < kBlockSize) {
          memmove(after.data() + at + shift, after.data() + at,
                  std::min(len, kBlockSize - at - shift));
        }
      } else {
        for (uint32_t i = 0; i < len; i++) {
          after[at + i] = static_cast<char>(r.Uniform(alphabet));
        }
      }
    }
    PageDiff got = DiffPage(before.data(), after.data());
    ASSERT_EQ(ToSpans(got), ToSpans(ByteWiseDiff(before.data(), after.data())))
        << "page " << page;
    (got.count == 2 ? split : got.count == 1 ? whole : none)++;
  }
  // The sample exercises every outcome, the split one most of all.
  EXPECT_GT(split, 3000);
  EXPECT_GT(whole, 1000);
  EXPECT_GT(none, 100);
}

TEST(LibTpTest, CommitForcesTheLog) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    auto fref = tp->pool()->RegisterFile("/data", true);
    ASSERT_TRUE(fref.ok());
    TxnId txn = tp->Begin().value();
    auto page = tp->GetPage(txn, fref.value(), 0, LockMode::kExclusive);
    ASSERT_TRUE(page.ok());
    memcpy(page.value()->data + 100, "hello", 5);
    ASSERT_TRUE(tp->PutPageDirty(txn, page.value()).ok());
    Lsn before_commit = tp->log()->durable_lsn();
    ASSERT_TRUE(tp->Commit(txn).ok());
    EXPECT_GT(tp->log()->durable_lsn(), before_commit);
    EXPECT_GE(tp->log()->stats().records, 2u);  // update + commit
  });
}

TEST(LibTpTest, AbortRestoresBeforeImages) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Commit a base value.
    TxnId t1 = tp->Begin().value();
    auto p = tp->GetPage(t1, fref, 3, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 64, "BASE", 4);
    ASSERT_TRUE(tp->PutPageDirty(t1, p.value()).ok());
    ASSERT_TRUE(tp->Commit(t1).ok());
    // Update then abort.
    TxnId t2 = tp->Begin().value();
    p = tp->GetPage(t2, fref, 3, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 64, "EVIL", 4);
    ASSERT_TRUE(tp->PutPageDirty(t2, p.value()).ok());
    ASSERT_TRUE(tp->Abort(t2).ok());
    // Verify.
    TxnId t3 = tp->Begin().value();
    p = tp->GetPage(t3, fref, 3, LockMode::kShared);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(std::string(p.value()->data + 64, 4), "BASE");
    tp->PutPage(p.value());
    ASSERT_TRUE(tp->Commit(t3).ok());
  });
}

// Commits "BASE" at offset 64 of page 3, then aborts a transaction that
// writes "EVIL" there, and returns the page's file ref. The abort's undo
// changes the page without a write pin.
uint32_t CommitBaseThenAbortEvil(LibTp* tp) {
  uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
  TxnId t1 = tp->Begin().value();
  DbPage* p = tp->GetPage(t1, fref, 3, LockMode::kExclusive).value();
  memcpy(p->data + 64, "BASE", 4);
  EXPECT_TRUE(tp->PutPageDirty(t1, p).ok());
  EXPECT_TRUE(tp->Commit(t1).ok());
  TxnId t2 = tp->Begin().value();
  p = tp->GetPage(t2, fref, 3, LockMode::kExclusive).value();
  memcpy(p->data + 64, "EVIL", 4);
  EXPECT_TRUE(tp->PutPageDirty(t2, p).ok());
  EXPECT_TRUE(tp->Abort(t2).ok());
  return fref;
}

std::string ReadPage3(LibTp* tp, uint32_t fref, uint32_t offset) {
  TxnId t = tp->Begin().value();
  DbPage* p = tp->GetPage(t, fref, 3, LockMode::kShared).value();
  std::string got(p->data + offset, 4);
  tp->PutPage(p);
  EXPECT_TRUE(tp->Commit(t).ok());
  return got;
}

TEST(LibTpTest, ASecondAbortOfTheSameUpdateRestoresTheCommittedValue) {
  // The second writer's pre-image is the restored page, not the first
  // writer's: otherwise writing the same bytes again logs nothing, and
  // its abort has nothing to undo.
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = CommitBaseThenAbortEvil(tp);
    TxnId t3 = tp->Begin().value();
    DbPage* p = tp->GetPage(t3, fref, 3, LockMode::kExclusive).value();
    memcpy(p->data + 64, "EVIL", 4);
    ASSERT_TRUE(tp->PutPageDirty(t3, p).ok());
    ASSERT_TRUE(tp->Abort(t3).ok());
    EXPECT_EQ(ReadPage3(tp, fref, 64), "BASE");
  });
}

TEST(LibTpTest, AnAbortAfterAnAbortedUpdateOfTheSamePageKeepsItUndone) {
  // A later writer of other bytes on the page must not log the aborted
  // value as its before-image, or its own abort brings that value back.
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = CommitBaseThenAbortEvil(tp);
    TxnId t3 = tp->Begin().value();
    DbPage* p = tp->GetPage(t3, fref, 3, LockMode::kExclusive).value();
    memcpy(p->data + 1024, "OTHR", 4);
    ASSERT_TRUE(tp->PutPageDirty(t3, p).ok());
    ASSERT_TRUE(tp->Abort(t3).ok());
    EXPECT_EQ(ReadPage3(tp, fref, 64), "BASE");
    EXPECT_EQ(ReadPage3(tp, fref, 1024), std::string(4, '\0'));
  });
}

TEST(LibTpTest, OnlyChangedBytesAreLogged) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    TxnId txn = tp->Begin().value();
    auto p = tp->GetPage(txn, fref, 0, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 2000, "xy", 2);  // touch 2 bytes
    uint64_t bytes_before = tp->log()->stats().bytes_appended;
    ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    uint64_t logged = tp->log()->stats().bytes_appended - bytes_before;
    // Record header + 2 bytes before + 2 bytes after, nowhere near 4 KiB.
    EXPECT_LT(logged, 128u);
    ASSERT_TRUE(tp->Commit(txn).ok());
  });
}

TEST(LibTpTest, WalRuleOnEviction) {
  // A tiny pool forces dirty evictions; the page write must flush the log
  // first, so durable_lsn always covers evicted pages.
  Machine::Options mo;
  auto rig = TestRig::Create(Arch::kUserLfs, mo);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    TxnId txn = tp->Begin().value();
    for (uint64_t pg = 0; pg < 40; pg++) {
      auto p = tp->GetPage(txn, fref, pg, LockMode::kExclusive);
      ASSERT_TRUE(p.ok());
      memcpy(p.value()->data + 500, "dirty", 5);
      ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    }
    ASSERT_TRUE(tp->Commit(txn).ok());
    ASSERT_TRUE(tp->pool()->FlushAll().ok());
    EXPECT_GE(tp->log()->durable_lsn(), tp->log()->next_lsn());
  });
}

TEST(LibTpTest, RecoveryRedoesCommittedWork) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    TxnId txn = tp->Begin().value();
    auto p = tp->GetPage(txn, fref, 1, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 256, "DURABLE", 7);
    ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    ASSERT_TRUE(tp->Commit(txn).ok());
    // "Crash": throw away the user process (pool contents lost) without
    // flushing pages; only the log survives. Then restart LIBTP.
    LibTp fresh(rig->machine->kernel.get());
    ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    TxnId t2 = fresh.Begin().value();
    auto p2 = fresh.GetPage(t2, 0, 1, LockMode::kShared);
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(std::string(p2.value()->data + 256, 7), "DURABLE");
    fresh.PutPage(p2.value());
    ASSERT_TRUE(fresh.Commit(t2).ok());
  });
}

TEST(LibTpTest, RecoveryUndoesLosers) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Commit "GOOD" at page 2.
    TxnId t1 = tp->Begin().value();
    auto p = tp->GetPage(t1, fref, 2, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 128, "GOOD", 4);
    ASSERT_TRUE(tp->PutPageDirty(t1, p.value()).ok());
    ASSERT_TRUE(tp->Commit(t1).ok());
    // A loser overwrites it, and its dirty page even reaches the disk
    // (steal), but it never commits.
    TxnId t2 = tp->Begin().value();
    p = tp->GetPage(t2, fref, 2, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    memcpy(p.value()->data + 128, "LOSE", 4);
    ASSERT_TRUE(tp->PutPageDirty(t2, p.value()).ok());
    ASSERT_TRUE(tp->pool()->FlushAll().ok());  // steal: loser hits disk
    // Crash + restart.
    LibTp fresh(rig->machine->kernel.get());
    ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    TxnId t3 = fresh.Begin().value();
    auto p3 = fresh.GetPage(t3, 0, 2, LockMode::kShared);
    ASSERT_TRUE(p3.ok());
    EXPECT_EQ(std::string(p3.value()->data + 128, 4), "GOOD");
    fresh.PutPage(p3.value());
    ASSERT_TRUE(fresh.Commit(t3).ok());
  });
}

TEST(LibTpTest, ATransactionBegunDuringTheLogTruncateSurvivesACrash) {
  // A checkpoint that finds no transaction running truncates the log. The
  // truncate yields (here: reading the log's indirect block to free its
  // blocks), and a transaction that began then, committed and wrote its
  // records would have them zeroed by the truncate's tail clearing. Begin
  // must wait until the truncated log is durable.
  auto rig = TestRig::Create(Arch::kUserLfs);
  LibTp::Options lo;
  lo.log.preallocate_bytes = 0;
  lo.checkpoint_log_bytes = ~uint64_t{0};  // checkpoints only on request
  rig->libtp = std::make_unique<LibTp>(rig->machine->kernel.get(), lo);
  rig->backend = std::make_unique<LibTpBackend>(rig->libtp.get());
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    FileSystem* fs = rig->machine->fs.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Grow the log past its direct blocks: seven whole-page rewrites log
    // about 8 KiB each.
    TxnId t1 = tp->Begin().value();
    for (uint64_t pg = 0; pg < 7; pg++) {
      auto p = tp->GetPage(t1, fref, pg, LockMode::kExclusive);
      ASSERT_TRUE(p.ok());
      memset(p.value()->data + sizeof(Lsn), static_cast<int>('a' + pg),
             kBlockSize - sizeof(Lsn));
      ASSERT_TRUE(tp->PutPageDirty(t1, p.value()).ok());
    }
    ASSERT_TRUE(tp->Commit(t1).ok());
    ASSERT_TRUE(tp->pool()->FlushAll().ok());
    ASSERT_TRUE(fs->SyncAll().ok());
    // Evict the log's (clean) indirect block so the truncate reads it.
    InodeNum log_ino = fs->LookupPath("/txn.log").value();
    rig->machine->cache->DropFile(Inode::MetaFileId(log_ino));

    uint32_t epoch = tp->log()->epoch();
    bool committed = false;
    rig->env()->Spawn("late", [&] {
      while (tp->log()->epoch() == epoch) {
        rig->env()->SleepFor(100 * kMicrosecond);
      }
      TxnId t2 = tp->Begin().value();
      auto p = tp->GetPage(t2, fref, 9, LockMode::kExclusive);
      ASSERT_TRUE(p.ok());
      memcpy(p.value()->data + 300, "LATE", 4);
      ASSERT_TRUE(tp->PutPageDirty(t2, p.value()).ok());
      ASSERT_TRUE(tp->Commit(t2).ok());
      committed = true;
    });
    ASSERT_TRUE(tp->Checkpoint().ok());
    while (!committed) rig->env()->SleepFor(kMillisecond);
    EXPECT_GT(tp->log()->epoch(), epoch);

    // Crash: the pool's dirty page is lost, so only the log can redo the
    // late commit.
    LibTp fresh(rig->machine->kernel.get(), lo);
    ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    TxnId t3 = fresh.Begin().value();
    auto p3 = fresh.GetPage(t3, 0, 9, LockMode::kShared);
    ASSERT_TRUE(p3.ok());
    EXPECT_EQ(std::string(p3.value()->data + 300, 4), "LATE");
    fresh.PutPage(p3.value());
    ASSERT_TRUE(fresh.Commit(t3).ok());
  });
}

TEST(LibTpTest, ATransactionCommittedDuringACheckpointsFlushSurvivesACrash) {
  // The checkpoint's pool flush waits on the log flush a commit leads, and
  // then on the next one, led by a commit that waited on the first too. A
  // transaction that begins once the checkpoint waits commits in that
  // second flush and is done before the checkpoint decides. No
  // transaction is running then, but the pool flush never wrote the page
  // it dirtied: the log must keep its records.
  auto rig = TestRig::Create(Arch::kUserLfs);
  LibTp::Options lo;
  lo.log.preallocate_bytes = 0;
  lo.checkpoint_log_bytes = ~uint64_t{0};  // checkpoints only on request
  rig->libtp = std::make_unique<LibTp>(rig->machine->kernel.get(), lo);
  rig->backend = std::make_unique<LibTpBackend>(rig->libtp.get());
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    auto update = [&](uint64_t pg, const char* bytes) {
      TxnId t = tp->Begin().value();
      auto p = tp->GetPage(t, fref, pg, LockMode::kExclusive);
      ASSERT_TRUE(p.ok());
      memcpy(p.value()->data + 300, bytes, 4);
      ASSERT_TRUE(tp->PutPageDirty(t, p.value()).ok());
      ASSERT_TRUE(tp->Commit(t).ok());
    };
    update(1, "BASE");
    ASSERT_TRUE(tp->Checkpoint().ok());
    const uint64_t flushes = tp->log()->stats().flushes;
    int done = 0;
    // Leads a log flush.
    rig->env()->Spawn("leader", [&] {
      update(2, "LEAD");
      done++;
    });
    // Commits while the leader's flush is in flight, and leads the next.
    rig->env()->Spawn("next", [&] {
      rig->env()->SleepFor(kMillisecond);
      update(4, "NEXT");
      done++;
    });
    // Begins once the checkpoint is parked on the leader's log flush.
    rig->env()->Spawn("late", [&] {
      rig->env()->SleepFor(8 * kMillisecond);
      update(3, "LATE");
      done++;
    });
    rig->env()->SleepFor(6 * kMillisecond);
    ASSERT_TRUE(tp->Checkpoint().ok());
    // The leader's flush, the next one with the late commit, and the
    // checkpoint record's.
    EXPECT_EQ(tp->log()->stats().flushes - flushes, 3u);
    EXPECT_EQ(done, 3);

    // Crash: the pool's dirty pages are lost.
    LibTp fresh(rig->machine->kernel.get(), lo);
    ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    TxnId t = fresh.Begin().value();
    for (auto [pg, want] : {std::pair<uint64_t, const char*>{2, "LEAD"},
                            {3, "LATE"},
                            {4, "NEXT"}}) {
      auto p = fresh.GetPage(t, 0, pg, LockMode::kShared);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(std::string(p.value()->data + 300, 4), want) << "page " << pg;
      fresh.PutPage(p.value());
    }
    ASSERT_TRUE(fresh.Commit(t).ok());
  });
}

TEST(LibTpTest, GroupCommitBatchesFsyncs) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
    // Four concurrent committers: the first leads a log flush, and the
    // other three wait for it and share the next.
    uint64_t flushes_before = tp->log()->stats().flushes;
    int done = 0;
    for (int i = 0; i < 4; i++) {
      rig->env()->Spawn("c" + std::to_string(i), [&, i] {
        TxnId txn = tp->Begin().value();
        auto p = tp->GetPage(txn, fref, static_cast<uint64_t>(i) + 10,
                             LockMode::kExclusive);
        ASSERT_TRUE(p.ok());
        p.value()->data[900] = static_cast<char>('A' + i);
        ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
        ASSERT_TRUE(tp->Commit(txn).ok());
        done++;
      });
    }
    while (done < 4) rig->env()->SleepFor(kMillisecond);
    uint64_t flushes = tp->log()->stats().flushes - flushes_before;
    EXPECT_LE(flushes, 2u);  // 4 commits, at most 2 fsync batches
  });
}

// ---- Pool and restart, over a database larger than pool and cache ----

constexpr uint64_t kDbPages = 240;        // pages in each database file
constexpr uint32_t kValueOffset = 100;    // where each update writes

/// A small FFS machine: the kernel cache and the LIBTP pool each hold a
/// fraction of one database file, and no syncer writes during restart.
Machine::Options SmallMachine(bool format, SimBackend backend) {
  Machine::Options mo;
  mo.fs = FsKind::kReadOptimized;
  mo.cache_blocks = 64;
  mo.start_syncer = false;
  mo.format = format;
  mo.sim_backend = backend;
  return mo;
}

LibTp::Options SmallPool(size_t pages = 16) {
  LibTp::Options lo;
  lo.pool_pages = pages;
  lo.checkpoint_log_bytes = ~uint64_t{0};  // checkpoints only on request
  return lo;
}

TEST(BufferPoolTest, ConcurrentMissesOfOnePageShareOneFrame) {
  // Two processes miss the same page at once, as shared page locks allow
  // (a B-tree descent takes page 0 and interior pages shared). Both read
  // it; the second must pin the frame the first installed, not free it
  // under the first caller's pin.
  auto rig = ArchRig::Create(
      Arch::kUserFfs, SmallMachine(true, SimBackend::kFibers), SmallPool());
  Status s = rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t ref = tp->pool()->RegisterFile("/db", true).value();
    for (int pg = 0; pg < 200; pg++) {
      ASSERT_TRUE(tp->pool()->AllocPage(ref).ok());
    }
    ASSERT_TRUE(tp->pool()->FlushAll().ok());
    // Page 5 has long left the 64-block kernel cache: a miss reads the disk.
    BufferPool pool(tp->kernel(), tp->log(), 16);
    ASSERT_EQ(pool.RegisterFile("/db", false).value(), 0u);
    DbPage* got[2] = {nullptr, nullptr};
    int done = 0;
    for (int i = 0; i < 2; i++) {
      rig->env()->Spawn("get" + std::to_string(i), [&, i] {
        got[i] = pool.Get(0, 5, false).value();
        done++;
      });
    }
    while (done < 2) rig->env()->SleepFor(kMillisecond);
    EXPECT_EQ(pool.stats().misses, 2u);
    ASSERT_EQ(got[0], got[1]) << "the second miss replaced a pinned frame";
    EXPECT_EQ(got[0]->pins, 2);
    pool.Release(got[0]);
    pool.Release(got[1]);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

/// A copied platter and the idle environment its disk belongs to.
struct Image {
  SimEnv env;
  SimDisk disk{&env, SimDisk::Options{}};
};

/// Commits `value` at kValueOffset of one page in its own transaction.
void CommitValue(LibTp* tp, uint32_t file_ref, uint64_t page,
                 uint64_t value) {
  TxnId t = tp->Begin().value();
  DbPage* p = tp->GetPage(t, file_ref, page, LockMode::kExclusive).value();
  memcpy(p->data + kValueOffset, &value, sizeof(value));
  ASSERT_TRUE(tp->PutPageDirty(t, p).ok());
  ASSERT_TRUE(tp->Commit(t).ok());
}

/// Overwrites kValueOffset of one page and aborts: the update and its CLR
/// reach the log with the next commit.
void AbortValue(LibTp* tp, uint32_t file_ref, uint64_t page) {
  TxnId t = tp->Begin().value();
  DbPage* p = tp->GetPage(t, file_ref, page, LockMode::kExclusive).value();
  memset(p->data + kValueOffset, 0xAB, sizeof(uint64_t));
  ASSERT_TRUE(tp->PutPageDirty(t, p).ok());
  ASSERT_TRUE(tp->Abort(t).ok());
}

/// Creates `files` of kDbPages zeroed pages each, durably, with the log
/// truncated; runs `work` with a pool of `pool_pages`; then copies the
/// platter without a sync, so whatever only the pool or the kernel cache
/// held is lost.
std::unique_ptr<Image> Crash(const std::vector<std::string>& files,
                             const std::function<void(LibTp*)>& work,
                             size_t pool_pages = 16) {
  auto image = std::make_unique<Image>();
  auto rig = ArchRig::Create(Arch::kUserFfs,
                             SmallMachine(true, SimBackend::kFibers),
                             SmallPool(pool_pages));
  Status s = rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    for (const std::string& path : files) {
      uint32_t ref = tp->pool()->RegisterFile(path, true).value();
      for (uint64_t pg = 0; pg < kDbPages; pg++) {
        ASSERT_TRUE(tp->pool()->AllocPage(ref).ok());
      }
    }
    ASSERT_TRUE(tp->Checkpoint().ok());
    work(tp);
    image->disk.CopyContentsFrom(*rig->machine->disk);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return image;
}

struct Restart {
  Status status;
  uint64_t spawned = 0;       ///< processes Recover spawned
  uint64_t pool_gets = 0;     ///< pages Recover asked the pool for
  std::map<std::string, double> libtp;  ///< recovery.libtp.* counters
  std::string disk_trace;     ///< disk events while Recover ran
  std::vector<uint64_t> values;  ///< each page of file 0, after Recover
  bool worker_stragglers = false;  ///< processes ran after Recover returned
};

/// Mounts a copy of `image`, registers `files` and runs Recover.
Restart RestartFrom(const Image& image, const std::vector<std::string>& files,
                    SimBackend backend) {
  auto rig = ArchRig::Create(Arch::kUserFfs, SmallMachine(false, backend),
                             SmallPool());
  rig->machine->disk->CopyContentsFrom(image.disk);
  SimEnv* env = rig->env();
  Restart out;
  env->Spawn("restart", [&] {
    ASSERT_TRUE(rig->machine->Boot(rig->options).ok());
    LibTp* tp = rig->libtp.get();
    ASSERT_TRUE(tp->Open("/txn.log", /*run_recovery=*/false).ok());
    for (const std::string& path : files) {
      ASSERT_TRUE(tp->pool()->RegisterFile(path, /*create=*/false).ok());
    }
    env->tracer()->Enable(TraceCat::kDisk);
    env->tracer()->SetCapture(&out.disk_trace);
    uint64_t spawned0 = env->stats().processes_spawned;
    out.status = tp->Recover();
    out.spawned = env->stats().processes_spawned - spawned0;
    out.pool_gets = tp->pool()->stats().hits + tp->pool()->stats().misses;
    env->tracer()->SetCapture(nullptr);
    env->tracer()->DisableAll();
    // Every worker has exited: none may run once Recover has returned.
    uint64_t switches = env->stats().context_switches;
    env->SleepFor(kSecond);
    out.worker_stragglers = env->stats().context_switches != switches;
    for (const auto& [name, value] : env->metrics()->SampleNumeric()) {
      if (name.rfind("recovery.libtp.", 0) == 0) out.libtp[name] = value;
    }
    if (!out.status.ok()) return;
    for (uint64_t pg = 0; pg < kDbPages; pg++) {
      DbPage* p = tp->pool()->Get(0, pg, false).value();
      uint64_t v = 0;
      memcpy(&v, p->data + kValueOffset, sizeof(v));
      out.values.push_back(v);
      tp->pool()->Release(p);
    }
  });
  env->Run();
  return out;
}

struct RedoModel {
  uint64_t scanned = 0;
  uint64_t applied = 0;
  uint64_t clrs = 0;
  uint64_t pages = 0;  ///< distinct pages the span names
};

/// What redo does with `image`, modelled on its definition: each record
/// from the low-water mark in log order, an update applied when its
/// page's LSN (zero past the end of the file) is at or below the record's.
RedoModel ModelRedo(const Image& image, const std::vector<std::string>& files) {
  auto m = Machine::Build(SmallMachine(false, SimBackend::kFibers));
  m->disk->CopyContentsFrom(image.disk);
  RedoModel out;
  m->env->Spawn("model", [&] {
    ASSERT_TRUE(m->Boot(SmallMachine(false, SimBackend::kFibers)).ok());
    Kernel* k = m->kernel.get();
    LogManager log(k);
    ASSERT_TRUE(log.Open("/txn.log").ok());
    std::vector<InodeNum> inos;
    for (const std::string& path : files) inos.push_back(k->Open(path).value());
    std::map<std::pair<uint32_t, uint64_t>, Lsn> page_lsn;
    Lsn lsn = std::max(log.base_lsn(), log.low_water_lsn());
    while (lsn < log.next_lsn()) {
      LogRecord rec = log.ReadRecord(lsn).value();
      out.scanned++;
      if (rec.type == LogRecType::kUpdate || rec.type == LogRecType::kClr) {
        out.clrs += rec.type == LogRecType::kClr;
        auto [it, fresh] = page_lsn.try_emplace({rec.file_ref, rec.page}, 0);
        if (fresh) {
          ASSERT_TRUE(k->Read(inos[rec.file_ref], rec.page * kBlockSize,
                              sizeof(Lsn), reinterpret_cast<char*>(&it->second))
                          .ok());
        }
        if (it->second <= lsn) {
          out.applied++;
          it->second = lsn + 1;
        }
      }
      lsn += rec.EncodedSize();
    }
    out.pages = page_lsn.size();
  });
  m->env->Run();
  return out;
}

/// The number after `key` in one JSONL trace line, 0 when it is absent.
uint64_t FieldU64(const std::string& line, const char* key) {
  size_t at = line.find(key);
  return at == std::string::npos
             ? 0
             : strtoull(line.c_str() + at + strlen(key), nullptr, 10);
}

/// The most disk reads outstanding at once (queued or in service) in a
/// disk trace.
int MaxReadsInFlight(const std::string& trace) {
  std::vector<std::pair<uint64_t, int>> edges;  // (time, +1 submit/-1 done)
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"io_end\",\"op\":\"read\"") == std::string::npos) {
      continue;
    }
    uint64_t done = FieldU64(line, "\"t\":");
    edges.emplace_back(done - FieldU64(line, "\"latency_us\":"), +1);
    edges.emplace_back(done, -1);
  }
  std::sort(edges.begin(), edges.end());  // completions first on a tie
  int now = 0, most = 0;
  for (const auto& e : edges) most = std::max(most, now += e.second);
  return most;
}

TEST(LibTpTest, RestartRedoesEachPageOnceAndRecoversTheCommittedState) {
  const std::vector<std::string> files = {"/db"};
  std::vector<uint64_t> committed(kDbPages, 0);
  const uint64_t loser_page = 7;
  auto image = Crash(files, [&](LibTp* tp) {
    // A loser whose page reaches the platter (steal) but never commits.
    TxnId t = tp->Begin().value();
    DbPage* p = tp->GetPage(t, 0, loser_page, LockMode::kExclusive).value();
    memset(p->data + kValueOffset, 0xEE, sizeof(uint64_t));
    ASSERT_TRUE(tp->PutPageDirty(t, p).ok());
    ASSERT_TRUE(tp->pool()->FlushAll().ok());
    ASSERT_TRUE(tp->kernel()->Sync().ok());
    Random rng(11);
    for (uint64_t v = 1; v <= 400; v++) {
      uint64_t pg = rng.Uniform(kDbPages);
      if (pg == loser_page) continue;
      // Every eighth page first takes an update that rolls back: its CLR
      // sits in the span between commits to the same page.
      if (v % 8 == 0) AbortValue(tp, 0, pg);
      CommitValue(tp, 0, pg, v);
      committed[pg] = v;
    }
  });
  RedoModel model = ModelRedo(*image, files);
  ASSERT_GT(model.applied, 10u);  // the rest reached the platter first
  ASSERT_GT(model.clrs, 10u);

  Restart r = RestartFrom(*image, files, SimBackend::kFibers);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.values, committed);
  EXPECT_EQ(r.libtp["recovery.libtp.scanned"], model.scanned);
  EXPECT_EQ(r.libtp["recovery.libtp.redo_applied"], model.applied);
  EXPECT_EQ(r.libtp["recovery.libtp.pages"], model.pages);
  EXPECT_EQ(r.libtp["recovery.libtp.losers"], 1);
  // Redo read its pages many at once, through processes that were all
  // gone when Recover returned.
  EXPECT_GT(MaxReadsInFlight(r.disk_trace), 1)
      << "redo read its pages one at a time";
  EXPECT_GT(r.spawned, 0u);
  EXPECT_FALSE(r.worker_stragglers);
}

TEST(LibTpTest, RedoThatDirtiesEveryPageKeepsAPoolFrameFree) {
  // No update reached the platter, so redo dirties every page, and the
  // 16-frame pool writes them back into a kernel cache that soon holds
  // only dirty blocks: each eviction's write-back then waits on the disk
  // with its frame pinned while other workers miss. No worker may find
  // every frame pinned.
  const std::vector<std::string> files = {"/db"};
  std::vector<uint64_t> committed(kDbPages, 0);
  auto image = Crash(
      files,
      [&](LibTp* tp) {
        for (uint64_t pg = 0; pg < kDbPages; pg++) {
          CommitValue(tp, 0, pg, pg + 1);
          committed[pg] = pg + 1;
        }
      },
      /*pool_pages=*/2 * kDbPages);
  RedoModel model = ModelRedo(*image, files);
  ASSERT_EQ(model.applied, kDbPages);

  Restart r = RestartFrom(*image, files, SimBackend::kFibers);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.values, committed);
  EXPECT_EQ(r.libtp["recovery.libtp.redo_applied"], model.applied);
}

TEST(LibTpTest, AnEmptyLogRecoverSpawnsNothingAndCostsOnlyItsCheckpoint) {
  // Restart after a clean checkpoint: redo names no page, so Recover must
  // cost exactly the checkpoint that ends it.
  SimTime took[2] = {0, 0};
  uint64_t spawned[2] = {0, 0};
  for (int recover = 0; recover < 2; recover++) {
    auto rig = TestRig::Create(Arch::kUserFfs);
    rig->Run([&] {
      LibTp* tp = rig->libtp.get();
      uint32_t fref = tp->pool()->RegisterFile("/data", true).value();
      CommitValue(tp, fref, 3, 42);
      ASSERT_TRUE(tp->Checkpoint().ok());  // truncates: the log is empty
      LibTp fresh(rig->machine->kernel.get());
      ASSERT_TRUE(fresh.Open("/txn.log", /*run_recovery=*/false).ok());
      ASSERT_EQ(fresh.log()->next_lsn(), fresh.log()->base_lsn());
      ASSERT_TRUE(fresh.pool()->RegisterFile("/data", false).ok());
      SimEnv* env = rig->env();
      uint64_t spawned0 = env->stats().processes_spawned;
      SimTime t0 = env->Now();
      ASSERT_TRUE((recover ? fresh.Recover() : fresh.Checkpoint()).ok());
      took[recover] = env->Now() - t0;
      spawned[recover] = env->stats().processes_spawned - spawned0;
    });
  }
  EXPECT_GT(took[0], 0u);
  EXPECT_EQ(took[1], took[0]);
  EXPECT_EQ(spawned[1], 0u);
}

TEST(LibTpTest, RedoOfAnUnregisteredFileFailsBeforeAnyPageRead) {
  // The restart registers /a but not /b. The analysis pass meets /b's
  // record before redo fetches a page or starts a worker, and Recover
  // reports the Corruption it always has.
  auto image = Crash({"/a", "/b"}, [&](LibTp* tp) {
    for (uint64_t pg = 0; pg < 10; pg++) CommitValue(tp, 0, pg, pg + 1);
    CommitValue(tp, 1, 0, 1);
    for (uint64_t pg = 10; pg < 20; pg++) CommitValue(tp, 0, pg, pg + 1);
  });
  for (SimBackend backend : {SimBackend::kFibers, SimBackend::kThreads}) {
    SCOPED_TRACE(SimBackendName(backend));
    Restart r = RestartFrom(*image, {"/a"}, backend);
    EXPECT_TRUE(r.status.IsCorruption()) << r.status.ToString();
    EXPECT_NE(r.status.message().find("not re-registered"), std::string::npos)
        << r.status.ToString();
    EXPECT_EQ(r.pool_gets, 0u);
    EXPECT_EQ(r.spawned, 0u);
  }
}

}  // namespace
}  // namespace lfstx
