// Log manager specifics: base-LSN truncation, scan bounds, torn tails,
// the chunked scan's agreement with ReadRecord, and the split-range diff
// logging.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/checkers.h"
#include "common/random.h"
#include "machines.h"

namespace lfstx {
namespace {

constexpr uint64_t kLogHeaderBytes = 32;  // the log file's header

/// Each record as (LSN, encoded bytes).
using Records = std::vector<std::pair<Lsn, std::string>>;

std::string Encoded(const LogRecord& rec) {
  std::string out;
  rec.AppendTo(&out);
  return out;
}

/// The retained log one ReadRecord at a time, up to `end` or the first
/// record ReadRecord rejects (its status goes to *stop).
Records WalkByReadRecord(LogManager* log, Lsn end, Status* stop) {
  Records out;
  for (Lsn lsn = log->base_lsn(); lsn < end;) {
    auto rec = log->ReadRecord(lsn);
    if (!rec.ok()) {
      *stop = rec.status();
      break;
    }
    out.emplace_back(lsn, Encoded(rec.value()));
    lsn += rec.value().EncodedSize();
  }
  return out;
}

Records ScanAllRecords(LogManager* log) {
  Records out;
  Status s = log->ScanAll([&](Lsn lsn, const LogRecord& rec) {
    out.emplace_back(lsn, Encoded(rec));
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

/// Appends `n` update records of assorted sizes (most straddle a block of
/// the log file), the one at `whole_page` carrying two full page images,
/// and flushes them. Returns their LSNs.
std::vector<Lsn> AppendAssorted(LogManager* log, int n, int whole_page) {
  Random rng(7);
  std::vector<Lsn> lsns;
  for (int i = 0; i < n; i++) {
    LogRecord rec;
    rec.type = LogRecType::kUpdate;
    rec.txn = 1 + i;
    rec.page = i;
    size_t len = i == whole_page ? kBlockSize : 1 + rng.Uniform(900);
    rec.before = rng.Bytes(len);
    rec.after = rng.Bytes(len);
    lsns.push_back(log->Append(rec).value());
  }
  EXPECT_TRUE(log->FlushTo(log->next_lsn() - 1).ok());
  return lsns;
}

/// The first of `lsns` at or after `from` whose record crosses a block
/// boundary of the log file.
size_t FirstStraddler(const LogManager& log, const std::vector<Lsn>& lsns,
                      size_t from) {
  for (size_t i = from; i + 1 < lsns.size(); i++) {
    uint64_t lo = kLogHeaderBytes + lsns[i] - log.base_lsn();
    uint64_t hi = kLogHeaderBytes + lsns[i + 1] - log.base_lsn() - 1;
    if (lo / kBlockSize != hi / kBlockSize) return i;
  }
  return lsns.size();
}

TEST(LogManagerTest, ChunkedScanReturnsWhatReadRecordReturns) {
  for (Arch arch : {Arch::kUserLfs, Arch::kUserFfs}) {  // FFS preallocates
    SCOPED_TRACE(ArchName(arch));
    auto rig = TestRig::Create(arch);
    rig->Run([&] {
      LogManager* log = rig->libtp->log();
      std::vector<Lsn> lsns = AppendAssorted(log, 40, /*whole_page=*/20);
      ASSERT_LT(FirstStraddler(*log, lsns, 0), lsns.size());
      // A fresh manager finds the tail by reading the file in chunks too.
      LogManager fresh(rig->machine->kernel.get());
      ASSERT_TRUE(fresh.Open("/txn.log").ok());
      ASSERT_EQ(fresh.next_lsn(), log->next_lsn());
      Status stop;
      Records want = WalkByReadRecord(&fresh, fresh.next_lsn(), &stop);
      ASSERT_TRUE(stop.ok()) << stop.ToString();
      ASSERT_EQ(want.size(), lsns.size());
      EXPECT_EQ(want[20].second.size(), 56 + 2 * kBlockSize);

      uint64_t syscalls0 = rig->env()->stats().syscalls;
      Records got = ScanAllRecords(&fresh);
      uint64_t reads = rig->env()->stats().syscalls - syscalls0;
      EXPECT_EQ(got, want);
      // One read() per block of the log file, not one per record.
      uint64_t blocks =
          (kLogHeaderBytes + fresh.next_lsn() + kBlockSize - 1) / kBlockSize;
      EXPECT_LE(reads, blocks + 2);
      EXPECT_LT(reads, want.size());

      CheckContext ctx;
      ctx.env = rig->env();
      ctx.log = &fresh;
      auto report = CheckLog(ctx);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report.value().clean) << report.value().ToString();
      EXPECT_EQ(report.value().CounterOr("records"), lsns.size());
    });
  }
}

TEST(LogManagerTest, ChunkedScanStopsAtATornRecordLikeReadRecord) {
  for (Arch arch : {Arch::kUserLfs, Arch::kUserFfs}) {
    SCOPED_TRACE(ArchName(arch));
    auto rig = TestRig::Create(arch);
    rig->Run([&] {
      LogManager* log = rig->libtp->log();
      std::vector<Lsn> lsns = AppendAssorted(log, 24, /*whole_page=*/-1);
      // Tear a record that straddles two chunks, in its second chunk.
      size_t torn = FirstStraddler(*log, lsns, 8);
      ASSERT_LT(torn, lsns.size());
      InodeNum ino = rig->machine->fs->LookupPath("/txn.log").value();
      char junk[4] = {0x13, 0x13, 0x13, 0x13};
      uint64_t last_byte = kLogHeaderBytes + lsns[torn + 1] - 1 -
                           log->base_lsn();
      ASSERT_TRUE(rig->machine->fs->Write(ino, last_byte - 3, Slice(junk, 4))
                      .ok());

      Status stop;
      Records want = WalkByReadRecord(log, log->next_lsn(), &stop);
      EXPECT_TRUE(stop.IsCorruption()) << stop.ToString();
      ASSERT_EQ(want.size(), torn);
      EXPECT_EQ(ScanAllRecords(log), want);  // the scan stops there too
      LogManager fresh(rig->machine->kernel.get());
      ASSERT_TRUE(fresh.Open("/txn.log").ok());
      EXPECT_EQ(fresh.next_lsn(), lsns[torn]);  // and so does Open

      CheckContext ctx;
      ctx.log = log;
      auto report = CheckLog(ctx);
      ASSERT_TRUE(report.ok());
      EXPECT_FALSE(report.value().clean) << "torn record not reported";
    });
  }
}

TEST(LogManagerTest, ChunkedScanStopsAtAPreviousEpochsRecord) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LogManager* log = rig->libtp->log();
    ASSERT_TRUE(log->Truncate().ok());
    std::vector<Lsn> lsns = AppendAssorted(log, 12, /*whole_page=*/-1);
    // Record 5 rewritten in place as the previous epoch would have
    // written it: same bytes, same size, a valid checksum.
    LogRecord stale = log->ReadRecord(lsns[5]).value();
    ASSERT_GT(stale.epoch, 0u);
    stale.epoch--;
    std::string bytes = Encoded(stale);
    ASSERT_EQ(bytes.size(), lsns[6] - lsns[5]);
    InodeNum ino = rig->machine->fs->LookupPath("/txn.log").value();
    ASSERT_TRUE(rig->machine->fs
                    ->Write(ino, kLogHeaderBytes + lsns[5] - log->base_lsn(),
                            bytes)
                    .ok());

    Status stop;
    Records want = WalkByReadRecord(log, log->next_lsn(), &stop);
    EXPECT_TRUE(stop.IsCorruption()) << stop.ToString();
    EXPECT_NE(stop.message().find("previous epoch"), std::string::npos);
    ASSERT_EQ(want.size(), 5u);
    EXPECT_EQ(ScanAllRecords(log), want);
    LogManager fresh(rig->machine->kernel.get());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    EXPECT_EQ(fresh.next_lsn(), lsns[5]);
  });
}

TEST(LogManagerTest, TruncationKeepsLsnsMonotonic) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LogManager* log = rig->libtp->log();
    LogRecord rec;
    rec.type = LogRecType::kUpdate;
    rec.txn = 1;
    rec.before = "b";
    rec.after = "a";
    Lsn first = log->Append(rec).value();
    ASSERT_TRUE(log->FlushTo(first).ok());
    Lsn before_truncate = log->next_lsn();
    ASSERT_TRUE(log->Truncate().ok());
    EXPECT_EQ(log->next_lsn(), before_truncate);  // no going backwards
    Lsn second = log->Append(rec).value();
    EXPECT_GE(second, before_truncate);
    ASSERT_TRUE(log->FlushTo(second).ok());
    // Old records are gone; the new one reads back.
    EXPECT_FALSE(log->ReadRecord(first).ok());
    EXPECT_TRUE(log->ReadRecord(second).ok());
    // Scan sees only post-truncation records.
    int count = 0;
    ASSERT_TRUE(log->ScanAll([&](Lsn, const LogRecord&) {
                     count++;
                     return Status::OK();
                   }).ok());
    EXPECT_EQ(count, 1);
  });
}

TEST(LogManagerTest, TruncationSurvivesReopen) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LogManager* log = rig->libtp->log();
    LogRecord rec;
    rec.type = LogRecType::kCommit;
    rec.txn = 2;
    Lsn lsn = log->Append(rec).value();
    ASSERT_TRUE(log->FlushTo(lsn).ok());
    ASSERT_TRUE(log->Truncate().ok());
    Lsn lsn2 = log->Append(rec).value();
    ASSERT_TRUE(log->FlushTo(lsn2).ok());
    Lsn next = log->next_lsn();

    LogManager fresh(rig->machine->kernel.get());
    ASSERT_TRUE(fresh.Open("/txn.log").ok());
    EXPECT_EQ(fresh.next_lsn(), next);  // base LSN restored from the header
    EXPECT_TRUE(fresh.ReadRecord(lsn2).ok());
  });
}

TEST(LogManagerTest, ScanStopsAtTornTail) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LogManager* log = rig->libtp->log();
    LogRecord rec;
    rec.type = LogRecType::kUpdate;
    rec.txn = 3;
    rec.before = std::string(200, 'b');
    rec.after = std::string(200, 'a');
    Lsn keep = log->Append(rec).value();
    Lsn torn = log->Append(rec).value();
    ASSERT_TRUE(log->FlushTo(torn).ok());
    // Corrupt the second record's payload on disk.
    InodeNum ino = rig->machine->fs->LookupPath("/txn.log").value();
    char junk[8] = {0x13, 0x13, 0x13, 0x13, 0x13, 0x13, 0x13, 0x13};
    ASSERT_TRUE(rig->machine->fs
                    ->Write(ino, 32 + (torn - 0) + 80, Slice(junk, 8))
                    .ok());
    int count = 0;
    Lsn last = kNullLsn;
    ASSERT_TRUE(log->ScanAll([&](Lsn lsn, const LogRecord&) {
                     count++;
                     last = lsn;
                     return Status::OK();
                   }).ok());
    EXPECT_EQ(count, 1);  // the torn record terminates the scan cleanly
    EXPECT_EQ(last, keep);
  });
}

TEST(LogManagerTest, SplitDiffLogsTwoSmallRangesNotOneHuge) {
  auto rig = TestRig::Create(Arch::kUserLfs);
  rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    uint32_t fref = tp->pool()->RegisterFile("/d", true).value();
    TxnId txn = tp->Begin().value();
    auto p = tp->GetPage(txn, fref, 0, LockMode::kExclusive);
    ASSERT_TRUE(p.ok());
    // Touch bytes near both ends of the page (slotted-page pattern).
    p.value()->data[16] = 'A';
    p.value()->data[kBlockSize - 16] = 'Z';
    uint64_t bytes0 = tp->log()->stats().bytes_appended;
    uint64_t recs0 = tp->log()->stats().records;
    ASSERT_TRUE(tp->PutPageDirty(txn, p.value()).ok());
    uint64_t logged = tp->log()->stats().bytes_appended - bytes0;
    EXPECT_EQ(tp->log()->stats().records - recs0, 2u);  // split into two
    EXPECT_LT(logged, 512u);  // nowhere near the 4 KiB span
    ASSERT_TRUE(tp->Commit(txn).ok());
  });
}

}  // namespace
}  // namespace lfstx
