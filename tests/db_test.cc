// Access-method tests, parameterized over all three architecture rigs so
// the same behaviours hold under LIBTP (FFS and LFS) and the embedded
// kernel transaction manager.
#include <gtest/gtest.h>

#include "common/random.h"
#include "db/btree.h"
#include "db/page.h"
#include "harness/table.h"
#include "machines.h"
#include "tpcb/schema.h"

namespace lfstx {
namespace {

// ------------------------------------------------------------ page layer --

TEST(SlottedPageTest, InsertFindDelete) {
  char page[kBlockSize];
  InitPage(page, PageType::kBtreeLeaf);
  ASSERT_TRUE(slotted::InsertCell(page, 0, "banana", "yellow").ok());
  ASSERT_TRUE(slotted::InsertCell(page, 0, "apple", "red").ok());
  ASSERT_TRUE(slotted::InsertCell(page, 2, "cherry", "dark").ok());
  EXPECT_EQ(slotted::SlotCount(page), 3);
  EXPECT_EQ(slotted::Find(page, "apple"), 0);
  EXPECT_EQ(slotted::Find(page, "banana"), 1);
  EXPECT_EQ(slotted::Find(page, "cherry"), 2);
  EXPECT_EQ(slotted::Find(page, "durian"), -1);
  EXPECT_EQ(slotted::CellVal(page, 1).ToString(), "yellow");
  slotted::DeleteCell(page, 1);
  EXPECT_EQ(slotted::Find(page, "banana"), -1);
  EXPECT_EQ(slotted::Find(page, "cherry"), 1);
}

TEST(SlottedPageTest, LowerBound) {
  char page[kBlockSize];
  InitPage(page, PageType::kBtreeLeaf);
  for (const char* k : {"b", "d", "f"}) {
    ASSERT_TRUE(
        slotted::InsertCell(page, slotted::LowerBound(page, k), k, "v").ok());
  }
  EXPECT_EQ(slotted::LowerBound(page, "a"), 0);
  EXPECT_EQ(slotted::LowerBound(page, "b"), 0);
  EXPECT_EQ(slotted::LowerBound(page, "c"), 1);
  EXPECT_EQ(slotted::LowerBound(page, "g"), 3);
}

TEST(SlottedPageTest, FillsThenReportsNoSpace) {
  char page[kBlockSize];
  InitPage(page, PageType::kBtreeLeaf);
  int inserted = 0;
  for (int i = 0; i < 10000; i++) {
    std::string key = Fmt("key%06d", i);
    Status s = slotted::InsertCell(page, slotted::LowerBound(page, key), key,
                                   std::string(80, 'v'));
    if (!s.ok()) {
      EXPECT_TRUE(s.IsNoSpace());
      break;
    }
    inserted++;
  }
  EXPECT_GT(inserted, 30);
  EXPECT_LT(inserted, 50);
  // Deleting frees space for reuse (via compaction).
  slotted::DeleteCell(page, 0);
  EXPECT_TRUE(slotted::InsertCell(page, 0, "aaa", std::string(60, 'w')).ok());
}

TEST(SlottedPageTest, ReplaceValGrowAndShrink) {
  char page[kBlockSize];
  InitPage(page, PageType::kBtreeLeaf);
  ASSERT_TRUE(slotted::InsertCell(page, 0, "k", "short").ok());
  ASSERT_TRUE(slotted::ReplaceVal(page, 0, std::string(200, 'L')).ok());
  EXPECT_EQ(slotted::CellVal(page, 0).size(), 200u);
  ASSERT_TRUE(slotted::ReplaceVal(page, 0, "tiny").ok());
  EXPECT_EQ(slotted::CellVal(page, 0).ToString(), "tiny");
  EXPECT_EQ(slotted::CellKey(page, 0).ToString(), "k");
}

// -------------------------------------------------- parameterized by rig --

class DbArchTest : public ::testing::TestWithParam<Arch> {
 protected:
  Machine::Options SmallOptions() {
    Machine::Options o;
    o.cache_blocks = 2048;
    return o;
  }
};

std::string Key(int i) { return EncodeKey(static_cast<uint64_t>(i)); }

TEST_P(DbArchTest, BtreePutGetAcrossSplits) {
  auto rig = TestRig::Create(GetParam(), SmallOptions());
  rig->Run([&] {
    Db::Options bo;
    bo.type = DbType::kBtree;
    auto db = Db::Open(rig->backend.get(), "/bt", bo);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const int kN = 2000;  // forces several leaf and internal splits
    TxnId txn = rig->backend->Begin().value();
    int in_batch = 0;
    for (int i = 0; i < kN; i++) {
      ASSERT_TRUE(db.value()->Put(txn, Key(i), Fmt("value-%d", i)).ok()) << i;
      if (++in_batch == 250) {
        ASSERT_TRUE(rig->backend->Commit(txn).ok());
        txn = rig->backend->Begin().value();
        in_batch = 0;
      }
    }
    ASSERT_TRUE(rig->backend->Commit(txn).ok());

    txn = rig->backend->Begin().value();
    std::string val;
    Random rng(3);
    for (int round = 0; round < 200; round++) {
      int i = static_cast<int>(rng.Uniform(kN));
      ASSERT_TRUE(db.value()->Get(txn, Key(i), &val).ok()) << i;
      EXPECT_EQ(val, Fmt("value-%d", i));
    }
    EXPECT_TRUE(db.value()->Get(txn, Key(kN + 5), &val).IsNotFound());
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
  });
}

TEST_P(DbArchTest, BtreeGrowsInHeight) {
  auto rig = TestRig::Create(GetParam(), SmallOptions());
  rig->Run([&] {
    Db::Options bo;
    bo.type = DbType::kBtree;
    auto db = Db::Open(rig->backend.get(), "/bt", bo);
    ASSERT_TRUE(db.ok());
    Btree* bt = static_cast<Btree*>(db.value().get());
    TxnId txn = rig->backend->Begin().value();
    EXPECT_EQ(bt->Height(txn).value(), 1u);  // single leaf
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(bt->Put(txn, Key(i), std::string(100, 'v')).ok());
    }
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
    txn = rig->backend->Begin().value();
    EXPECT_GE(bt->Height(txn).value(), 2u);  // split grew the tree
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
  });
}

TEST_P(DbArchTest, BtreeScanIsKeyOrdered) {
  auto rig = TestRig::Create(GetParam(), SmallOptions());
  rig->Run([&] {
    Db::Options bo;
    bo.type = DbType::kBtree;
    auto db = Db::Open(rig->backend.get(), "/bt", bo);
    ASSERT_TRUE(db.ok());
    // Insert in shuffled order.
    const int kN = 500;
    std::vector<int> order(kN);
    for (int i = 0; i < kN; i++) order[static_cast<size_t>(i)] = i;
    Random rng(11);
    for (int i = kN - 1; i > 0; i--) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.Uniform(static_cast<uint64_t>(i + 1))]);
    }
    TxnId txn = rig->backend->Begin().value();
    for (int i : order) {
      ASSERT_TRUE(db.value()->Put(txn, Key(i), Fmt("v%d", i)).ok());
    }
    ASSERT_TRUE(rig->backend->Commit(txn).ok());

    txn = rig->backend->Begin().value();
    uint64_t expect = 0;
    ASSERT_TRUE(db.value()
                    ->Scan(txn,
                           [&](Slice key, Slice val) {
                             EXPECT_EQ(DecodeKey(key), expect);
                             EXPECT_EQ(val.ToString(),
                                       Fmt("v%d", static_cast<int>(expect)));
                             expect++;
                             return true;
                           })
                    .ok());
    EXPECT_EQ(expect, static_cast<uint64_t>(kN));
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
  });
}

TEST_P(DbArchTest, BtreeDelete) {
  auto rig = TestRig::Create(GetParam(), SmallOptions());
  rig->Run([&] {
    Db::Options bo;
    bo.type = DbType::kBtree;
    auto db = Db::Open(rig->backend.get(), "/bt", bo);
    ASSERT_TRUE(db.ok());
    TxnId txn = rig->backend->Begin().value();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db.value()->Put(txn, Key(i), "x").ok());
    }
    ASSERT_TRUE(db.value()->Delete(txn, Key(50)).ok());
    std::string val;
    EXPECT_TRUE(db.value()->Get(txn, Key(50), &val).IsNotFound());
    EXPECT_TRUE(db.value()->Get(txn, Key(51), &val).ok());
    EXPECT_TRUE(db.value()->Delete(txn, Key(50)).IsNotFound());
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
  });
}

TEST_P(DbArchTest, RecnoAppendAndFetch) {
  auto rig = TestRig::Create(GetParam(), SmallOptions());
  rig->Run([&] {
    Db::Options ro;
    ro.type = DbType::kRecno;
    ro.record_size = 50;
    auto db = Db::Open(rig->backend.get(), "/hist", ro);
    ASSERT_TRUE(db.ok());
    TxnId txn = rig->backend->Begin().value();
    for (int i = 0; i < 300; i++) {  // spans several pages (81 per page)
      auto r = db.value()->Append(txn, Fmt("record-%03d", i));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), static_cast<uint64_t>(i));
      if (i % 100 == 99) {
        ASSERT_TRUE(rig->backend->Commit(txn).ok());
        txn = rig->backend->Begin().value();
      }
    }
    EXPECT_EQ(db.value()->RecordCount(txn).value(), 300u);
    std::string rec;
    ASSERT_TRUE(db.value()->GetRecord(txn, 123, &rec).ok());
    EXPECT_EQ(rec.substr(0, 10), "record-123");
    EXPECT_TRUE(db.value()->GetRecord(txn, 300, &rec).IsNotFound());
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
  });
}

TEST_P(DbArchTest, AbortRollsBackUpdates) {
  auto rig = TestRig::Create(GetParam(), SmallOptions());
  rig->Run([&] {
    Db::Options bo;
    bo.type = DbType::kBtree;
    auto db = Db::Open(rig->backend.get(), "/bt", bo);
    ASSERT_TRUE(db.ok());
    TxnId txn = rig->backend->Begin().value();
    ASSERT_TRUE(db.value()->Put(txn, Key(1), "committed").ok());
    ASSERT_TRUE(rig->backend->Commit(txn).ok());

    txn = rig->backend->Begin().value();
    ASSERT_TRUE(db.value()->Put(txn, Key(1), "doomed").ok());
    ASSERT_TRUE(rig->backend->Abort(txn).ok());

    txn = rig->backend->Begin().value();
    std::string val;
    ASSERT_TRUE(db.value()->Get(txn, Key(1), &val).ok());
    EXPECT_EQ(val, "committed");
    ASSERT_TRUE(rig->backend->Commit(txn).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, DbArchTest,
                         ::testing::Values(Arch::kUserFfs, Arch::kUserLfs,
                                           Arch::kEmbedded),
                         [](const ::testing::TestParamInfo<Arch>& info) {
                           switch (info.param) {
                             case Arch::kUserFfs: return "UserFfs";
                             case Arch::kUserLfs: return "UserLfs";
                             case Arch::kEmbedded: return "Embedded";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace lfstx
