// Unit tests for the LFS on-disk format pieces: segment summaries, the
// inode map, the segment usage table, and checkpoints.
#include <gtest/gtest.h>

#include <cstring>

#include "lfs/checkpoint.h"
#include "lfs/inode_map.h"
#include "lfs/segment.h"
#include "lfs/segment_usage.h"

namespace lfstx {
namespace {

// ---------------------------------------------------------------- summary --

Summary MakeSummary(uint32_t nblocks) {
  Summary s;
  s.write_seq = 42;
  s.timestamp = 123456;
  s.generation = 7;
  s.next_addr = 9999;
  s.txn = 5;
  s.txn_commit = true;
  for (uint32_t i = 0; i < nblocks; i++) {
    s.entries.push_back(SummaryEntry{
        static_cast<uint32_t>(BlockKind::kData), 17, 100 + i});
  }
  return s;
}

TEST(SummaryTest, EncodeDecodeRoundTrip) {
  Summary s = MakeSummary(5);
  std::string payload(5 * kBlockSize, 'p');
  char block[kBlockSize];
  s.Encode(block, payload.data());
  auto r = Summary::Decode(block, payload.data(), 5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().write_seq, 42u);
  EXPECT_EQ(r.value().generation, 7u);
  EXPECT_EQ(r.value().next_addr, 9999u);
  EXPECT_EQ(r.value().txn, 5u);
  EXPECT_TRUE(r.value().txn_commit);
  ASSERT_EQ(r.value().nblocks(), 5u);
  EXPECT_EQ(r.value().entries[3].lblock, 103u);
  EXPECT_EQ(Summary::PeekNBlocks(block).value(), 5u);
}

TEST(SummaryTest, PayloadCorruptionDetected) {
  Summary s = MakeSummary(3);
  std::string payload(3 * kBlockSize, 'p');
  char block[kBlockSize];
  s.Encode(block, payload.data());
  payload[2 * kBlockSize + 17] ^= 0x1;  // torn payload block
  EXPECT_TRUE(
      Summary::Decode(block, payload.data(), 3).status().IsCorruption());
}

TEST(SummaryTest, HeaderCorruptionDetected) {
  Summary s = MakeSummary(3);
  std::string payload(3 * kBlockSize, 'p');
  char block[kBlockSize];
  s.Encode(block, payload.data());
  block[20] ^= 0x1;
  EXPECT_TRUE(
      Summary::Decode(block, payload.data(), 3).status().IsCorruption());
}

TEST(SummaryTest, GarbageIsNotASummary) {
  char block[kBlockSize];
  memset(block, 0, sizeof(block));
  EXPECT_TRUE(Summary::PeekNBlocks(block).status().IsCorruption());
  memset(block, 0xff, sizeof(block));
  EXPECT_TRUE(Summary::PeekNBlocks(block).status().IsCorruption());
}

TEST(SummaryTest, MaxEntriesFitsInOneBlock) {
  uint32_t max = Summary::MaxEntries();
  EXPECT_GT(max, 128u);  // must describe a whole default segment
  Summary s = MakeSummary(max);
  std::string payload(static_cast<size_t>(max) * kBlockSize, 'x');
  char block[kBlockSize];
  s.Encode(block, payload.data());
  auto r = Summary::Decode(block, payload.data(), max);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().nblocks(), max);
}

TEST(SummaryTest, RedoTableRoundTripsInTheEntriesRoom) {
  // The rows share the entries' room: a full block of entries and rows.
  const uint32_t nblocks = Summary::MaxEntries() - 2;
  Summary s = MakeSummary(nblocks);
  s.redo = {RedoRow{17, 0, 5 * kBlockSize + 3}, RedoRow{23, 0, 1ull << 40}};
  s.redo_final = true;
  std::string payload(static_cast<size_t>(nblocks) * kBlockSize, 'r');
  char block[kBlockSize];
  s.Encode(block, payload.data());
  auto r = Summary::Decode(block, payload.data(), nblocks);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().nblocks(), nblocks);
  EXPECT_EQ(r.value().entries.back().lblock, 100u + nblocks - 1);
  ASSERT_EQ(r.value().redo.size(), 2u);
  EXPECT_EQ(r.value().redo[0].inum, 17u);
  EXPECT_EQ(r.value().redo[0].size, 5 * kBlockSize + 3);
  EXPECT_EQ(r.value().redo[1].inum, 23u);
  EXPECT_EQ(r.value().redo[1].size, 1ull << 40);
  EXPECT_TRUE(r.value().redo_final);
  EXPECT_TRUE(r.value().txn_commit);

  // A chunk without deferred files has an empty table.
  Summary plain = MakeSummary(3);
  plain.Encode(block, payload.data());
  r = Summary::Decode(block, payload.data(), 3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().redo.empty());
  EXPECT_FALSE(r.value().redo_final);
}

// --------------------------------------------------------------- inode map --

TEST(InodeMapTest, SetGetFreeAndVersioning) {
  InodeMap imap(100);
  EXPECT_FALSE(imap.InUse(5));
  EXPECT_EQ(imap.Set(5, 777, 0), 0u);
  EXPECT_TRUE(imap.InUse(5));
  EXPECT_EQ(imap.Get(5).inode_addr, 777u);
  EXPECT_EQ(imap.Set(5, 888, 0), 777u);  // returns previous address
  EXPECT_EQ(imap.Free(5), 888u);
  EXPECT_FALSE(imap.InUse(5));
  EXPECT_EQ(imap.Get(5).version, 1u);  // bumped for reuse detection
}

TEST(InodeMapTest, AllocReservesUntilFlushOrFree) {
  InodeMap imap(100);
  InodeNum a = imap.AllocInum().value();
  InodeNum b = imap.AllocInum().value();
  EXPECT_NE(a, b);  // reservation prevents double allocation
  imap.Set(a, 123, 0);
  imap.Free(b);
  InodeNum c = imap.AllocInum().value();
  EXPECT_EQ(c, b);  // freed number is reusable
}

TEST(InodeMapTest, AllocExhaustion) {
  InodeMap imap(3);
  EXPECT_TRUE(imap.AllocInum().ok());
  EXPECT_TRUE(imap.AllocInum().ok());
  EXPECT_TRUE(imap.AllocInum().ok());
  EXPECT_TRUE(imap.AllocInum().status().IsNoSpace());
}

TEST(InodeMapTest, BlockSerializationRoundTrip) {
  InodeMap imap(1000);
  imap.Set(1, 111, 0);
  imap.Set(300, 333, 2);
  char block0[kBlockSize], block1[kBlockSize];
  imap.EncodeBlock(0, block0);
  imap.EncodeBlock(1, block1);

  InodeMap fresh(1000);
  fresh.DecodeBlock(0, block0);
  fresh.DecodeBlock(1, block1);
  EXPECT_EQ(fresh.Get(1).inode_addr, 111u);
  EXPECT_EQ(fresh.Get(300).inode_addr, 333u);
  EXPECT_EQ(fresh.Get(300).version, 2u);
  EXPECT_EQ(fresh.Get(2).inode_addr, 0u);
}

TEST(InodeMapTest, DirtyBlockTracking) {
  InodeMap imap(1000);
  EXPECT_TRUE(imap.DirtyBlocks().empty());
  imap.Set(300, 1, 0);  // entry 300 lives in block 1 (256 per block)
  auto dirty = imap.DirtyBlocks();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 1u);
  imap.ClearDirty();
  EXPECT_TRUE(imap.DirtyBlocks().empty());
}

// ------------------------------------------------------------ usage table --

SummaryEntry DataOwner(InodeNum inum, uint64_t lblock) {
  return SummaryEntry{static_cast<uint32_t>(BlockKind::kData), inum, lblock};
}

// Places `n` data blocks of inode 7 in slots 1..n of `seg`.
void Fill(SegmentUsage* usage, uint32_t seg, uint32_t n, SimTime now) {
  for (uint32_t slot = 1; slot <= n; slot++) {
    usage->AddLive(seg, slot, DataOwner(7, slot), now);
  }
}

TEST(SegmentUsageTest, LifecycleAndCounts) {
  SegmentUsage usage(10, 128);
  EXPECT_EQ(usage.clean_count(), 10u);
  uint32_t gen = usage.Activate(3);
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(usage.clean_count(), 9u);
  Fill(&usage, 3, 50, 1000);
  for (uint32_t slot = 1; slot <= 20; slot++) usage.DecLive(3, slot);
  EXPECT_EQ(usage.live(3), 30u);
  EXPECT_EQ(usage.written(3), 50u);
  usage.Retire(3);
  EXPECT_EQ(usage.state(3), SegState::kDirty);
  for (uint32_t slot = 21; slot <= 50; slot++) usage.DecLive(3, slot);
  usage.MarkClean(3);
  EXPECT_EQ(usage.clean_count(), 10u);
  EXPECT_EQ(usage.Activate(3), 2u);  // generation advances on reuse
  EXPECT_EQ(usage.written(3), 0u);
}

TEST(SegmentUsageTest, OwnersAreSetAndCleared) {
  SegmentUsage usage(4, 128);
  usage.Activate(1);
  SummaryEntry inode{static_cast<uint32_t>(BlockKind::kInode), 9, 0};
  usage.AddLive(1, 5, DataOwner(3, 44), 0);
  usage.AddLive(1, 6, inode, 0);
  EXPECT_EQ(usage.owner(1, 5).kind, static_cast<uint32_t>(BlockKind::kData));
  EXPECT_EQ(usage.owner(1, 5).inum, 3u);
  EXPECT_EQ(usage.owner(1, 5).lblock, 44u);
  EXPECT_EQ(usage.owner(1, 6).inum, 9u);
  EXPECT_EQ(usage.owner(1, 4).kind, 0u);
  EXPECT_EQ(usage.live(1), 2u);
  EXPECT_EQ(usage.total_live(), 2u);

  usage.DecLive(1, 5);
  EXPECT_EQ(usage.owner(1, 5).kind, 0u);
  EXPECT_EQ(usage.live(1), 1u);
  // A freed slot takes no new block until the segment is reused, but the
  // table itself only cares that the slot is empty.
  usage.AddLive(1, 5, DataOwner(4, 0), 0);
  EXPECT_EQ(usage.owner(1, 5).inum, 4u);
  EXPECT_EQ(usage.written(1), 3u);

  // The mount-time rebuild starts from empty slots and refuses a second
  // claim of one block instead of double-counting it.
  usage.ClearLive();
  EXPECT_EQ(usage.live(1), 0u);
  EXPECT_EQ(usage.owner(1, 6).kind, 0u);
  EXPECT_TRUE(usage.RestoreLive(1, 6, inode));
  EXPECT_FALSE(usage.RestoreLive(1, 6, inode));
  EXPECT_EQ(usage.live(1), 1u);
  EXPECT_EQ(usage.written(1), 3u);  // only the writer counts writes
}

TEST(SegmentUsageDeathTest, AddToAnOccupiedSlotDies) {
  SegmentUsage usage(4, 128);
  usage.Activate(0);
  usage.AddLive(0, 1, DataOwner(2, 0), 0);
  EXPECT_DEATH(usage.AddLive(0, 1, DataOwner(2, 1), 0), "occupied slot");
}

TEST(SegmentUsageDeathTest, ClearOfAnEmptySlotDies) {
  SegmentUsage usage(4, 128);
  usage.Activate(0);
  usage.AddLive(0, 1, DataOwner(2, 0), 0);
  usage.DecLive(0, 1);
  EXPECT_DEATH(usage.DecLive(0, 1), "empty slot");
}

TEST(SegmentUsageTest, GreedyPicksEmptiest) {
  SegmentUsage usage(4, 128);
  for (uint32_t s : {0u, 1u, 2u}) {
    usage.Activate(s);
    Fill(&usage, s, s == 0 ? 20 : 10, 0);
    usage.Retire(s);
  }
  // Segments 1 and 2 tie as the emptiest; the lower number wins.
  EXPECT_EQ(usage.PickVictim().value(), 1u);
}

TEST(SegmentUsageTest, PickCleanRoundRobinAndExhaustion) {
  SegmentUsage usage(3, 128);
  EXPECT_EQ(usage.PickClean(0).value(), 1u);
  usage.Activate(0);
  usage.Activate(1);
  usage.Activate(2);
  EXPECT_TRUE(usage.PickClean(0).status().IsNoSpace());
}

TEST(SegmentUsageTest, SerializationRoundTrip) {
  SegmentUsage usage(8, 128);
  usage.Activate(2);
  Fill(&usage, 2, 99, 5 * kSecond);
  usage.Retire(2);
  usage.Activate(5);
  std::vector<char> buf(usage.SerializedBytes());
  usage.Serialize(buf.data());

  SegmentUsage fresh(8, 128);
  fresh.Deserialize(buf.data());
  EXPECT_EQ(fresh.written(2), 99u);
  EXPECT_EQ(fresh.state(2), SegState::kDirty);
  EXPECT_EQ(fresh.generation(2), 1u);
  EXPECT_EQ(fresh.write_time(2), 5 * kSecond);
  // Live counts and owners are not persisted: the mount rebuilds them.
  EXPECT_EQ(fresh.live(2), 0u);
  EXPECT_EQ(fresh.owner(2, 1).kind, 0u);
  // The active segment deserializes as dirty (crash semantics).
  EXPECT_EQ(fresh.state(5), SegState::kDirty);
  EXPECT_EQ(fresh.state(0), SegState::kClean);
}

// -------------------------------------------------------------- checkpoint --

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  CheckpointData cp;
  cp.seq = 9;
  cp.timestamp = 777;
  cp.cur_segment = 3;
  cp.cur_offset = 55;
  cp.cur_generation = 2;
  cp.next_segment = 11;
  cp.next_write_seq = 1234;
  cp.imap_addrs = {0, 100, 200};
  SegmentUsage usage(16, 128);
  usage.Activate(3);
  cp.usage_bytes.resize(usage.SerializedBytes());
  usage.Serialize(cp.usage_bytes.data());

  uint32_t nblocks = CheckpointData::BlocksNeeded(3, 16);
  std::vector<char> buf(static_cast<size_t>(nblocks) * kBlockSize);
  cp.Encode(buf.data(), nblocks);
  auto r = CheckpointData::Decode(buf.data(), nblocks);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().seq, 9u);
  EXPECT_EQ(r.value().cur_segment, 3u);
  EXPECT_EQ(r.value().cur_offset, 55u);
  EXPECT_EQ(r.value().next_segment, 11u);
  EXPECT_EQ(r.value().next_write_seq, 1234u);
  EXPECT_EQ(r.value().imap_addrs, (std::vector<BlockAddr>{0, 100, 200}));
  EXPECT_EQ(r.value().usage_bytes, cp.usage_bytes);
}

TEST(CheckpointTest, RedoPointAndFilesRoundTripInTheSpareRoom) {
  CheckpointData cp;
  cp.next_write_seq = 500;
  cp.redo_seq = 420;
  cp.redo_addr = 9000;
  cp.imap_addrs.assign(16, 7);
  SegmentUsage usage(149, 128);
  cp.usage_bytes.resize(usage.SerializedBytes());
  usage.Serialize(cp.usage_bytes.data());
  const uint32_t nblocks = CheckpointData::BlocksNeeded(16, 149);
  const uint32_t room = CheckpointData::MaxRedoFiles(nblocks, 16, 149);
  EXPECT_EQ(room, 94u);  // perfbench's 75 MB disk
  for (uint32_t i = 0; i < room; i++) {
    cp.redo_files.push_back(RedoFile{i + 2, 0, 420 + i});
  }
  std::vector<char> buf(static_cast<size_t>(nblocks) * kBlockSize);
  cp.Encode(buf.data(), nblocks);
  auto r = CheckpointData::Decode(buf.data(), nblocks);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().redo_seq, 420u);
  EXPECT_EQ(r.value().redo_addr, 9000u);
  ASSERT_EQ(r.value().redo_files.size(), room);
  EXPECT_EQ(r.value().redo_files.back().inum, room + 1);
  EXPECT_EQ(r.value().redo_files.back().seq, 420u + room - 1);
  EXPECT_EQ(r.value().usage_bytes, cp.usage_bytes);
}

TEST(CheckpointTest, TheRedoPointLeavesEveryUsedGeometrysRegionAlone) {
  // The regions' size at every geometry the figures, ablations and
  // perfbench build (16 inode-map blocks): cylinders x segment blocks.
  struct Geometry {
    uint32_t cylinders, segment_blocks, blocks;
  };
  for (const Geometry& g : std::vector<Geometry>{{1280, 128, 3},
                                                 {640, 128, 2},
                                                 {426, 128, 1},
                                                 {320, 128, 1},
                                                 {256, 128, 1},
                                                 {160, 128, 1},
                                                 {96, 128, 1},
                                                 {40, 128, 1},
                                                 {320, 16, 5},
                                                 {320, 32, 3},
                                                 {320, 64, 2},
                                                 {320, 256, 1}}) {
    DiskGeometry disk;
    disk.cylinders = g.cylinders;
    auto nseg = static_cast<uint32_t>((disk.total_blocks() - 1) /
                                      g.segment_blocks);
    EXPECT_EQ(CheckpointData::BlocksNeeded(16, nseg), g.blocks)
        << g.cylinders << " cylinders, " << g.segment_blocks
        << "-block segments";
  }
}

TEST(CheckpointTest, CorruptionDetected) {
  CheckpointData cp;
  cp.seq = 1;
  cp.imap_addrs = {1};
  cp.usage_bytes.assign(16, 'u');
  uint32_t nblocks = CheckpointData::BlocksNeeded(1, 1);
  std::vector<char> buf(static_cast<size_t>(nblocks) * kBlockSize);
  cp.Encode(buf.data(), nblocks);
  buf[100] ^= 0x1;
  EXPECT_TRUE(
      CheckpointData::Decode(buf.data(), nblocks).status().IsCorruption());
}

TEST(CheckpointTest, FullScaleFitsInRegion) {
  // The default geometry: 16 imap blocks, ~600 segments.
  uint32_t nblocks = CheckpointData::BlocksNeeded(16, 600);
  EXPECT_LE(nblocks, 4u);  // a handful of blocks, written in one request
}

}  // namespace
}  // namespace lfstx
