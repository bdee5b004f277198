#include <gtest/gtest.h>

#include <cstring>

#include "disk/disk_model.h"
#include "disk/sim_disk.h"

namespace lfstx {
namespace {

TEST(DiskGeometryTest, DefaultsAre300MB) {
  DiskGeometry g;
  EXPECT_EQ(g.total_bytes(), 300ull * 1024 * 1024);
  EXPECT_EQ(g.total_blocks(), 76800u);
  EXPECT_EQ(g.blocks_per_track(), 4u);
  EXPECT_EQ(g.blocks_per_cylinder(), 60u);
}

TEST(DiskModelTest, SeekCurveEndpoints) {
  DiskModel m{DiskGeometry{}, DiskTiming{}};
  EXPECT_EQ(m.SeekTime(0), 0u);
  EXPECT_NEAR(static_cast<double>(m.SeekTime(1)), 4000.0, 1.0);
  EXPECT_NEAR(static_cast<double>(m.SeekTime(1279)), 35000.0, 1.0);
  EXPECT_LT(m.SeekTime(100), m.SeekTime(1000));
}

TEST(DiskModelTest, SequentialIsMuchCheaperThanRandom) {
  DiskGeometry g;
  // Sequential: 128 blocks in one request.
  DiskModel seq{g, DiskTiming{}};
  SimTime t_seq = seq.Service(0, 1000, 128);
  // Random: 128 single-block requests scattered over the disk.
  DiskModel rnd{g, DiskTiming{}};
  SimTime t_rnd = 0, now = 0;
  uint64_t addr = 7;
  for (int i = 0; i < 128; i++) {
    addr = (addr * 48271) % g.total_blocks();
    SimTime s = rnd.Service(now, addr, 1);
    t_rnd += s;
    now += s;
  }
  // The paper's entire premise: batched sequential I/O approaches full disk
  // bandwidth while random access is dominated by seek + rotation.
  EXPECT_GT(t_rnd, 5 * t_seq);
}

TEST(DiskModelTest, SequentialBandwidthNearOneMBps) {
  DiskModel m{DiskGeometry{}, DiskTiming{}};
  // 1280 blocks = 5 MB transferred sequentially.
  SimTime t = m.Service(0, 0, 1280);
  double mb = 1280.0 * kBlockSize / (1024 * 1024);
  double mbps = mb / ToSeconds(t);
  EXPECT_GT(mbps, 0.7);
  EXPECT_LT(mbps, 1.3);
}

TEST(DiskModelTest, TracksHeadPosition) {
  DiskModel m{DiskGeometry{}, DiskTiming{}};
  m.Service(0, 60 * 100, 1);  // cylinder 100
  EXPECT_EQ(m.current_cylinder(), 100u);
  // Re-reading the same cylinder needs no seek.
  uint64_t seeks = m.stats().seeks;
  m.Service(kSecond, 60 * 100 + 5, 1);
  EXPECT_EQ(m.stats().seeks, seeks);
}

TEST(SimDiskTest, WriteThenReadRoundTrip) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("p", [&] {
    char w[kBlockSize], r[kBlockSize];
    memset(w, 0xab, sizeof(w));
    ASSERT_TRUE(disk.Write(42, 1, w).ok());
    ASSERT_TRUE(disk.Read(42, 1, r).ok());
    EXPECT_EQ(memcmp(w, r, kBlockSize), 0);
  });
  env.Run();
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
}

TEST(SimDiskTest, UnwrittenBlocksReadZero) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("p", [&] {
    char r[kBlockSize];
    memset(r, 0xff, sizeof(r));
    ASSERT_TRUE(disk.Read(9999, 1, r).ok());
    for (size_t i = 0; i < kBlockSize; i++) EXPECT_EQ(r[i], 0);
  });
  env.Run();
}

TEST(SimDiskTest, OutOfRangeRejected) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("p", [&] {
    char b[kBlockSize] = {0};
    EXPECT_EQ(disk.Read(disk.num_blocks(), 1, b).code(),
              Code::kInvalidArgument);
    EXPECT_EQ(disk.Write(disk.num_blocks() - 1, 2, b).code(),
              Code::kInvalidArgument);
  });
  env.Run();
}

TEST(SimDiskTest, IoTakesVirtualTime) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("p", [&] {
    char b[kBlockSize] = {0};
    ASSERT_TRUE(disk.Write(40000, 1, b).ok());
  });
  SimTime end = env.Run();
  EXPECT_GT(end, 4000u);  // at least a seek + rotation happened
}

TEST(SimDiskTest, ConcurrentRequestsQueue) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  int done = 0;
  for (int i = 0; i < 4; i++) {
    env.Spawn("p" + std::to_string(i), [&, i] {
      char b[kBlockSize] = {0};
      ASSERT_TRUE(disk.Write(static_cast<BlockAddr>(i) * 10000, 1, b).ok());
      done++;
    });
  }
  env.Run();
  EXPECT_EQ(done, 4);
  EXPECT_GE(disk.stats().max_queue_depth, 1u);
}

TEST(SimDiskTest, ElevatorReducesSeekTimeVsFifo) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  // FIFO order is submission order: a bare model serves the same
  // requests one after another.
  DiskModel fifo{DiskGeometry{}, DiskTiming{}};
  SimTime fifo_time = 0;
  // One process issues many scattered async writes at once, then waits.
  env.Spawn("p", [&] {
    char b[kBlockSize] = {0};
    IoEvent ev(&env);
    size_t remaining = 64;
    uint64_t addr = 13;
    for (int i = 0; i < 64; i++) {
      addr = (addr * 48271 + 11) % disk.num_blocks();
      fifo_time += fifo.Service(fifo_time, addr, 1);
      disk.SubmitWrite(addr, 1, b, [&] {
        if (--remaining == 0) ev.Fire();
      });
    }
    ASSERT_TRUE(ev.Wait());
  });
  env.Run();
  EXPECT_LT(disk.model_stats().seek_us, fifo.stats().seek_us);
}

TEST(SimDiskTest, CrashDropsTailOfWrite) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("p", [&] {
    std::string data(4 * kBlockSize, 'x');
    ASSERT_TRUE(disk.Write(100, 4, data.data()).ok());
    disk.CrashAfterBlocks(2);
    std::string data2(4 * kBlockSize, 'y');
    ASSERT_TRUE(disk.Write(100, 4, data2.data()).ok());  // torn
    char r[4 * kBlockSize];
    disk.RawRead(100, 4, r);
    EXPECT_EQ(r[0], 'y');
    EXPECT_EQ(r[kBlockSize], 'y');
    EXPECT_EQ(r[2 * kBlockSize], 'x');  // tail kept the old contents
    EXPECT_EQ(r[3 * kBlockSize], 'x');
  });
  env.Run();
}

TEST(DiskQueueTest, ElevatorPicksAheadThenWraps) {
  DiskQueue q;
  DiskGeometry g;
  // Requests at cylinders 5, 10, 2 (blocks_per_cylinder = 60).
  for (uint64_t cyl : {5, 10, 2}) {
    auto r = std::make_unique<DiskRequest>();
    r->block = cyl * 60;
    q.Push(std::move(r));
  }
  // Head at cylinder 6: nearest ahead is 10, then wrap to 2, then 5.
  EXPECT_EQ(g.CylinderOf(q.PopNext(6, g)->block), 10u);
  EXPECT_EQ(g.CylinderOf(q.PopNext(10, g)->block), 2u);
  EXPECT_EQ(g.CylinderOf(q.PopNext(2, g)->block), 5u);
}

}  // namespace
}  // namespace lfstx
