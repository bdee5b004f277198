// Property sweeps over the disk timing model: service times are positive
// and bounded, sequential streaming beats random access at every request
// size, and the elevator never does worse than FIFO on aggregate seek time.
#include <gtest/gtest.h>

#include "common/random.h"
#include "disk/sim_disk.h"

namespace lfstx {
namespace {

class ServiceTimeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServiceTimeSweep, BoundedAndPositive) {
  const uint32_t nblocks = GetParam();
  DiskGeometry g;
  DiskModel m{g, DiskTiming{}};
  Random rng(nblocks);
  const SimTime rev = DiskTiming{}.revolution_us();
  for (int i = 0; i < 500; i++) {
    BlockAddr addr = rng.Uniform(g.total_blocks() - nblocks);
    SimTime t = m.Service(static_cast<SimTime>(rng.Uniform(100 * kSecond)),
                          addr, nblocks);
    EXPECT_GT(t, 0u);
    // Upper bound: full-stroke seek + one rotation + transfer with a
    // track-switch allowance per track crossed.
    SimTime transfer =
        static_cast<SimTime>(nblocks) * (rev / g.blocks_per_track());
    SimTime switches =
        (nblocks / g.blocks_per_track() + 2) *
        (static_cast<SimTime>(DiskTiming{}.single_cylinder_seek_ms * 1000));
    EXPECT_LE(t, 35000u + rev + transfer + switches);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ServiceTimeSweep,
                         ::testing::Values(1u, 4u, 16u, 64u, 128u));

TEST(DiskPropertyTest, StreamingBandwidthBeatsRandomAtEverySize) {
  DiskGeometry g;
  for (uint32_t n : {1u, 8u, 32u, 128u}) {
    DiskModel seq{g, DiskTiming{}};
    SimTime t_seq = 0;
    BlockAddr next = 0;
    for (int i = 0; i < 50; i++) {
      t_seq += seq.Service(t_seq, next, n);
      next += n;
    }
    DiskModel rnd{g, DiskTiming{}};
    SimTime t_rnd = 0;
    Random rng(n);
    for (int i = 0; i < 50; i++) {
      t_rnd += rnd.Service(t_rnd, rng.Uniform(g.total_blocks() - n), n);
    }
    EXPECT_LT(t_seq, t_rnd) << "request size " << n;
  }
}

TEST(DiskPropertyTest, LargerRequestsAmortizeBetter) {
  DiskGeometry g;
  Random rng(5);
  double prev_us_per_block = 1e18;
  for (uint32_t n : {1u, 8u, 32u, 128u}) {
    DiskModel m{g, DiskTiming{}};
    SimTime total = 0;
    Random local(7);
    for (int i = 0; i < 100; i++) {
      total += m.Service(total, local.Uniform(g.total_blocks() - n), n);
    }
    double us_per_block = static_cast<double>(total) / (100.0 * n);
    EXPECT_LT(us_per_block, prev_us_per_block) << n;
    prev_us_per_block = us_per_block;
  }
}

TEST(DiskPropertyTest, ElevatorNeverLosesToFifoOnSeekTime) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    SimEnv env;
    SimDisk disk(&env, SimDisk::Options{});
    // FIFO order is submission order: a bare model serves the same
    // requests one after another.
    DiskModel fifo{DiskGeometry{}, DiskTiming{}};
    SimTime fifo_time = 0;
    env.Spawn("p", [&] {
      Random rng(seed);
      char b[kBlockSize] = {0};
      IoEvent ev(&env);
      size_t remaining = 100;
      for (int i = 0; i < 100; i++) {
        BlockAddr addr = rng.Uniform(disk.num_blocks());
        fifo_time += fifo.Service(fifo_time, addr, 1);
        disk.SubmitWrite(addr, 1, b, [&] {
          if (--remaining == 0) ev.Fire();
        });
      }
      ASSERT_TRUE(ev.Wait());
    });
    env.Run();
    EXPECT_LE(disk.model_stats().seek_us, fifo.stats().seek_us)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lfstx
