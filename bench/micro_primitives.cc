// Microbenchmarks (google-benchmark, real wall-clock time) for the
// building blocks the simulator executes billions of times: CRC32C,
// slotted-page operations, LIBTP's page diff, log record codec, disk
// service-time math, the buffer cache's lookup and dirty list, the flight
// recorder, and the lock manager fast path. These measure *simulator*
// efficiency — virtual-time results live in the fig*/ablation* binaries.
#include <benchmark/benchmark.h>

#include <cstring>

#include "cache/buffer_cache.h"
#include "common/crc32c.h"
#include "db/page.h"
#include "disk/disk_model.h"
#include "harness/table.h"
#include "libtp/log_record.h"
#include "libtp/page_diff.h"
#include "sim/sim_env.h"
#include "sim/trace.h"
#include "txn/lock_manager.h"

namespace lfstx {
namespace {

void BM_Crc32cBlock(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cBlock)->Arg(kBlockSize)->Arg(64 << 10);

// LIBTP's pre-image diff on two typical updates. Arg 0: a TPC-B balance
// update, 8 bytes changed mid-page. Arg 1: a slotted-page insert, which
// adds a slot up front and a cell at the back, so the diff splits in two.
void BM_PageDiff(benchmark::State& state) {
  char before[kBlockSize], after[kBlockSize];
  InitPage(before, PageType::kBtreeLeaf);
  for (int i = 0; i < 20; i++) {
    std::string key = Fmt("key%04d", i * 2);
    slotted::InsertCell(before, slotted::LowerBound(before, key), key,
                        std::string(100, 'v'));
  }
  memcpy(after, before, kBlockSize);
  if (state.range(0) == 0) {
    memset(after + 2000, 0x5a, 8);
  } else {
    slotted::InsertCell(after, slotted::LowerBound(after, "key0001"),
                        "key0001", std::string(100, 'w'));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiffPage(before, after));
  }
}
BENCHMARK(BM_PageDiff)->Arg(0)->Arg(1);

void BM_SlottedInsertFind(benchmark::State& state) {
  for (auto _ : state) {
    char page[kBlockSize];
    InitPage(page, PageType::kBtreeLeaf);
    for (int i = 0; i < 30; i++) {
      std::string key = Fmt("key%04d", i * 7 % 100);
      benchmark::DoNotOptimize(slotted::InsertCell(
          page, slotted::LowerBound(page, key), key, "value-bytes"));
    }
    benchmark::DoNotOptimize(slotted::Find(page, "key0049"));
  }
}
BENCHMARK(BM_SlottedInsertFind);

void BM_LogRecordRoundTrip(benchmark::State& state) {
  LogRecord rec;
  rec.type = LogRecType::kUpdate;
  rec.txn = 7;
  rec.file_ref = 1;
  rec.page = 99;
  rec.offset = 40;
  rec.before = std::string(static_cast<size_t>(state.range(0)), 'b');
  rec.after = std::string(static_cast<size_t>(state.range(0)), 'a');
  for (auto _ : state) {
    std::string buf;
    rec.AppendTo(&buf);
    size_t consumed;
    benchmark::DoNotOptimize(
        LogRecord::Decode(buf.data(), buf.size(), &consumed));
  }
}
BENCHMARK(BM_LogRecordRoundTrip)->Arg(100)->Arg(1000);

void BM_DiskServiceTime(benchmark::State& state) {
  DiskModel model{DiskGeometry{}, DiskTiming{}};
  uint64_t addr = 1;
  SimTime now = 0;
  for (auto _ : state) {
    addr = (addr * 48271 + 11) % DiskGeometry{}.total_blocks();
    SimTime t = model.Service(now, addr, 1);
    now += t;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_DiskServiceTime);

// Fills `cache` with blocks 0..n-1 of file 1, unpinned and clean.
void FillCache(BufferCache* cache, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    cache->Release(cache->GetNoLoad(BufferKey{1, i}).value());
  }
}

// A Get of a resident block, with a loader that captures as much as the
// file system's read path does (five words). The hit never calls it.
void BM_BufferCacheHit(benchmark::State& state) {
  SimEnv env;
  BufferCache cache(&env, 512);
  FillCache(&cache, 512);
  uint64_t i = 0;
  for (auto _ : state) {
    uint64_t lblock = i++ % 512;
    uint64_t addr = 1000 + lblock;
    auto r = cache.Get(BufferKey{1, lblock},
                       [&env, &cache, lblock, addr, i](char* dst) {
                         memset(dst, static_cast<int>(lblock + addr + i),
                                kBlockSize);
                         env.Consume(cache.capacity());
                         return Status::OK();
                       });
    benchmark::DoNotOptimize(r.value());
    cache.Release(r.value());
  }
}
BENCHMARK(BM_BufferCacheHit);

// The segment writer's and syncer's dirty scan over a full cache of
// state.range(0) frames, 4 of them dirty.
void BM_CollectDirty(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  SimEnv env;
  BufferCache cache(&env, n);
  FillCache(&cache, n);
  for (uint64_t i = 0; i < 4; i++) {
    Buffer* b = cache.Peek(BufferKey{1, i * n / 4});
    cache.MarkDirty(b);
    cache.Release(b);
  }
  for (auto _ : state) {
    std::vector<Buffer*> dirty = cache.CollectDirty();
    for (Buffer* b : dirty) cache.Release(b);
    benchmark::DoNotOptimize(dirty.data());
  }
}
BENCHMARK(BM_CollectDirty)->Arg(512)->Arg(2048);

// One io_end-shaped disk event into the flight recorder, the default
// state of an untraced run.
void BM_TraceEmitFlight(benchmark::State& state) {
  SimTime clock = 0;
  Tracer tracer(&clock);
  tracer.EnableFlightRecorder(64);
  uint64_t block = 0;
  for (auto _ : state) {
    clock += 13;
    block = (block * 48271 + 11) % 300000;
    LFSTX_TRACE(&tracer, TraceCat::kDisk, "io_end", {"op", "read"},
                {"block", block}, {"nblocks", uint32_t{1}}, {"cause", "txn"},
                {"service_us", uint64_t{14250}},
                {"latency_us", uint64_t{20371}});
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceEmitFlight);

void BM_LockAcquireRelease(benchmark::State& state) {
  SimEnv env;
  LockManager lm(&env);
  uint64_t i = 0;
  // Lock manager operations run outside a simulated process here; the
  // fast path has no blocking.
  for (auto _ : state) {
    LockId id{1, i++ % 64};
    benchmark::DoNotOptimize(lm.Lock(1, id, LockMode::kShared));
    lm.Unlock(1, id);
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_SimSpawnRunTeardown(benchmark::State& state) {
  // Cost of a whole simulated-machine lifecycle: spawn, handshake, drain.
  for (auto _ : state) {
    SimEnv env;
    env.Spawn("p", [&] { env.Consume(10); });
    benchmark::DoNotOptimize(env.Run());
  }
}
BENCHMARK(BM_SimSpawnRunTeardown);

}  // namespace
}  // namespace lfstx

BENCHMARK_MAIN();
