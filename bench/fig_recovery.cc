// Recovery-time curves: how long does restart recovery take as a function
// of the log written since the last checkpoint?
//
// Build an LFS image with R workload rounds (~1 segment each) after
// format, stop without Unmount, mount a clone, and read the roll-forward
// cost (virtual time) from Lfs::recovery_stats(). Two modes per R:
// "nocp" (no checkpoint after format — recovery replays the whole log, the
// unbounded baseline) and "periodic" (the segment trigger writes a
// checkpoint every 2 segments — replay is bounded by that distance, so the
// curve must flatten while nocp keeps climbing).
//
// --summary=F writes the machine-readable JSON that
// `tools/report.py baseline recovery` validates (axes, nocp growth,
// periodic sublinearity) into BENCH_recovery.json. Every invariant checker
// runs after each recovery; a dirty sweep fails the bench.
#include "bench_common.h"

namespace lfstx {
namespace {

constexpr int kRounds[] = {2, 4, 8, 16};

/// One workload round: rewrite 24 files at 1-8 blocks each (~100 payload
/// blocks, just under one segment) and SyncAll. Round r of every build
/// writes identical data (seeded per round), so images differ only in R.
void RunRound(Lfs* fs, int round) {
  Random rng(7700 + static_cast<uint64_t>(round));
  for (int i = 0; i < 24; i++) {
    std::string path = "/r" + std::to_string(i);
    auto r = fs->Open(path);
    if (!r.ok()) r = fs->Create(path);
    LFSTX_CHECK(r.ok(), "bench create/open failed");
    LFSTX_CHECK(fs->Truncate(r.value(), 0).ok(), "truncate failed");
    std::string data = rng.Bytes(kBlockSize + rng.Uniform(7 * kBlockSize));
    LFSTX_CHECK(fs->Write(r.value(), 0, data).ok(), "write failed");
    LFSTX_CHECK(fs->Close(r.value()).ok(), "close failed");
  }
  LFSTX_CHECK(fs->SyncAll().ok(), "SyncAll failed");
}

/// Build an un-unmounted image: format, R rounds, stop. Returns blocks
/// written (the log-size axis). `periodic` bounds replay with a checkpoint
/// every 2 segments; otherwise only the format checkpoint exists and
/// recovery must roll the entire log forward.
uint64_t BuildImage(SimEnv* env, SimDisk* disk, bool periodic, int rounds) {
  env->Spawn("workload", [=] {
    BufferCache cache(env, 1024);
    Lfs::Options lo;
    lo.checkpoint_every_segments = periodic ? 2 : 1000000;
    Lfs fs(env, disk, &cache, lo);
    cache.set_writeback(&fs);
    LFSTX_CHECK(fs.Format().ok(), "format failed");
    for (int r = 0; r < rounds; r++) RunRound(&fs, r);
    // No Unmount: mounting this image requires roll-forward.
  });
  env->Run();
  return disk->stats().blocks_written;
}

/// Mount a clone of `base`, sweep the invariant checkers, and return the
/// recovery cost.
Lfs::RecoveryStats RecoverClone(const SimDisk& base) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  disk.CopyContentsFrom(base);
  Lfs::RecoveryStats out;
  env.Spawn("recover", [&] {
    BufferCache cache(&env, 1024);
    Lfs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    LFSTX_CHECK(fs.Mount().ok(), "recovery mount failed");
    out = fs.recovery_stats();
    CheckContext ctx;
    ctx.env = &env;
    ctx.cache = &cache;
    ctx.lfs = &fs;
    CheckSummary sweep = RunAllChecks(ctx);
    if (!sweep.clean()) {
      fprintf(stderr, "invariant sweep dirty after recovery:\n%s\n",
              sweep.ToString().c_str());
      exit(1);
    }
  });
  env.Run();
  return out;
}

struct CurvePoint {
  const char* mode;
  int rounds;
  uint64_t written_blocks;
  Lfs::RecoveryStats rec;
};

std::string CurveJson(const CurvePoint& p) {
  return Fmt(
      "{\"mode\": \"%s\", \"rounds\": %d, \"written_blocks\": %llu, "
      "\"payload_blocks\": %llu, \"chunks\": %llu, \"checkpoint_seq\": %llu, "
      "\"scan_us\": %llu, \"apply_us\": %llu, \"recovery_us\": %llu}",
      p.mode, p.rounds, static_cast<unsigned long long>(p.written_blocks),
      static_cast<unsigned long long>(p.rec.payload_blocks),
      static_cast<unsigned long long>(p.rec.chunks),
      static_cast<unsigned long long>(p.rec.checkpoint_seq),
      static_cast<unsigned long long>(p.rec.scan_us),
      static_cast<unsigned long long>(p.rec.apply_us),
      static_cast<unsigned long long>(p.rec.total_us));
}

int Main(int argc, char** argv) {
  BenchConfig cfg =
      BenchConfig::FromArgs(argc, argv, BenchConfig::kSummaryFlag);

  std::vector<CurvePoint> curve;
  ResultTable curve_table({"mode", "rounds", "written blk", "replayed blk",
                           "chunks", "recovery (us)"});
  for (const char* mode : {"nocp", "periodic"}) {
    bool periodic = strcmp(mode, "periodic") == 0;
    for (int rounds : kRounds) {
      SimEnv env;
      SimDisk disk(&env, SimDisk::Options{});
      uint64_t written = BuildImage(&env, &disk, periodic, rounds);
      CurvePoint p;
      p.mode = mode;
      p.rounds = rounds;
      p.written_blocks = written;
      p.rec = RecoverClone(disk);
      curve.push_back(p);
      curve_table.AddRow(
          {mode, Fmt("%d", rounds),
           Fmt("%llu", static_cast<unsigned long long>(written)),
           Fmt("%llu", static_cast<unsigned long long>(p.rec.payload_blocks)),
           Fmt("%llu", static_cast<unsigned long long>(p.rec.chunks)),
           Fmt("%llu", static_cast<unsigned long long>(p.rec.total_us))});
    }
  }
  printf("\nrecovery time vs log written since checkpoint:\n");
  curve_table.Print();

  std::string json = "{\n \"bench\": \"fig_recovery\",\n \"curve\": [\n";
  for (size_t i = 0; i < curve.size(); i++) {
    json += "  " + CurveJson(curve[i]) +
            (i + 1 < curve.size() ? ",\n" : "\n");
  }
  json += " ]\n}\n";
  return cfg.WriteSummary(json) ? 0 : 1;
}

}  // namespace
}  // namespace lfstx

int main(int argc, char** argv) { return lfstx::Main(argc, argv); }
