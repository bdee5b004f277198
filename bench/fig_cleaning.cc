// Cleaning economics (log-economics observatory): write amplification and
// cleaner cost as a function of disk fullness and cleaner watermark, for
// the embedded (kernel cleaner) and user-space LFS architectures.
//
// Each sweep point builds a small LFS machine (256 cylinders — ~120
// segments of 128 blocks), fills it with cold files to the target live
// fullness, then runs a fixed hot-set overwrite churn that forces the
// cleaner to reclaim segments while the byte-provenance accountant
// (src/sim/log_econ.h) charges every disk block to its category. Reported
// per point:
//
//   * the full provenance breakdown (logecon.bytes.*) and both
//     write-amplification figures over the whole run;
//   * churn-window deltas — disk blocks, cleaner-rewrite blocks, and the
//     churn-only physical WA, i.e. the marginal cost of a byte written
//     once the disk has reached the target fullness;
//   * victim utilization percentiles (the `u` of Rosenblum's 2/(1-u)
//     write cost) and sealed-to-clean segment lifetimes.
//
// The headline curve: as fullness rises, the greedy cleaner runs out of
// nearly-dead churn segments and must evict cold, mostly-live victims, so
// victim utilization, churn WA, and write cost all climb — the paper's
// motivation for measuring transaction throughput *with the cleaner on*.
//
// --summary=F writes machine-readable JSON consumed by
// `tools/report.py baseline cleaning` (which regenerates
// BENCH_cleaning.json) and by `tools/report.py cleaning`.
#include "bench_common.h"

#include "sim/log_econ.h"

namespace lfstx {
namespace {

constexpr int kDefaultFullness[] = {55, 70, 85};
constexpr int kChurnRounds = 128;     // hard cap
constexpr int kChurnMinRounds = 16;   // always churn at least this much
constexpr uint64_t kChurnMinVictims = 40;  // ...and until this many picks
constexpr uint32_t kChurnPerRound = 32;  // random 1-block overwrites / round
constexpr uint32_t kFillBlocks = 64;     // per cold filler file

struct Watermark {
  const char* name;
  uint32_t low_water;
  uint32_t high_water;
};
constexpr Watermark kWatermarks[] = {{"lazy", 4, 8}, {"eager", 12, 20}};

struct CleanPoint {
  // configuration
  Arch arch = Arch::kEmbedded;
  const char* cleaner_mode = "kernel";
  int fullness = 0;  // requested, pct of log capacity
  Watermark wm;
  // geometry
  uint32_t nsegments = 0;
  uint32_t segment_blocks = 0;
  // whole-run provenance
  uint64_t disk_blocks = 0;
  uint64_t cat_blocks[kNumLogByteCats] = {};
  uint64_t logical_user_bytes = 0;
  double wa_logical = 0;
  double wa_physical = 0;
  double write_cost = 0;
  // churn-window deltas
  uint64_t churn_disk_blocks = 0;
  uint64_t churn_payload_blocks = 0;  // user_data + wal deltas
  uint64_t churn_cleaner_blocks = 0;
  uint64_t churn_logical_bytes = 0;
  double churn_wa_physical = 0;
  SimTime churn_elapsed = 0;
  double churn_mbps = 0;
  // cleaner & lifecycle
  uint64_t victim_count = 0;
  double victim_mean = 0, victim_p50 = 0, victim_p90 = 0;
  uint64_t lifetime_count = 0;
  double lifetime_mean = 0, lifetime_p50 = 0;
  uint64_t cleaner_rounds = 0;
  uint64_t segments_cleaned = 0;
  double busy_p50 = 0, busy_p99 = 0;
  uint64_t free_segments_end = 0;
  double live_fraction_end = 0;
  // cleaner./wa./logecon. pretty-printed metric section
  std::string pretty;
};

uint64_t CatSum(const LogEcon* le) {
  uint64_t sum = 0;
  for (int c = 0; c < kNumLogByteCats; c++) {
    sum += le->blocks(static_cast<LogByteCat>(c));
  }
  return sum;
}

/// One sweep point, end to end, on a fresh machine.
CleanPoint Measure(const BenchConfig& cfg, Arch arch, int fullness,
                   const Watermark& wm) {
  CleanPoint p;
  p.arch = arch;
  p.fullness = fullness;
  p.wm = wm;

  Machine::Options mo = cfg.MachineOptions();
  // A small log (~120 segments) keeps the fill phase cheap while leaving
  // the fullness axis meaningful; identical across archs and points.
  mo.disk.geometry.cylinders = 256;
  mo.cleaner.low_water = wm.low_water;
  mo.cleaner.high_water = wm.high_water;
  mo.cleaner.poll_interval = 100 * kMillisecond;
  if (cfg.cleaner_mode.empty()) {
    // The paper's pairing: cleaning inside the kernel FS vs. a user-space
    // cleaner process next to the user-space LFS.
    mo.cleaner.mode = arch == Arch::kEmbedded ? Cleaner::Mode::kKernel
                                              : Cleaner::Mode::kUserSpace;
  }
  p.cleaner_mode =
      mo.cleaner.mode == Cleaner::Mode::kKernel ? "kernel" : "user";

  auto rig = ArchRig::Create(arch, mo, cfg.LibTpOptions());
  MetricValues churn;
  Status run = rig->Run([&] {
    SimEnv* env = rig->env();
    Kernel* k = rig->machine->kernel.get();
    Lfs* lfs = rig->machine->lfs();
    LFSTX_CHECK(lfs != nullptr, "fig_cleaning needs an LFS architecture");
    p.nsegments = lfs->nsegments();
    p.segment_blocks = lfs->segment_blocks();
    uint64_t capacity = static_cast<uint64_t>(p.nsegments) * p.segment_blocks;

    // Fill with live data to the target fullness, capped so the fill phase
    // always leaves the writer a few clean segments of headroom (cleaning
    // during fill is safe — rewritten metadata is already dead — just
    // slow).
    uint64_t max_fill =
        static_cast<uint64_t>(p.nsegments - std::max(wm.high_water + 2, 8u)) *
        p.segment_blocks;
    uint64_t target = capacity * static_cast<uint64_t>(p.fullness) / 100;
    if (target > max_fill) target = max_fill;
    Random rng(4200 + static_cast<uint64_t>(p.fullness));
    int nfill = static_cast<int>(target / kFillBlocks);
    std::vector<InodeNum> cold;
    cold.reserve(static_cast<size_t>(nfill));
    for (int i = 0; i < nfill; i++) {
      auto ino = k->Create(Fmt("/cold%d", i));
      LFSTX_CHECK(ino.ok(), "fill create failed");
      cold.push_back(ino.value());
      LFSTX_CHECK(
          k->Write(ino.value(), 0, rng.Bytes(kFillBlocks * kBlockSize)).ok(),
          "fill write failed");
      if (i % 4 == 3) LFSTX_CHECK(k->Sync().ok(), "fill sync failed");
    }
    LFSTX_CHECK(k->Sync().ok(), "post-fill sync failed");

    // Mark the registry: everything after this line is the churn window,
    // the marginal cost of writing at this fullness.
    MetricsRegistry* metrics = env->metrics();
    MetricValues mark = metrics->Mark();
    SimTime t0 = env->Now();

    // Uniform random single-block overwrites: every overwrite kills the
    // block's old log copy, so live bytes decay evenly across all filled
    // segments — the workload behind Rosenblum's u-vs-write-cost curve.
    // (A hot/cold workload would leave the greedy cleaner fully-dead
    // victims at every fullness and flatten the curve.)
    std::string block(kBlockSize, 0);
    for (int round = 0; round < kChurnRounds; round++) {
      memset(block.data(), 'a' + round % 26, block.size());
      for (uint32_t j = 0; j < kChurnPerRound; j++) {
        InodeNum f = cold[static_cast<size_t>(rng.Uniform(cold.size()))];
        uint64_t b = rng.Uniform(kFillBlocks);
        LFSTX_CHECK(k->Write(f, b * kBlockSize, block).ok(),
                    "churn write failed");
      }
      LFSTX_CHECK(k->Sync().ok(), "churn sync failed");
      env->SleepFor(150 * kMillisecond);
      // Once the writer has driven free segments down to the watermark,
      // every further round pays full cleaning cost; a fixed large round
      // count would just re-measure that regime. Stop once the victim
      // histogram has a real population — picks, not completed cleans:
      // at high fullness a pass often nets no free segment, but its pick
      // still samples utilization, which is the curve being measured.
      const MetricHistogram* util_hist =
          env->metrics()->FindHistogram("cleaner.victim_util_pct");
      if (round + 1 >= kChurnMinRounds && util_hist != nullptr &&
          util_hist->count() >= kChurnMinVictims) {
        break;
      }
    }
    // One more poll interval so a mid-pass cleaner finishes inside the
    // measured window.
    env->SleepFor(500 * kMillisecond);

    p.churn_elapsed = env->Now() - t0;
    churn = metrics->Delta(mark);
    p.churn_disk_blocks = AtU(churn, "disk.blocks_written");
    p.churn_logical_bytes = AtU(churn, "logecon.logical_user_bytes");
    p.churn_payload_blocks = (AtU(churn, "logecon.bytes.user_data") +
                              AtU(churn, "logecon.bytes.wal")) /
                             kBlockSize;
    p.churn_cleaner_blocks = AtU(churn, "logecon.bytes.cleaner") / kBlockSize;
    p.churn_wa_physical =
        p.churn_payload_blocks == 0
            ? 0.0
            : static_cast<double>(p.churn_disk_blocks) /
                  static_cast<double>(p.churn_payload_blocks);
    p.churn_mbps = p.churn_elapsed == 0
                       ? 0.0
                       : static_cast<double>(p.churn_logical_bytes) /
                             (1 << 20) /
                             (static_cast<double>(p.churn_elapsed) / 1e6);
    p.free_segments_end = lfs->clean_segments();

    if (cfg.fsck) {
      LFSTX_CHECK(Quiesce(rig->machine.get()).ok(), "quiesce failed");
      CheckSummary sweep = RunAllChecks(*rig);
      LFSTX_CHECK(sweep.clean(), "invariant sweep dirty after churn");
    }
  });
  LFSTX_CHECK(run.ok(), "fig_cleaning run failed");

  // Whole-run accounting, read while the machine is still alive.
  SimEnv* env = rig->env();
  LogEcon* le = env->log_econ();
  p.disk_blocks = rig->machine->disk->stats().blocks_written;
  for (int c = 0; c < kNumLogByteCats; c++) {
    p.cat_blocks[c] = le->blocks(static_cast<LogByteCat>(c));
  }
  LFSTX_CHECK(CatSum(le) == p.disk_blocks,
              "provenance categories do not partition disk blocks");
  p.logical_user_bytes = le->logical_user_bytes();
  p.wa_logical = le->LogicalWriteAmplification();
  p.wa_physical = le->PhysicalWriteAmplification();

  const MetricHistogram* util =
      env->metrics()->FindHistogram("cleaner.victim_util_pct");
  if (util != nullptr && util->count() > 0) {
    p.victim_count = util->count();
    p.victim_mean = util->mean();
    p.victim_p50 = util->Percentile(50);
    p.victim_p90 = util->Percentile(90);
    double u = util->mean() / 100.0;
    if (u >= 1.0) u = 0.999;
    p.write_cost = 2.0 / (1.0 - u);
  } else {
    p.write_cost = 2.0;  // no victims picked: cost-model floor
  }
  const MetricHistogram* lifetime =
      env->metrics()->FindHistogram("lfs.segment_lifetime_us");
  if (lifetime != nullptr) {
    p.lifetime_count = lifetime->count();
    p.lifetime_mean = lifetime->mean();
    p.lifetime_p50 = lifetime->Percentile(50);
  }
  const MetricHistogram* busy = env->metrics()->FindHistogram("cleaner.busy_us");
  if (busy != nullptr && busy->count() > 0) {
    p.busy_p50 = busy->Percentile(50);
    p.busy_p99 = busy->Percentile(99);
  }
  if (rig->machine->cleaner != nullptr) {
    p.cleaner_rounds = rig->machine->cleaner->stats().rounds;
    p.segments_cleaned = rig->machine->cleaner->stats().segments_cleaned;
  }
  for (const auto& kv : env->metrics()->SampleNumeric()) {
    if (kv.first == "logecon.live_fraction") p.live_fraction_end = kv.second;
  }
  p.pretty = env->metrics()->PrettyPrint({"cleaner.", "wa.", "logecon."});
  cfg.DumpMetrics(Fmt("fig_cleaning_%s_f%d_%s", ArchSlug(arch), p.fullness,
                      wm.name),
                  rig->MetricsJson(), churn);
  return p;
}

std::string PointJson(const CleanPoint& p) {
  std::string bytes = "{";
  for (int c = 0; c < kNumLogByteCats; c++) {
    bytes += Fmt("%s\"%s\": %llu", c == 0 ? "" : ", ",
                 LogByteCatName(static_cast<LogByteCat>(c)),
                 static_cast<unsigned long long>(p.cat_blocks[c] * kBlockSize));
  }
  bytes += "}";
  // Built in pieces: Fmt truncates past 512 bytes and a point is ~1 KB.
  std::string out = Fmt(
      "{\"arch\": \"%s\", \"cleaner_mode\": \"%s\", \"fullness_pct\": %d, "
      "\"watermark\": \"%s\", \"low_water\": %u, \"high_water\": %u, "
      "\"nsegments\": %u, \"segment_blocks\": %u, \"disk_blocks\": %llu, ",
      ArchSlug(p.arch), p.cleaner_mode, p.fullness, p.wm.name, p.wm.low_water,
      p.wm.high_water, p.nsegments, p.segment_blocks,
      static_cast<unsigned long long>(p.disk_blocks));
  out += "\"bytes\": " + bytes + ", ";
  out += Fmt(
      "\"logical_user_bytes\": %llu, "
      "\"wa_logical\": %.4f, \"wa_physical\": %.4f, \"write_cost\": %.4f, ",
      static_cast<unsigned long long>(p.logical_user_bytes), p.wa_logical,
      p.wa_physical, p.write_cost);
  out += Fmt(
      "\"churn\": {\"disk_blocks\": %llu, \"payload_blocks\": %llu, "
      "\"cleaner_blocks\": %llu, \"logical_bytes\": %llu, "
      "\"wa_physical\": %.4f, \"elapsed_us\": %llu, \"mbps\": %.4f}, ",
      static_cast<unsigned long long>(p.churn_disk_blocks),
      static_cast<unsigned long long>(p.churn_payload_blocks),
      static_cast<unsigned long long>(p.churn_cleaner_blocks),
      static_cast<unsigned long long>(p.churn_logical_bytes),
      p.churn_wa_physical, static_cast<unsigned long long>(p.churn_elapsed),
      p.churn_mbps);
  out += Fmt(
      "\"victim_util\": {\"count\": %llu, \"mean\": %.2f, \"p50\": %.2f, "
      "\"p90\": %.2f}, "
      "\"segment_lifetime_us\": {\"count\": %llu, \"mean\": %.0f, "
      "\"p50\": %.0f}, ",
      static_cast<unsigned long long>(p.victim_count), p.victim_mean,
      p.victim_p50, p.victim_p90,
      static_cast<unsigned long long>(p.lifetime_count), p.lifetime_mean,
      p.lifetime_p50);
  out += Fmt(
      "\"cleaner\": {\"rounds\": %llu, \"segments_cleaned\": %llu, "
      "\"busy_p50_us\": %.0f, \"busy_p99_us\": %.0f}, "
      "\"free_segments_end\": %llu, \"live_fraction_end\": %.4f}",
      static_cast<unsigned long long>(p.cleaner_rounds),
      static_cast<unsigned long long>(p.segments_cleaned), p.busy_p50,
      p.busy_p99, static_cast<unsigned long long>(p.free_segments_end),
      p.live_fraction_end);
  return out;
}

std::vector<int> FullnessAxis(const BenchConfig& cfg) {
  if (cfg.fullness.empty()) {
    return std::vector<int>(std::begin(kDefaultFullness),
                            std::end(kDefaultFullness));
  }
  std::vector<int> out;
  const char* s = cfg.fullness.c_str();
  while (*s != '\0') {
    char* end = nullptr;
    long v = strtol(s, &end, 10);
    if (end == s) break;
    LFSTX_CHECK(v > 0 && v < 100, "bad --fullness value");
    out.push_back(static_cast<int>(v));
    s = *end == ',' ? end + 1 : end;
  }
  LFSTX_CHECK(!out.empty(), "empty --fullness list");
  return out;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(
      argc, argv,
      BenchConfig::kSummaryFlag | BenchConfig::kCleaningFlags |
          BenchConfig::kCleanerFlag | BenchConfig::kMachineFlags);
  std::vector<int> fullness = FullnessAxis(cfg);
  std::vector<Watermark> wms;
  for (const Watermark& wm : kWatermarks) {
    if (cfg.watermark.empty() || cfg.watermark == wm.name) wms.push_back(wm);
  }

  std::vector<CleanPoint> points;
  for (Arch arch : {Arch::kEmbedded, Arch::kUserLfs}) {
    if (!cfg.arch.empty() && cfg.arch != ArchSlug(arch)) continue;
    ResultTable t({"watermark", "full %", "live frac", "churn WA", "run WA",
                   "victim u p50/p90", "write cost", "cleaned", "churn MB/s"});
    for (const Watermark& wm : wms) {
      for (int f : fullness) {
        CleanPoint p = Measure(cfg, arch, f, wm);
        t.AddRow({wm.name, Fmt("%d", f), Fmt("%.3f", p.live_fraction_end),
                  Fmt("%.2f", p.churn_wa_physical), Fmt("%.2f", p.wa_physical),
                  Fmt("%.0f/%.0f", p.victim_p50, p.victim_p90),
                  Fmt("%.2f", p.write_cost),
                  Fmt("%llu",
                      static_cast<unsigned long long>(p.segments_cleaned)),
                  Fmt("%.2f", p.churn_mbps)});
        points.push_back(std::move(p));
      }
    }
    printf("\ncleaning economics, %s (%s cleaner):\n", ArchName(arch),
           points.back().cleaner_mode);
    t.Print();
    printf("\nmetrics at %d%% fullness (%s watermark):\n",
           points.back().fullness, points.back().wm.name);
    printf("%s", points.back().pretty.c_str());
  }

  std::string json = "{\n \"bench\": \"fig_cleaning\",\n \"points\": [\n";
  for (size_t i = 0; i < points.size(); i++) {
    json += "  " + PointJson(points[i]) +
            (i + 1 < points.size() ? ",\n" : "\n");
  }
  json += " ]\n}\n";
  return cfg.WriteSummary(json) ? 0 : 1;
}

}  // namespace
}  // namespace lfstx

int main(int argc, char** argv) { return lfstx::Main(argc, argv); }
