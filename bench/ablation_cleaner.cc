// Ablation — cleaner placement and policy (paper sections 5.1 and 5.4).
//
// The paper blames the kernel cleaner for much of the gap between the
// simulation's predicted 27% LFS win and the measured 10%: while cleaning,
// it locks the very files the benchmark uses, so "periods of very high
// transaction throughput are interrupted by periods of no transaction
// throughput". Section 5.4 moves the cleaner to user space.
//
// Rows: kernel cleaner (greedy) — the measured system;
//       user-space cleaner (greedy) — the section 5.4 redesign;
//       user-space cleaner (cost-benefit) — Rosenblum's policy;
//       no cleaner — upper bound. Without a cleaner the log must never
//       fill, so this row alone runs on the full RZ55 (1280 cylinders,
//       300 MB) instead of the scaled disk (320 cylinders at the default
//       --scale=4).
#include "bench_common.h"

using namespace lfstx;

namespace {

// `cylinders` overrides the scaled disk size when nonzero.
TpcbMeasurement MeasureWithCleaner(const BenchConfig& cfg, bool enabled,
                                   Cleaner::Mode mode, CleanPolicy policy,
                                   uint32_t cylinders, uint64_t warmup,
                                   uint64_t txns) {
  Machine::Options mo = cfg.MachineOptions();
  if (cylinders != 0) mo.disk.geometry.cylinders = cylinders;
  mo.start_cleaner = enabled;
  mo.cleaner.mode = mode;
  mo.cleaner.policy = policy;
  BenchConfig cfg2 = cfg;
  TpcbMeasurement out;
  auto rig = ArchRig::Create(Arch::kEmbedded, mo);
  TpcbConfig tpcb = cfg2.Tpcb();
  Status s = rig->Run([&] {
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb);
    if (!db.ok()) {
      out.error = db.status().ToString();
      return;
    }
    TpcbDriver driver(rig->backend.get(), &db.value(), tpcb, 31);
    if (warmup > 0) {
      auto w = driver.Run(warmup);
      if (!w.ok()) {
        out.error = w.status().ToString();
        return;
      }
    }
    // The cleaner columns cover the measured window, warm-up excluded.
    Cleaner::CleanerStats cleaner0;
    if (rig->machine->cleaner != nullptr) {
      cleaner0 = rig->machine->cleaner->stats();
    }
    auto r = driver.Run(txns);
    if (!r.ok()) {
      out.error = r.status().ToString();
      return;
    }
    out.tps = r.value().tps();
    out.elapsed = r.value().elapsed;
    out.txns = r.value().transactions;
    if (rig->machine->cleaner != nullptr) {
      const Cleaner::CleanerStats& c = rig->machine->cleaner->stats();
      out.cleaner_cleaned = c.segments_cleaned - cleaner0.segments_cleaned;
      out.cleaner_busy = c.busy_us - cleaner0.busy_us;
    }
    out.metrics_json = rig->MetricsJson();
    out.ok = true;
  });
  if (!s.ok() && out.error.empty()) out.error = s.ToString();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  uint64_t warmup = cfg.TxnsOr(8000) / 2;  // push the log toward cleaning
  uint64_t txns = cfg.TxnsOr(8000);

  printf("Ablation: cleaner placement & policy (embedded/LFS, %llu txns "
         "after %llu warm-up)\n\n",
         (unsigned long long)txns, (unsigned long long)warmup);

  struct Row {
    const char* name;
    const char* slug;
    bool enabled;
    Cleaner::Mode mode;
    CleanPolicy policy;
    uint32_t cylinders;  // 0 = the scaled disk
  };
  const Row rows[] = {
      {"kernel cleaner, greedy (paper's system)", "kernel_greedy", true,
       Cleaner::Mode::kKernel, CleanPolicy::kGreedy, 0},
      {"user-space cleaner, greedy (section 5.4)", "user_greedy", true,
       Cleaner::Mode::kUserSpace, CleanPolicy::kGreedy, 0},
      {"user-space cleaner, cost-benefit", "user_cost_benefit", true,
       Cleaner::Mode::kUserSpace, CleanPolicy::kCostBenefit, 0},
      {"no cleaner (upper bound; full 300 MB RZ55)", "no_cleaner", false,
       Cleaner::Mode::kKernel, CleanPolicy::kGreedy,
       DiskGeometry{}.cylinders},
  };

  ResultTable table(
      {"configuration", "TPS", "segments cleaned", "cleaner busy"});
  for (const Row& row : rows) {
    TpcbMeasurement m =
        MeasureWithCleaner(cfg, row.enabled, row.mode, row.policy,
                           row.cylinders, warmup, txns);
    if (!m.ok) {
      table.AddRow({row.name, "failed: " + m.error, "", ""});
      continue;
    }
    cfg.DumpMetrics(std::string("ablation_cleaner_") + row.slug,
                    m.metrics_json);
    table.AddRow({row.name, Fmt("%.2f", m.tps),
                  Fmt("%llu", (unsigned long long)m.cleaner_cleaned),
                  FormatDuration(m.cleaner_busy)});
  }
  table.Print();
  printf("\nexpected shape: kernel cleaner slowest (file lockout), "
         "user-space cleaner close to no-cleaner.\n");
  return 0;
}
