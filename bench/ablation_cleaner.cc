// Ablation — cleaner placement (paper sections 5.1 and 5.4).
//
// The paper blames the kernel cleaner for much of the gap between the
// simulation's predicted 27% LFS win and the measured 10%: while cleaning,
// it locks the very files the benchmark uses, so "periods of very high
// transaction throughput are interrupted by periods of no transaction
// throughput". Section 5.4 moves the cleaner to user space.
//
// Rows: kernel cleaner — the measured system;
//       user-space cleaner — the section 5.4 redesign;
//       no cleaner — upper bound. Without a cleaner the log must never
//       fill, so this row alone runs on the full RZ55 (1280 cylinders,
//       300 MB) instead of the scaled disk (320 cylinders at the default
//       --scale=4).
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  // The rows set the cleaner placement, so --cleaner is not taken.
  BenchConfig cfg = BenchConfig::FromArgs(
      argc, argv,
      BenchConfig::kUsersFlag | BenchConfig::kWindowFlags |
          BenchConfig::kWorkloadFlags);
  uint64_t warmup = cfg.TxnsOr(8000) / 2;  // push the log toward cleaning
  uint64_t txns = cfg.TxnsOr(8000);

  printf("Ablation: cleaner placement (embedded/LFS, %llu txns "
         "after %llu warm-up)\n\n",
         (unsigned long long)txns, (unsigned long long)warmup);

  struct Row {
    const char* name;
    const char* slug;
    bool enabled;
    Cleaner::Mode mode;
    uint32_t cylinders;  // 0 = the scaled disk
  };
  const Row rows[] = {
      {"kernel cleaner (paper's system)", "kernel", true,
       Cleaner::Mode::kKernel, 0},
      {"user-space cleaner (section 5.4)", "user", true,
       Cleaner::Mode::kUserSpace, 0},
      {"no cleaner (upper bound; full 300 MB RZ55)", "no_cleaner", false,
       Cleaner::Mode::kKernel, DiskGeometry{}.cylinders},
  };

  ResultTable table(
      {"configuration", "TPS", "segments cleaned", "cleaner busy"});
  for (const Row& row : rows) {
    TpcbRun run = cfg.RunOf(Arch::kEmbedded, /*seed=*/31, warmup, txns);
    if (row.cylinders != 0) run.machine.disk.geometry.cylinders = row.cylinders;
    run.machine.start_cleaner = row.enabled;
    run.machine.cleaner.mode = row.mode;
    run.label = std::string("ablation_cleaner_") + row.slug;
    TpcbMeasurement m = MeasureTpcb(run, cfg);
    if (!m.ok) {
      table.AddRow({row.name, "failed: " + m.error, "", ""});
      continue;
    }
    cfg.DumpMetrics(run.label, m.metrics_json, m.window);
    // Both cleaner columns cover the measured window, warm-up excluded.
    table.AddRow({row.name, Fmt("%.2f", m.tps),
                  Fmt("%.0f", m.Get("cleaner.segments_cleaned")),
                  FormatDuration(
                      static_cast<SimTime>(m.Get("cleaner.busy_us.sum")))});
  }
  table.Print();
  printf("\npaper's claim (sections 5.1, 5.4): the kernel cleaner's file "
         "lockout interrupts transaction throughput; a user-space cleaner "
         "interferes only through the disk arm.\n");
  return 0;
}
