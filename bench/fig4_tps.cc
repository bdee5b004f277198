// Figure 4 — Transaction Performance Summary.
//
// Paper (DECstation 5000/200, RZ55, modified TPC-B at MPL 1):
//   user-level on read-optimized FS : 12.3 TPS
//   user-level on LFS               : 13.6 TPS   (LFS ~10% better)
//   embedded in LFS                 : comparable to user-level, slightly
//                                     better — the user-level system pays
//                                     two semaphore system calls per latch
//                                     because the hardware has no
//                                     test-and-set (section 5.1).
//
// This bench regenerates the three bars. Absolute TPS depends on the cost
// model; the paper's *shape* — LFS beats read-optimized by a modest margin
// (dampened by the cleaner), and the kernel manager roughly matches the
// user-level one — is the reproduction target (see EXPERIMENTS.md).
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(
      argc, argv, BenchConfig::kSummaryFlag | BenchConfig::kTpcbFlags);
  uint64_t warmup = cfg.TxnsOr(4000) / 4;
  uint64_t txns = cfg.TxnsOr(12000);

  printf("Figure 4: TPC-B transaction throughput (scale 1/%llu: %llu "
         "accounts, %u-block cache)\n",
         (unsigned long long)cfg.scale,
         (unsigned long long)cfg.Tpcb().accounts,
         (unsigned)cfg.MachineOptions().cache_blocks);
  printf("measuring %llu txns after %llu warm-up txns per configuration "
         "(%llu user%s)...\n\n",
         (unsigned long long)txns, (unsigned long long)warmup,
         (unsigned long long)cfg.UsersOr(1), cfg.UsersOr(1) == 1 ? "" : "s");

  struct Row {
    Arch arch;
    double paper_tps;
  };
  const Row rows[] = {
      {Arch::kUserFfs, 12.3},
      {Arch::kUserLfs, 13.6},
      {Arch::kEmbedded, 13.8},  // "comparable", sync overhead removed
  };

  ResultTable table({"configuration", "TPS", "elapsed", "syscalls/txn",
                     "segs cleaned", "paper TPS"});
  double tps[3] = {0, 0, 0};
  std::string summary_configs;
  int i = 0;
  for (const Row& row : rows) {
    TpcbMeasurement m =
        MeasureTpcb(cfg.RunOf(row.arch, /*seed=*/17, warmup, txns), cfg);
    if (!m.ok) {
      fprintf(stderr, "%s failed: %s\n", ArchName(row.arch), m.error.c_str());
      return 1;
    }
    cfg.DumpMetrics(std::string("fig4_") + ArchSlug(row.arch),
                    m.metrics_json, m.window);
    if (!cfg.summary.empty()) {
      // Coverage: the share of the window inside transaction spans
      // (≤ 1 at MPL 1).
      Profiler::SpanAgg prof = SpanAggOf(m.window, m.mgr);
      if (i > 0) summary_configs += ",\n";
      summary_configs += Fmt(
          "    {\"arch\": \"%s\", \"mgr\": \"%s\", \"tps\": %.4f, "
          "\"elapsed_us\": %llu, \"txns\": %llu, \"coverage\": %.4f,\n"
          "     \"prof\": ",
          ArchSlug(row.arch), m.mgr.c_str(), m.tps,
          (unsigned long long)m.elapsed, (unsigned long long)m.txns,
          m.elapsed > 0 ? static_cast<double>(prof.elapsed_us) /
                              static_cast<double>(m.elapsed)
                        : 0);
      summary_configs += SpanAggJson(prof);
      summary_configs += ",\n     \"disk_cause\": ";
      summary_configs += DiskCauseJson(m.window);
      if (cfg.blame) {
        summary_configs += ",\n     \"blame\": ";
        summary_configs += BlameJson(m.window);
      }
      summary_configs += "}";
    }
    tps[i++] = m.tps;
    table.AddRow({ArchName(row.arch), Fmt("%.2f", m.tps),
                  FormatDuration(m.elapsed),
                  Fmt("%.1f", m.Get("sim.syscalls") /
                                  static_cast<double>(m.txns)),
                  Fmt("%.0f", m.Get("cleaner.segments_cleaned")),
                  Fmt("%.1f", row.paper_tps)});
  }
  table.Print();

  if (!cfg.summary.empty()) {
    std::string json = Fmt(
        "{\n  \"bench\": \"fig4_tps\",\n  \"scale\": %llu,\n"
        "  \"warmup_txns\": %llu,\n  \"measured_txns\": %llu,\n"
        "  \"users\": %llu,\n"
        "  \"configs\": [\n",
        (unsigned long long)cfg.scale, (unsigned long long)warmup,
        (unsigned long long)txns, (unsigned long long)cfg.UsersOr(1));
    json += summary_configs;
    json += "\n  ]\n}\n";
    if (!cfg.WriteSummary(json)) return 1;
  }

  printf("\nshape checks (paper -> measured):\n");
  printf("  LFS vs read-optimized (user-level): paper +10.6%%, measured "
         "%+.1f%%\n",
         100.0 * (tps[1] - tps[0]) / tps[0]);
  printf("  embedded vs user-level (both LFS):  paper \"comparable\" "
         "(kernel slightly ahead), measured %+.1f%%\n",
         100.0 * (tps[2] - tps[1]) / tps[1]);
  return 0;
}
