// Figures 6 and 7 — Sequential (key-order) read performance after random
// transaction updates, and the total-time crossover it implies.
//
// Figure 6. Paper: after 100,000 TPC-B transactions against a freshly
// loaded database, reading the ~160 MB account file in key order is about
// 50% faster on the read-optimized file system than on LFS — FFS paid its
// seeks during the transactions to preserve sequential layout; LFS wrote
// fast and left the file scattered through the log.
//
// Figure 7. Paper: composing Figure 4's transaction rates with Figure 6's
// scan times gives two lines: total_fs(N) = N / TPS_fs + scan_fs. They
// cross at ~134,300 transactions (~2h40m at 13.6 TPS): below that the
// read-optimized system wins overall, beyond it LFS wins. This bench
// composes the two lines from its own two measurements, and like the
// paper pessimistically charges LFS the post-heavy-update scan time for
// every N.
//
// Both file systems run the user-level transaction manager (the paper's
// SCAN setup). Transactions are scaled with --scale like everything else.
#include "bench_common.h"

using namespace lfstx;

namespace {

/// Figure 7's two lines from Figure 6's two measurements, and where they
/// cross.
void PrintCrossover(const BenchConfig& cfg, const ScanMeasurement& ffs,
                    const ScanMeasurement& lfs, uint64_t updates) {
  double ffs_tps = ffs.updates.tps, lfs_tps = lfs.updates.tps;
  auto total = [](double tps, SimTime scan, uint64_t n) {
    return static_cast<double>(n) / tps + ToSeconds(scan);
  };
  // Analytic crossover: N/tps_f + scan_f = N/tps_l + scan_l. The lines
  // cross at a positive N only when one system has the faster
  // transactions and the other the faster scan.
  double txn_gap = 1.0 / ffs_tps - 1.0 / lfs_tps;  // s/txn LFS saves
  double scan_gap = ToSeconds(lfs.scan) - ToSeconds(ffs.scan);
  double crossover = txn_gap != 0 ? scan_gap / txn_gap : -1;

  printf("\nFigure 7: total elapsed time (txns + scan) vs transactions "
         "before the scan, composed from the two rows above\n\n");
  ResultTable table({"transactions", "read-optimized total", "LFS total",
                     "winner"});
  uint64_t max_n = crossover > 0 ? static_cast<uint64_t>(crossover * 2)
                                 : updates * 4;
  for (int i = 0; i <= 10; i++) {
    uint64_t n = max_n * static_cast<uint64_t>(i) / 10;
    double tf = total(ffs_tps, ffs.scan, n);
    double tl = total(lfs_tps, lfs.scan, n);
    table.AddRow({Fmt("%llu", (unsigned long long)n), Fmt("%.0fs", tf),
                  Fmt("%.0fs", tl), tf < tl ? "read-optimized" : "LFS"});
  }
  table.Print();

  const char* txn_winner = txn_gap > 0 ? "LFS" : "read-optimized";
  const char* scan_winner = scan_gap < 0 ? "LFS" : "read-optimized";
  std::string why = Fmt(
      "transactions: read-optimized %.2f TPS, LFS %.2f TPS; scan: "
      "read-optimized %s, LFS %s",
      ffs_tps, lfs_tps, FormatDuration(ffs.scan).c_str(),
      FormatDuration(lfs.scan).c_str());
  if (crossover > 0) {
    printf("\ncrossover: %.0f transactions (%.1f h at %.1f TPS): %s wins "
           "below it (faster scan), %s above it (faster transactions)\n",
           crossover, crossover / lfs_tps / 3600.0, lfs_tps, scan_winner,
           txn_winner);
    printf("  %s\n", why.c_str());
    printf("paper (full scale): ~134,300 transactions, ~2h40m at 13.6 TPS\n");
    printf("scaled paper equivalent (x%llu): ~%.0f transactions\n",
           (unsigned long long)cfg.scale, 134300.0 / cfg.scale);
  } else {
    // Both gaps favour one side (or one is a tie): its line stays below
    // the other's at every N.
    const char* winner = txn_gap > 0 || (txn_gap == 0 && scan_gap < 0)
                             ? "LFS"
                             : "read-optimized";
    printf("\nno crossover: %s wins at every N, with transactions and a "
           "scan at least as fast\n  %s\n",
           winner, why.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t updates = cfg.TxnsOr(100000);

  printf("Figure 6: key-order account scan after %llu random update "
         "transactions (scale 1/%llu)\n\n",
         (unsigned long long)updates, (unsigned long long)cfg.scale);

  ScanMeasurement ffs =
      MeasureScan(cfg.RunOf(Arch::kUserFfs, /*seed=*/23, 0, updates), cfg);
  ScanMeasurement lfs =
      MeasureScan(cfg.RunOf(Arch::kUserLfs, /*seed=*/23, 0, updates), cfg);
  if (!ffs.updates.ok || !lfs.updates.ok) {
    fprintf(stderr, "failed: %s%s\n", ffs.updates.error.c_str(),
            lfs.updates.error.c_str());
    return 1;
  }
  cfg.DumpMetrics("fig6_user_ffs", ffs.updates.metrics_json,
                  ffs.updates.window);
  cfg.DumpMetrics("fig6_user_lfs", lfs.updates.metrics_json,
                  lfs.updates.window);

  ResultTable table({"file system", "scan time", "scan MB/s", "txn phase",
                     "txn TPS"});
  for (const ScanMeasurement* m : {&ffs, &lfs}) {
    table.AddRow({m == &ffs ? "read-optimized" : "LFS",
                  FormatDuration(m->scan), Fmt("%.2f", m->scan_mbps),
                  FormatDuration(m->updates.elapsed),
                  Fmt("%.2f", m->updates.tps)});
  }
  table.Print();

  double ratio =
      static_cast<double>(lfs.scan) / static_cast<double>(ffs.scan);
  printf("\nshape check: paper's read-optimized FS was ~50%% faster "
         "(LFS/FFS scan ratio ~1.5); measured ratio %.2f\n",
         ratio);
  PrintCrossover(cfg, ffs, lfs, updates);
  return 0;
}
