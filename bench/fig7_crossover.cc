// Figure 7 — Total elapsed time (transaction processing + sequential scan)
// as a function of the number of transactions executed before the scan.
//
// Paper: composing Figure 4's transaction rates with Figure 6's scan times
// gives two lines: total_fs(N) = N / TPS_fs + scan_fs. They cross at
// ~134,300 transactions (~2h40m at 13.6 TPS): below that the
// read-optimized system wins overall, beyond it LFS wins.
//
// This bench measures both rates and both scan times (at --scale), prints
// the two series exactly as the figure plots them, and reports the
// crossover. Like the paper it pessimistically charges LFS the
// post-heavy-update scan time for every N.
#include "bench_common.h"

using namespace lfstx;

namespace {

struct FsLine {
  double tps = 0;
  SimTime scan = 0;
  std::string metrics_json;
  double TotalSeconds(uint64_t n) const {
    return static_cast<double>(n) / tps + ToSeconds(scan);
  }
};

Result<FsLine> Measure(Arch arch, const BenchConfig& cfg,
                       uint64_t update_txns) {
  FsLine line;
  std::string error;
  auto rig = ArchRig::Create(arch, cfg.MachineOptions(), cfg.LibTpOptions());
  TpcbConfig tpcb = cfg.Tpcb();
  Status s = rig->Run([&] {
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb);
    if (!db.ok()) {
      error = db.status().ToString();
      return;
    }
    Status sync = rig->machine->fs->SyncAll();
    if (!sync.ok()) {
      error = sync.ToString();
      return;
    }
    TpcbDriver driver(rig->backend.get(), &db.value(), tpcb, 29);
    auto r = driver.Run(update_txns);
    if (!r.ok()) {
      error = r.status().ToString();
      return;
    }
    line.tps = r.value().tps();
    sync = rig->machine->fs->SyncAll();
    if (!sync.ok()) {
      error = sync.ToString();
      return;
    }
    auto scan = RunScan(rig->backend.get(), db.value().accounts.get(),
                        tpcb.account_record_len);
    if (!scan.ok()) {
      error = scan.status().ToString();
      return;
    }
    line.scan = scan.value().elapsed;
    line.metrics_json = rig->MetricsJson();
    PrintRigProfile(cfg, rig.get(), std::string("fig7_") + ArchSlug(arch));
  });
  if (!s.ok() && error.empty()) error = s.ToString();
  if (!error.empty()) return Status::Internal(error);
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  uint64_t updates = cfg.TxnsOr(100000);

  printf("Figure 7: total elapsed time (txns + scan) vs transactions before "
         "the scan (scale 1/%llu, %llu update txns per measurement)\n\n",
         (unsigned long long)cfg.scale, (unsigned long long)updates);

  auto ffs = Measure(Arch::kUserFfs, cfg, updates);
  auto lfs = Measure(Arch::kUserLfs, cfg, updates);
  if (!ffs.ok() || !lfs.ok()) {
    fprintf(stderr, "failed: %s %s\n", ffs.status().ToString().c_str(),
            lfs.status().ToString().c_str());
    return 1;
  }
  cfg.DumpMetrics("fig7_user_ffs", ffs->metrics_json);
  cfg.DumpMetrics("fig7_user_lfs", lfs->metrics_json);

  printf("measured inputs: read-optimized %.2f TPS, scan %s; LFS %.2f TPS, "
         "scan %s\n\n",
         ffs->tps, FormatDuration(ffs->scan).c_str(), lfs->tps,
         FormatDuration(lfs->scan).c_str());

  // Analytic crossover: N/tps_f + scan_f = N/tps_l + scan_l. The lines
  // cross at a positive N only when one system has the faster
  // transactions and the other the faster scan.
  double txn_gap = 1.0 / ffs->tps - 1.0 / lfs->tps;  // s/txn LFS saves
  double scan_gap = ToSeconds(lfs->scan) - ToSeconds(ffs->scan);
  double crossover = txn_gap != 0 ? scan_gap / txn_gap : -1;

  ResultTable table({"transactions", "read-optimized total", "LFS total",
                     "winner"});
  uint64_t max_n = crossover > 0
                       ? static_cast<uint64_t>(crossover * 2)
                       : updates * 4;
  for (int i = 0; i <= 10; i++) {
    uint64_t n = max_n * static_cast<uint64_t>(i) / 10;
    double tf = ffs->TotalSeconds(n);
    double tl = lfs->TotalSeconds(n);
    table.AddRow({Fmt("%llu", (unsigned long long)n), Fmt("%.0fs", tf),
                  Fmt("%.0fs", tl),
                  tf < tl ? "read-optimized" : "LFS"});
  }
  table.Print();

  const char* txn_winner = txn_gap > 0 ? "LFS" : "read-optimized";
  const char* scan_winner = scan_gap < 0 ? "LFS" : "read-optimized";
  std::string why = Fmt(
      "transactions: read-optimized %.2f TPS, LFS %.2f TPS; scan: "
      "read-optimized %s, LFS %s",
      ffs->tps, lfs->tps, FormatDuration(ffs->scan).c_str(),
      FormatDuration(lfs->scan).c_str());
  if (crossover > 0) {
    double hours = crossover / lfs->tps / 3600.0;
    printf("\ncrossover: %.0f transactions (%.1f h at %.1f TPS): %s wins "
           "below it (faster scan), %s above it (faster transactions)\n",
           crossover, hours, lfs->tps, scan_winner, txn_winner);
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
  return 0;
}
