// Figure 6 — Sequential (key-order) read performance after random
// transaction updates.
//
// Paper: after 100,000 TPC-B transactions against a freshly loaded
// database, reading the ~160 MB account file in key order is about 50%
// faster on the read-optimized file system than on LFS — FFS paid its
// seeks during the transactions to preserve sequential layout; LFS wrote
// fast and left the file scattered through the log.
//
// Both file systems run the user-level transaction manager (the paper's
// SCAN setup). Transactions are scaled with --scale like everything else.
#include "bench_common.h"

using namespace lfstx;

namespace {

struct ScanMeasurement {
  SimTime txn_elapsed = 0;
  double tps = 0;
  SimTime scan_elapsed = 0;
  double scan_mbps = 0;
  bool ok = false;
  std::string error;
  std::string metrics_json;
};

ScanMeasurement MeasureScanAfterUpdates(Arch arch, const BenchConfig& cfg,
                                        uint64_t update_txns) {
  ScanMeasurement out;
  auto rig = ArchRig::Create(arch, cfg.MachineOptions(), cfg.LibTpOptions());
  TpcbConfig tpcb = cfg.Tpcb();
  Status s = rig->Run([&] {
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb);
    if (!db.ok()) {
      out.error = db.status().ToString();
      return;
    }
    Status sync = rig->machine->fs->SyncAll();
    if (!sync.ok()) {
      out.error = sync.ToString();
      return;
    }
    TpcbDriver driver(rig->backend.get(), &db.value(), tpcb, 23);
    auto r = driver.Run(update_txns);
    if (!r.ok()) {
      out.error = r.status().ToString();
      return;
    }
    out.txn_elapsed = r.value().elapsed;
    out.tps = r.value().tps();
    // Settle dirty state so the scan measures read behaviour only.
    sync = rig->machine->fs->SyncAll();
    if (!sync.ok()) {
      out.error = sync.ToString();
      return;
    }
    auto scan = RunScan(rig->backend.get(), db.value().accounts.get(),
                        tpcb.account_record_len);
    if (!scan.ok()) {
      out.error = scan.status().ToString();
      return;
    }
    out.scan_elapsed = scan.value().elapsed;
    out.scan_mbps = scan.value().mb_per_sec;
    out.metrics_json = rig->MetricsJson();
    PrintRigProfile(cfg, rig.get(), std::string("fig6_") + ArchSlug(arch));
    out.error = InvariantSweep(cfg, rig.get(), arch);
    out.ok = out.error.empty();
  });
  if (!s.ok() && out.error.empty()) out.error = s.ToString();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  uint64_t updates = cfg.TxnsOr(100000);

  printf("Figure 6: key-order account scan after %llu random update "
         "transactions (scale 1/%llu)\n\n",
         (unsigned long long)updates, (unsigned long long)cfg.scale);

  ScanMeasurement ffs =
      MeasureScanAfterUpdates(Arch::kUserFfs, cfg, updates);
  ScanMeasurement lfs =
      MeasureScanAfterUpdates(Arch::kUserLfs, cfg, updates);
  if (!ffs.ok || !lfs.ok) {
    fprintf(stderr, "failed: %s%s\n", ffs.error.c_str(), lfs.error.c_str());
    return 1;
  }
  cfg.DumpMetrics("fig6_user_ffs", ffs.metrics_json);
  cfg.DumpMetrics("fig6_user_lfs", lfs.metrics_json);

  ResultTable table({"file system", "scan time", "scan MB/s", "txn phase",
                     "txn TPS"});
  table.AddRow({"read-optimized", FormatDuration(ffs.scan_elapsed),
                Fmt("%.2f", ffs.scan_mbps), FormatDuration(ffs.txn_elapsed),
                Fmt("%.2f", ffs.tps)});
  table.AddRow({"LFS", FormatDuration(lfs.scan_elapsed),
                Fmt("%.2f", lfs.scan_mbps), FormatDuration(lfs.txn_elapsed),
                Fmt("%.2f", lfs.tps)});
  table.Print();

  double ratio = static_cast<double>(lfs.scan_elapsed) /
                 static_cast<double>(ffs.scan_elapsed);
  printf("\nshape check: paper's read-optimized FS was ~50%% faster "
         "(LFS/FFS scan ratio ~1.5); measured ratio %.2f\n",
         ratio);
  return 0;
}
