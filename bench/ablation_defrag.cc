// Ablation — the section 5.4 coalescing cleaner.
//
// The paper's closing problem: after a random-update workload, LFS reads
// the account file in key order ~1.5× slower than the read-optimized FS
// (Figure 6). Its proposed fix: "LFS already has a mechanism for
// rearranging the file system, namely the cleaner; this mechanism should
// be used to coalesce files which become fragmented", with one cleaner
// policy running "during idle periods ... based on coalescing and
// clustering of files".
//
// This bench runs the Figure 6 experiment on LFS, then lets the idle-time
// coalescing cleaner rewrite the account file in logical order, and scans
// again: the sequential-read gap closes.
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t updates = cfg.TxnsOr(40000);

  printf("Ablation: coalescing cleaner (section 5.4) — scan before/after "
         "defragmentation, %llu update txns\n\n",
         (unsigned long long)updates);

  TpcbRun run = cfg.RunOf(Arch::kUserLfs, /*seed=*/59, 0, updates);
  run.label = "ablation_defrag";
  SimTime scan_after = 0, defrag_time = 0;
  ScanMeasurement m =
      MeasureScan(run, cfg, [&](ArchRig* rig, TpcbDatabase* db) -> Status {
        // Idle period: coalesce the fragmented account relation.
        LFSTX_ASSIGN_OR_RETURN(
            InodeNum acct,
            rig->machine->fs->LookupPath(cfg.Tpcb().AccountPath()));
        SimTime t0 = rig->env()->Now();
        LFSTX_RETURN_IF_ERROR(rig->machine->cleaner->CoalesceFile(acct));
        defrag_time = rig->env()->Now() - t0;
        LFSTX_ASSIGN_OR_RETURN(
            ScanResult scan, RunScan(rig->backend.get(), db->accounts.get(),
                                     cfg.Tpcb().account_record_len));
        scan_after = scan.elapsed;
        return Status::OK();
      });
  if (!m.updates.ok) {
    fprintf(stderr, "failed: %s\n", m.updates.error.c_str());
    return 1;
  }
  cfg.DumpMetrics(run.label, m.updates.metrics_json, m.updates.window);

  ResultTable table({"phase", "key-order scan time"});
  table.AddRow({"after random updates (Figure 6 state)",
                FormatDuration(m.scan)});
  table.AddRow({"after idle-time coalescing", FormatDuration(scan_after)});
  table.Print();
  printf("\ncoalescing pass itself took %s of idle time\n",
         FormatDuration(defrag_time).c_str());
  printf("paper's claim (section 5.4): a cleaner that coalesces fragmented "
         "files during idle periods would close the Figure 6 gap.\n");
  return 0;
}
