// Figure 5 — Impact of the kernel transaction implementation on
// non-transaction workloads.
//
// Paper: Andrew, Bigfile, and the user-level TPC-B system (which uses none
// of the new kernel mechanisms) run on an unmodified kernel and on the
// transaction kernel; every difference is within 1-2% (the only cost a
// non-transaction application pays is the per-buffer check that finds
// transaction locks unnecessary).
#include "bench_common.h"
#include "workloads/andrew.h"
#include "workloads/bigfile.h"

using namespace lfstx;

namespace {

struct KernelResults {
  SimTime andrew = 0;
  SimTime bigfile = 0;
  TpcbMeasurement usertp;
};

/// Andrew, then Bigfile, then user-level TPC-B on one LFS machine, with or
/// without the embedded transaction manager installed.
KernelResults RunOnKernel(bool with_txn_kernel, const BenchConfig& cfg,
                          uint64_t usertp_txns) {
  KernelResults out;
  TpcbRun run = cfg.RunOf(Arch::kUserLfs, /*seed=*/17, 0, usertp_txns);
  run.label = with_txn_kernel ? "fig5_txn_kernel" : "fig5_normal_kernel";
  run.before_load = [&](ArchRig* rig) -> Status {
    Kernel* k = rig->machine->kernel.get();
    if (with_txn_kernel) {
      // Install the embedded manager: hooks live in the read/write path
      // even though nothing in this workload begins a transaction.
      rig->etm = std::make_unique<EmbeddedTxnManager>(rig->env(),
                                                      rig->machine->lfs());
      k->AttachTxnManager(rig->etm.get());
    }
    AndrewBenchmark andrew(k, AndrewBenchmark::Options());
    LFSTX_ASSIGN_OR_RETURN(auto ar, andrew.Run("/andrew"));
    out.andrew = ar.total();
    BigfileBenchmark big(k);
    LFSTX_ASSIGN_OR_RETURN(auto br, big.Run("/bigfile"));
    out.bigfile = br.total();
    return Status::OK();
  };
  out.usertp = MeasureTpcb(run, cfg);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t usertp_txns = cfg.TxnsOr(4000);

  printf("Figure 5: non-transaction performance, normal vs transaction "
         "kernel (LFS)\n\n");
  KernelResults normal = RunOnKernel(false, cfg, usertp_txns);
  KernelResults txn = RunOnKernel(true, cfg, usertp_txns);
  if (!normal.usertp.ok || !txn.usertp.ok) {
    fprintf(stderr, "failed: %s%s\n", normal.usertp.error.c_str(),
            txn.usertp.error.c_str());
    return 1;
  }
  cfg.DumpMetrics("fig5_normal_kernel", normal.usertp.metrics_json,
                  normal.usertp.window);
  cfg.DumpMetrics("fig5_txn_kernel", txn.usertp.metrics_json,
                  txn.usertp.window);

  ResultTable table({"benchmark", "normal kernel", "transaction kernel",
                     "delta", "paper"});
  auto row = [&](const char* name, SimTime a, SimTime b) {
    table.AddRow({name, FormatDuration(a), FormatDuration(b),
                  Fmt("%+.1f%%", 100.0 * (static_cast<double>(b) -
                                          static_cast<double>(a)) /
                                     static_cast<double>(a)),
                  "within 1-2%"});
  };
  row("Andrew", normal.andrew, txn.andrew);
  row("Bigfile", normal.bigfile, txn.bigfile);
  row("User-TP (TPC-B)", normal.usertp.elapsed, txn.usertp.elapsed);
  table.Print();
  printf("\npaper's claim: the transaction kernel costs Andrew, Bigfile "
         "and user-level TPC-B within 1-2%% of the normal kernel.\n");
  return 0;
}
