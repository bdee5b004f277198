// Ablation — disk queue scheduling (FIFO vs elevator).
//
// The read-optimized system's deferred write-back only works as well as it
// does because "this write ... is sorted in the disk queue with all other
// I/O to the same device" (section 5.1). With FIFO scheduling the syncer's
// random write-backs would cost full seeks and transaction throughput
// would drop; LFS should barely care because its writes are already
// sequential.
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t txns = cfg.TxnsOr(6000);

  printf("Ablation: disk queue scheduling, user-level manager, %llu txns\n\n",
         (unsigned long long)txns);

  ResultTable table({"file system", "scheduling", "TPS", "avg seek/req"});
  for (Arch arch : {Arch::kUserFfs, Arch::kUserLfs}) {
    for (auto policy :
         {DiskQueue::Policy::kFifo, DiskQueue::Policy::kElevator}) {
      bool fifo = policy == DiskQueue::Policy::kFifo;
      TpcbRun run = cfg.RunOf(arch, /*seed=*/53, txns / 4, txns);
      run.machine.disk.scheduling = policy;
      run.label = Fmt("ablation_sched_%s_%s", ArchSlug(arch),
                      fifo ? "fifo" : "elevator");
      TpcbMeasurement m = MeasureTpcb(run, cfg);
      const char* pol = fifo ? "FIFO" : "elevator";
      if (!m.ok) {
        table.AddRow({ArchName(arch), pol, "failed: " + m.error, ""});
        continue;
      }
      cfg.DumpMetrics(run.label, m.metrics_json);
      double requests = m.Get("disk.request_latency_us.count");
      table.AddRow({ArchName(arch), pol, Fmt("%.2f", m.tps),
                    Fmt("%.2f ms", requests == 0 ? 0
                                                 : m.Get("disk.seek_us") /
                                                       requests / 1000.0)});
    }
  }
  table.Print();
  printf("\npaper's claim (section 5.1): the read-optimized system's "
         "deferred write-backs are sorted in the disk queue with all other "
         "I/O, so the elevator should help it far more than LFS, whose "
         "writes are already sequential.\n");
  return 0;
}
