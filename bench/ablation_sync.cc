// Ablation — hardware test-and-set (paper section 5.1, last paragraph).
//
// The measured user-vs-kernel gap in Figure 4 exists because the
// DECstation 5000/200 has no test-and-set instruction: every user-level
// latch acquire/release is a semaphore system call, doubling the
// synchronization cost of the kernel implementation's single system call.
// "Techniques described in [1] (Bershad's fast mutual exclusion) would
// eliminate the performance gap."
//
// This bench runs user-level and embedded TPC-B with and without hardware
// test-and-set.
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t warmup = cfg.TxnsOr(4000) / 4;
  uint64_t txns = cfg.TxnsOr(8000);

  printf("Ablation: user-level synchronization cost (section 5.1)\n");
  printf("%llu txns on LFS, user-level vs embedded, with and without "
         "hardware test-and-set\n\n",
         (unsigned long long)txns);

  ResultTable table({"hardware test-and-set", "user-level TPS",
                     "embedded TPS", "kernel advantage"});
  for (bool tas : {false, true}) {
    auto measure = [&](Arch arch) {
      TpcbRun run = cfg.RunOf(arch, /*seed=*/37, warmup, txns);
      run.machine.costs.hardware_test_and_set = tas;
      run.label = Fmt("ablation_sync_%s_%s", tas ? "tas" : "notas",
                      arch == Arch::kEmbedded ? "embedded" : "user");
      TpcbMeasurement m = MeasureTpcb(run, cfg);
      if (m.ok) cfg.DumpMetrics(run.label, m.metrics_json, m.window);
      return m;
    };
    TpcbMeasurement user = measure(Arch::kUserLfs);
    TpcbMeasurement emb = measure(Arch::kEmbedded);
    if (!user.ok || !emb.ok) {
      fprintf(stderr, "failed: %s %s\n", user.error.c_str(),
              emb.error.c_str());
      return 1;
    }
    table.AddRow({tas ? "yes (Bershad fix)" : "no (DECstation 5000/200)",
                  Fmt("%.2f", user.tps), Fmt("%.2f", emb.tps),
                  Fmt("%+.1f%%", 100.0 * (emb.tps - user.tps) / user.tps)});
  }
  table.Print();
  printf("\npaper's claim (section 5.1): the embedded manager's advantage "
         "is the user-level semaphore system calls, so fast user-level "
         "latches would eliminate the gap.\n");
  return 0;
}
