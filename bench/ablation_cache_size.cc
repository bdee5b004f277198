// Ablation — buffer cache size (paper section 4.3).
//
// "The overall transaction time is so dominated by random reads to
// databases too large to cache in main memory that the additional
// sequential bytes written during commit are not noticeable." This sweep
// tests the claim: throughput should track the cache:database ratio, and
// the embedded manager's whole-page commits should never become the
// bottleneck.
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t txns = cfg.TxnsOr(6000);

  printf("Ablation: kernel buffer cache size (embedded/LFS, %llu txns, "
         "database ~%llu MB)\n\n",
         (unsigned long long)txns,
         (unsigned long long)(cfg.Tpcb().accounts *
                              cfg.Tpcb().account_record_len) /
             (1024 * 1024));

  ResultTable table({"cache", "TPS", "disk reads/txn"});
  for (size_t cache_blocks : {384u, 768u, 1536u, 3072u, 6144u}) {
    TpcbRun run = cfg.RunOf(Arch::kEmbedded, /*seed=*/47, txns / 4, txns);
    run.machine.cache_blocks = cache_blocks;
    run.label = Fmt("ablation_cache_%zumb", cache_blocks * 4 / 1024);
    std::string cache = Fmt("%zu MB", cache_blocks * 4 / 1024);
    TpcbMeasurement m = MeasureTpcb(run, cfg);
    if (!m.ok) {
      table.AddRow({cache, "failed: " + m.error, ""});
      continue;
    }
    cfg.DumpMetrics(run.label, m.metrics_json, m.window);
    table.AddRow({cache, Fmt("%.2f", m.tps),
                  Fmt("%.2f", m.Get("disk.reads") /
                                  static_cast<double>(m.txns))});
  }
  table.Print();
  printf("\npaper's claim (section 4.3): transaction time is dominated by "
         "random reads, so TPS tracks the cache:database ratio and the "
         "commit's extra sequential writes are not noticeable.\n");
  return 0;
}
