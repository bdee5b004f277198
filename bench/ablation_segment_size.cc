// Ablation — LFS segment size.
//
// Larger segments amortize the seek better (writes approach sequential
// bandwidth) but make each cleaner pass coarser; tiny segments degrade the
// log toward random writes. DESIGN.md calls this choice out; the paper's
// LFS used 512 KiB segments (128 blocks here).
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv, BenchConfig::kTpcbFlags);
  uint64_t txns = cfg.TxnsOr(6000);

  printf("Ablation: LFS segment size (embedded/LFS, %llu txns)\n\n",
         (unsigned long long)txns);

  ResultTable table({"segment size", "TPS", "partial segments",
                     "blocks/partial", "segs cleaned"});
  for (uint32_t seg_blocks : {16u, 32u, 64u, 128u, 256u}) {
    TpcbRun run = cfg.RunOf(Arch::kEmbedded, /*seed=*/43, 0, txns);
    run.machine.lfs.segment_blocks = seg_blocks;
    run.label = Fmt("ablation_segment_%ukib", seg_blocks * 4);
    std::string size = Fmt("%u KiB", seg_blocks * 4);
    TpcbMeasurement m = MeasureTpcb(run, cfg);
    if (!m.ok) {
      table.AddRow({size, "failed: " + m.error, "", "", ""});
      continue;
    }
    cfg.DumpMetrics(run.label, m.metrics_json, m.window);
    double partials = m.Get("lfs.partial_segments");
    table.AddRow({size, Fmt("%.2f", m.tps), Fmt("%.0f", partials),
                  Fmt("%.1f", partials > 0
                                  ? m.Get("lfs.blocks_written") / partials
                                  : 0),
                  Fmt("%.0f", m.Get("cleaner.segments_cleaned"))});
  }
  table.Print();
  printf("\npaper's claim: LFS writes whole segments (512 KiB in the "
         "paper's LFS) so that its writes approach sequential bandwidth.\n");
  return 0;
}
