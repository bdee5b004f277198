// Ablation — group commit (paper section 4.4).
//
// "Rather than flushing a transaction's blocks immediately upon issuing a
// txn_commit, the process sleeps until a timeout interval has elapsed or
// until sufficiently more transactions have committed to justify the
// write (create a larger segment)."
//
// Sweep the group-commit timeout at several multiprogramming levels. At
// MPL 1 the adaptive mode must flush immediately (waiting would only add
// latency); at higher MPLs batching amortizes segment writes.
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  // The MPL axis sets the terminal count, so --users is not taken.
  BenchConfig cfg = BenchConfig::FromArgs(
      argc, argv,
      BenchConfig::kWindowFlags | BenchConfig::kCleanerFlag |
          BenchConfig::kWorkloadFlags);
  uint64_t txns = cfg.TxnsOr(6000);

  printf("Ablation: group commit timeout sweep (embedded/LFS, %llu total "
         "txns)\n\n",
         (unsigned long long)txns);

  ResultTable table({"MPL", "timeout", "adaptive", "TPS", "flushes",
                     "txns/flush"});
  struct Cfg {
    uint32_t mpl;
    SimTime timeout;
    bool adaptive;
  };
  const Cfg cfgs[] = {
      {1, 0, false},                  {1, 5 * kMillisecond, false},
      {1, 5 * kMillisecond, true},    {4, 0, false},
      {4, 5 * kMillisecond, true},    {8, 5 * kMillisecond, true},
      {8, 20 * kMillisecond, true},
  };
  for (const Cfg& c : cfgs) {
    // The MPL terminals share the transaction stream.
    TpcbRun run = cfg.RunOf(Arch::kEmbedded, /*seed=*/41, 0, txns);
    run.users = c.mpl;
    run.embedded.group_commit.timeout = c.timeout;
    run.embedded.group_commit.adaptive = c.adaptive;
    run.embedded.group_commit.min_txns = std::max<uint32_t>(2, c.mpl);
    run.label = Fmt("ablation_group_commit_mpl%u_t%llu%s", c.mpl,
                    (unsigned long long)(c.timeout / kMillisecond),
                    c.adaptive ? "_adaptive" : "");
    TpcbMeasurement m = MeasureTpcb(run, cfg);
    std::string mpl = Fmt("%u", c.mpl), timeout = FormatDuration(c.timeout);
    const char* adaptive = c.adaptive ? "yes" : "no";
    if (!m.ok) {
      table.AddRow({mpl, timeout, adaptive, "failed: " + m.error, "", ""});
      continue;
    }
    cfg.DumpMetrics(run.label, m.metrics_json, m.window);
    // Both flush columns cover the measured window, the load excluded.
    double flushes = m.Get("txn.embedded.group_commit_flushes");
    double flushed = m.Get("txn.embedded.group_commit_txns_flushed");
    table.AddRow({mpl, timeout, adaptive, Fmt("%.2f", m.tps),
                  Fmt("%.0f", flushes),
                  Fmt("%.2f", flushes == 0 ? 0 : flushed / flushes)});
  }
  table.Print();
  printf("\npaper's claim (section 4.4): a commit that waits for more "
         "commits writes larger segments; at MPL 1 a fixed timeout only adds "
         "latency, which the adaptive mode avoids.\n");
  return 0;
}
