// Tail-latency observatory: open-loop offered-load sweep.
//
// The figure benches answer the paper's throughput questions under
// closed-loop load, where each terminal waits for its previous transaction
// and the offered rate politely collapses whenever the system slows down.
// Real transaction traffic does not collapse: requests keep arriving while
// the cleaner runs or a convoy forms, queueing delay compounds, and the
// interesting number becomes the p99/p99.9 *sojourn* (arrival to commit),
// not the mean. This bench sweeps offered load (arrivals per simulated
// second) per architecture through the open-loop harness
// (src/harness/open_loop.h): a deterministic arrival process feeds a
// bounded admission queue drained by `--users` server processes; overflow
// arrivals are shed and counted.
//
// Per load point the summary JSON carries goodput vs offered, full HDR
// percentile curves (p50/p90/p95/p99/p99.9/max) for sojourn, queue wait
// and service time, queue-depth extremes, and the K slowest committed
// transactions with their exact profiler phase breakdowns. Feed it — plus
// a `--trace=prof,blame --trace-file=F` trace — to `tools/report.py
// tail` for per-exemplar "why is p99 slow" attribution, and to
// `tools/report.py baseline tail` for the committed BENCH_tail.json
// baseline.
#include "bench_common.h"
#include "harness/open_loop.h"

using namespace lfstx;

namespace {

std::vector<double> ParseOfferedList(const std::string& spec) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    char* end = nullptr;
    double v = strtod(item.c_str(), &end);
    if (end == item.c_str() || v <= 0) {
      fprintf(stderr, "bad --offered-tps entry \"%s\"\n", item.c_str());
      exit(2);
    }
    out.push_back(v);
    pos = comma + 1;
  }
  if (out.empty()) {
    fprintf(stderr, "--offered-tps needs at least one rate\n");
    exit(2);
  }
  return out;
}

std::string HistJson(const HdrHistogram& h) {
  return Fmt(
      "{\"count\": %llu, \"sum\": %.0f, \"mean\": %.3f, \"p50\": %.3f, "
      "\"p90\": %.3f, \"p95\": %.3f, \"p99\": %.3f, \"p999\": %.3f, "
      "\"min\": %llu, \"max\": %llu}",
      (unsigned long long)h.count(), h.sum(), h.mean(), h.Percentile(50),
      h.Percentile(90), h.Percentile(95), h.Percentile(99),
      h.Percentile(99.9), (unsigned long long)h.min(),
      (unsigned long long)h.max());
}

std::string ExemplarJson(const TailExemplar& ex) {
  std::string out = Fmt(
      "{\"txn\": %llu, \"arrival_us\": %llu, \"queued_us\": %llu, "
      "\"service_us\": %llu, \"sojourn_us\": %llu, "
      "\"deadlock_retries\": %llu, \"phases\": {",
      (unsigned long long)ex.txn, (unsigned long long)ex.arrival,
      (unsigned long long)ex.queued_us, (unsigned long long)ex.service_us,
      (unsigned long long)ex.sojourn_us,
      (unsigned long long)ex.deadlock_retries);
  for (int i = 0; i < kNumPhases; i++) {
    out += Fmt("%s\"%s\": %llu", i > 0 ? ", " : "",
               PhaseName(static_cast<Phase>(i)),
               (unsigned long long)ex.phase_us[i]);
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(
      argc, argv,
      BenchConfig::kSummaryFlag | BenchConfig::kTailFlags |
          BenchConfig::kTpcbFlags);
  // Open-loop load wants a real server pool: 100 concurrent servers
  // unless the caller sized it.
  cfg.users = cfg.UsersOr(100);

  std::vector<double> offered = ParseOfferedList(
      cfg.offered_tps.empty() ? "4,8,16,32" : cfg.offered_tps);
  uint64_t target = cfg.txns != 0 ? cfg.txns : 400;
  uint64_t warmup = target / 4;
  TpcbConfig tpcb = cfg.Tpcb();

  printf("Tail latency under open-loop poisson arrivals (scale 1/%llu: "
         "%llu accounts, %llu servers, queue cap %llu, %llu "
         "arrivals/point)\n\n",
         (unsigned long long)cfg.scale,
         (unsigned long long)tpcb.accounts, (unsigned long long)cfg.users,
         (unsigned long long)cfg.queue_cap, (unsigned long long)target);

  const Arch archs[] = {Arch::kUserLfs, Arch::kEmbedded};
  ResultTable table({"configuration", "offered", "goodput", "shed",
                     "p50 (us)", "p95 (us)", "p99 (us)", "p99.9 (us)",
                     "max q"});
  std::string summary_configs;
  int machine = 0;
  for (Arch arch : archs) {
    for (double tps : offered) {
      machine++;
      fprintf(stderr, "[bench] %s @ %g tps: loading...\n", ArchName(arch),
              tps);
      auto rig =
          ArchRig::Create(arch, cfg.MachineOptions(), cfg.LibTpOptions());
      OpenLoopResult res;
      auto measure = [&](TpcbDatabase* db, TpcbDriver*) -> Status {
        fprintf(stderr, "[bench] %s @ %g tps: measuring...\n",
                ArchName(arch), tps);
        OpenLoopOptions opts;
        opts.arrivals.offered_tps = tps;
        opts.workers = cfg.users;
        opts.queue_cap = cfg.queue_cap;
        opts.target_arrivals = target;
        opts.exemplars = cfg.exemplars;
        MetricValues mark = rig->env()->metrics()->Mark();
        SimTime t0 = rig->env()->Now();
        OpenLoopDriver ol(rig->backend.get(), db, tpcb, opts);
        LFSTX_ASSIGN_OR_RETURN(res, ol.Run());
        MetricValues window = rig->env()->metrics()->Delta(mark);
        PrintWindow(cfg, Fmt("%s@%g", ArchSlug(arch), tps), MgrOf(arch),
                    window, rig->env()->Now() - t0);
        cfg.DumpMetrics(Fmt("tail_%s_%g", ArchSlug(arch), tps),
                        rig->MetricsJson(), window);
        return InvariantSweep(cfg, rig.get());
      };
      Status st = RunIn(rig.get(), [&] {
        return LoadAndWarm(rig.get(), tpcb, /*seed=*/17, warmup, measure);
      });
      if (!st.ok()) {
        fprintf(stderr, "%s @ %g tps failed: %s\n", ArchName(arch), tps,
                st.ToString().c_str());
        return 1;
      }

      table.AddRow({ArchName(arch), Fmt("%.1f", tps),
                    Fmt("%.2f", res.goodput_tps()),
                    Fmt("%llu", (unsigned long long)res.shed),
                    Fmt("%.0f", res.sojourn.Percentile(50)),
                    Fmt("%.0f", res.sojourn.Percentile(95)),
                    Fmt("%.0f", res.sojourn.Percentile(99)),
                    Fmt("%.0f", res.sojourn.Percentile(99.9)),
                    Fmt("%llu", (unsigned long long)res.max_queue_depth)});

      if (!cfg.summary.empty()) {
        if (!summary_configs.empty()) summary_configs += ",\n";
        summary_configs += Fmt(
            "    {\"arch\": \"%s\", \"machine\": %d, \"offered_tps\": %g, "
            "\"arrivals\": %llu, \"admitted\": %llu, \"shed\": %llu,\n"
            "     \"completed\": %llu, \"committed\": %llu, "
            "\"deadlock_retries\": %llu, \"elapsed_us\": %llu, "
            "\"nominal_us\": %llu, \"goodput_tps\": %.4f,\n"
            "     \"queue\": {\"cap\": %llu, \"max_depth\": %llu, "
            "\"max_in_flight\": %llu},\n",
            ArchSlug(arch), machine, tps, (unsigned long long)res.arrivals,
            (unsigned long long)res.admitted, (unsigned long long)res.shed,
            (unsigned long long)res.completed,
            (unsigned long long)res.committed,
            (unsigned long long)res.deadlock_retries,
            (unsigned long long)res.elapsed_us,
            (unsigned long long)res.nominal_us, res.goodput_tps(),
            (unsigned long long)cfg.queue_cap,
            (unsigned long long)res.max_queue_depth,
            (unsigned long long)res.max_in_flight);
        summary_configs += "     \"latency\": {\"sojourn\": ";
        summary_configs += HistJson(res.sojourn);
        summary_configs += ",\n                 \"queued\": ";
        summary_configs += HistJson(res.queued);
        summary_configs += ",\n                 \"service\": ";
        summary_configs += HistJson(res.service);
        summary_configs += "},\n     \"exemplars\": [";
        for (size_t i = 0; i < res.exemplars.size(); i++) {
          if (i > 0) summary_configs += ",\n       ";
          summary_configs += ExemplarJson(res.exemplars[i]);
        }
        summary_configs += "]}";
      }
    }
  }
  table.Print();

  if (!cfg.summary.empty()) {
    std::string json = Fmt(
        "{\n  \"bench\": \"fig_tail\",\n  \"scale\": %llu,\n"
        "  \"users\": %llu,\n  \"arrival\": \"poisson\",\n"
        "  \"queue_cap\": %llu,\n  \"target_arrivals\": %llu,\n"
        "  \"exemplars\": %llu,\n  \"configs\": [\n",
        (unsigned long long)cfg.scale, (unsigned long long)cfg.users,
        (unsigned long long)cfg.queue_cap,
        (unsigned long long)target, (unsigned long long)cfg.exemplars);
    json += summary_configs;
    json += "\n  ]\n}\n";
    if (!cfg.WriteSummary(json)) return 1;
  }
  return 0;
}
