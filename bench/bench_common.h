// Shared configuration for the figure-reproduction benches.
//
// Every bench accepts:
//   --scale=N        divide the paper's database, cache, and disk by N
//                    (default 4: 250k accounts on a 75 MB disk with a 2 MB
//                    kernel cache — same cache:database and database:disk
//                    ratios as the paper's full-size configuration)
//   --txns=N         measured transactions (default depends on the bench)
//   --readahead=N    clustered-readahead window in blocks (0 disables;
//                    default: the machine's standard window)
//   --metrics-dir=D  write one metrics snapshot JSON per configuration
//                    into directory D (created if absent)
//   --trace=SPEC     enable trace categories ("disk,txn", "all")
//   --trace-file=F   write trace events to F instead of stderr
//   --fsck           run the full invariant-checker sweep (src/check/)
//                    after each measured configuration; a dirty sweep
//                    fails the bench with a nonzero exit
//   --profile        print a per-configuration "where did the time go"
//                    table: per-transaction phase attribution from the
//                    virtual-clock profiler (sim/profiler.h), plus disk
//                    time by cause (txn/cleaner/checkpoint/syncer)
//   --users=N        concurrent TPC-B terminals during the measured
//                    window (default 1; load and warmup stay single-user)
//   --blame          print causal wait-blame attribution — blame.*
//                    histogram deltas over the measured window (who held
//                    the locks, whose I/O was ahead in the disk queue,
//                    which commit led the group flush) — and include a
//                    "blame" object per configuration in --summary output
//   --sample-interval=MS  start the virtual-time metrics sampler: emit a
//                    metric_sample trace event for every metric that
//                    changed, every MS simulated milliseconds
//   --cleaner=MODE   cleaner placement: "kernel" (default; locks files
//                    while cleaning) or "user" (section 5.4: interferes
//                    only through the disk arm, so contention shows up as
//                    disk-queue blame instead of lock blame)
//   --sim-backend=B  simulator execution backend: "fibers" (default) or
//                    "threads" (one OS thread per simulated process — the
//                    slow differential-testing oracle). Traces, metrics
//                    and all measured virtual times are byte-identical
//                    across backends; see SIMULATOR.md. Defaults honour
//                    the LFSTX_SIM_BACKEND environment variable.
// The flags below belong to the benches named in parentheses; any other
// bench rejects them as unknown:
//   --summary=F      (fig4_tps, fig_tail, fig_cleaning, fig_recovery) write
//                    a machine-readable JSON summary of the run to F; the
//                    committed BENCH_*.json baselines are these summaries
//                    (`tools/report.py baseline`)
//   --arrival=KIND   (fig_tail) open-loop arrival process: "poisson"
//                    (default), "bursty", or "diurnal" (see
//                    src/harness/arrivals.h)
//   --offered-tps=L  (fig_tail) comma-separated offered-load sweep in
//                    arrivals per simulated second (default "4,8,16,32")
//   --queue-cap=N    (fig_tail) admission-queue bound; arrivals beyond it
//                    are shed and counted (default 64)
//   --exemplars=K    (fig_tail) keep the K slowest committed transactions
//                    per load point, with full phase breakdowns, for
//                    `tools/report.py tail` p99 attribution (default 8)
//   --fullness=L     (fig_cleaning) comma-separated disk-fullness sweep in
//                    percent of log capacity filled with live data before
//                    the churn phase (default "55,70,85")
//   --watermark=W    (fig_cleaning) restrict the cleaner-watermark axis to
//                    "lazy" (4/8 segments) or "eager" (12/20); default
//                    sweeps both
//   --arch=A         (fig_cleaning) restrict the architecture axis to
//                    "embedded" or "user_lfs"; default sweeps both
//   --help           print the flag list and exit 2
// Any other argument, a bench-specific flag included, prints the flag list
// and exits 2, and so does a numeric flag whose value is not a whole
// number.
// Measured quantities are *virtual* (simulated) times; wall-clock run time
// of the binary is irrelevant.
#ifndef LFSTX_BENCH_BENCH_COMMON_H_
#define LFSTX_BENCH_BENCH_COMMON_H_

#include <sys/stat.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <system_error>

#include "check/registry.h"
#include "harness/rig.h"
#include "harness/table.h"
#include "sim/profiler.h"
#include "tpcb/driver.h"
#include "workloads/scan.h"

namespace lfstx {

struct BenchConfig {
  uint64_t scale = 4;
  uint64_t txns = 0;  // 0 = bench default
  int64_t readahead = -1;  // -1 = machine default window
  uint64_t users = 1;
  uint64_t sample_interval_ms = 0;
  bool fsck = false;
  bool profile = false;
  bool blame = false;
  std::string cleaner_mode;  // "", "kernel", or "user"
  std::string sim_backend;   // "", "threads", or "fibers"
  std::string metrics_dir;
  std::string trace;
  std::string trace_file;
  std::string summary;
  std::string arrival = "poisson";  // fig_tail: arrival-process kind
  std::string offered_tps;          // fig_tail: comma list; "" = default
  uint64_t queue_cap = 64;          // fig_tail: admission-queue bound
  uint64_t exemplars = 8;           // fig_tail: slowest-txns kept per point
  std::string fullness;   // fig_cleaning: comma list of fill pct; "" = default
  std::string watermark;  // fig_cleaning: "lazy"|"eager"; "" = both
  std::string arch;       // fig_cleaning: "embedded"|"user_lfs"; "" = both

  /// The value of numeric flag `arg`, which starts with a `prefix_len`-byte
  /// "--name=" prefix. A value that is empty, not a number, out of range,
  /// negative for an unsigned flag, or followed by anything else prints a
  /// message and exits 2: "--scale=abc" must not run scale 1 instead.
  template <typename T>
  static T NumericFlag(const char* arg, size_t prefix_len) {
    const char* v = arg + prefix_len;
    const char* end = v + strlen(v);
    T n = 0;
    auto [parsed_to, err] = std::from_chars(v, end, n);
    if (err != std::errc() || parsed_to != end) {
      fprintf(stderr, "bad number in %s\n", arg);
      exit(2);
    }
    return n;
  }

  /// Bench-specific flag groups; a bench passes the ones it reads to
  /// FromArgs, and every other group stays an unknown flag.
  enum FlagGroup : unsigned {
    kSummaryFlag = 1,    ///< --summary
    kTailFlags = 2,      ///< --arrival, --offered-tps, --queue-cap, --exemplars
    kCleaningFlags = 4,  ///< --fullness, --watermark, --arch
  };

  static BenchConfig FromArgs(int argc, char** argv, unsigned groups = 0) {
    BenchConfig c;
    const bool tail = groups & kTailFlags;
    const bool cleaning = groups & kCleaningFlags;
    for (int i = 1; i < argc; i++) {
      if (strncmp(argv[i], "--scale=", 8) == 0) {
        c.scale = std::max<uint64_t>(1, NumericFlag<uint64_t>(argv[i], 8));
      } else if (strncmp(argv[i], "--txns=", 7) == 0) {
        c.txns = NumericFlag<uint64_t>(argv[i], 7);
      } else if (strncmp(argv[i], "--readahead=", 12) == 0) {
        c.readahead = NumericFlag<int64_t>(argv[i], 12);
      } else if (strncmp(argv[i], "--users=", 8) == 0) {
        c.users = std::max<uint64_t>(1, NumericFlag<uint64_t>(argv[i], 8));
      } else if (strncmp(argv[i], "--sample-interval=", 18) == 0) {
        c.sample_interval_ms = NumericFlag<uint64_t>(argv[i], 18);
      } else if (strncmp(argv[i], "--cleaner=", 10) == 0) {
        c.cleaner_mode = argv[i] + 10;
        if (c.cleaner_mode != "kernel" && c.cleaner_mode != "user") {
          fprintf(stderr, "bad --cleaner=%s (kernel|user)\n",
                  c.cleaner_mode.c_str());
          exit(2);
        }
      } else if (strncmp(argv[i], "--sim-backend=", 14) == 0) {
        c.sim_backend = argv[i] + 14;
        if (c.sim_backend != "threads" && c.sim_backend != "fibers") {
          fprintf(stderr, "bad --sim-backend=%s (threads|fibers)\n",
                  c.sim_backend.c_str());
          exit(2);
        }
      } else if (strncmp(argv[i], "--metrics-dir=", 14) == 0) {
        c.metrics_dir = argv[i] + 14;
      } else if (strncmp(argv[i], "--trace=", 8) == 0) {
        c.trace = argv[i] + 8;
      } else if (strncmp(argv[i], "--trace-file=", 13) == 0) {
        c.trace_file = argv[i] + 13;
      } else if ((groups & kSummaryFlag) &&
                 strncmp(argv[i], "--summary=", 10) == 0) {
        c.summary = argv[i] + 10;
      } else if (tail && strncmp(argv[i], "--arrival=", 10) == 0) {
        c.arrival = argv[i] + 10;
        if (c.arrival != "poisson" && c.arrival != "bursty" &&
            c.arrival != "diurnal") {
          fprintf(stderr, "bad --arrival=%s (poisson|bursty|diurnal)\n",
                  c.arrival.c_str());
          exit(2);
        }
      } else if (tail && strncmp(argv[i], "--offered-tps=", 14) == 0) {
        c.offered_tps = argv[i] + 14;
      } else if (tail && strncmp(argv[i], "--queue-cap=", 12) == 0) {
        c.queue_cap =
            std::max<uint64_t>(1, NumericFlag<uint64_t>(argv[i], 12));
      } else if (tail && strncmp(argv[i], "--exemplars=", 12) == 0) {
        c.exemplars = NumericFlag<uint64_t>(argv[i], 12);
      } else if (cleaning && strncmp(argv[i], "--fullness=", 11) == 0) {
        c.fullness = argv[i] + 11;
      } else if (cleaning && strncmp(argv[i], "--watermark=", 12) == 0) {
        c.watermark = argv[i] + 12;
        if (c.watermark != "lazy" && c.watermark != "eager") {
          fprintf(stderr, "bad --watermark=%s (lazy|eager)\n",
                  c.watermark.c_str());
          exit(2);
        }
      } else if (cleaning && strncmp(argv[i], "--arch=", 7) == 0) {
        c.arch = argv[i] + 7;
        if (c.arch == "embedded") c.arch = "embedded_lfs";
        if (c.arch != "embedded_lfs" && c.arch != "user_lfs") {
          fprintf(stderr, "bad --arch=%s (embedded|user_lfs)\n",
                  c.arch.c_str());
          exit(2);
        }
      } else if (strcmp(argv[i], "--fsck") == 0) {
        c.fsck = true;
      } else if (strcmp(argv[i], "--profile") == 0) {
        c.profile = true;
      } else if (strcmp(argv[i], "--blame") == 0) {
        c.blame = true;
      } else if (strcmp(argv[i], "--help") == 0 ||
                 strcmp(argv[i], "-h") == 0) {
        PrintUsage(stdout, argv[0]);
        exit(2);
      } else {
        // A typo must not run the default configuration instead.
        fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
        PrintUsage(stderr, argv[0]);
        exit(2);
      }
    }
    return c;
  }

  static void PrintUsage(FILE* out, const char* prog) {
    fprintf(out,
            "usage: %s [--scale=N] [--txns=N] [--readahead=N] [--users=N]\n"
            "    [--metrics-dir=D] [--trace=SPEC] [--trace-file=F] [--fsck]\n"
            "    [--profile] [--blame] [--sample-interval=MS]\n"
            "    [--cleaner=kernel|user] [--sim-backend=fibers|threads]\n"
            "  fig4_tps, fig_tail, fig_cleaning, fig_recovery: [--summary=F]\n"
            "  fig_tail: [--arrival=poisson|bursty|diurnal] [--offered-tps=L]\n"
            "    [--queue-cap=N] [--exemplars=K]\n"
            "  fig_cleaning: [--fullness=L] [--watermark=lazy|eager]\n"
            "    [--arch=embedded|user_lfs]\n"
            "See the flag list at the top of bench/bench_common.h.\n",
            prog);
  }

  TpcbConfig Tpcb() const {
    TpcbConfig t;
    return t.Scaled(scale);
  }

  Machine::Options MachineOptions() const {
    Machine::Options o;
    o.cache_blocks = std::max<size_t>(384, 2048 / scale);
    o.disk.geometry.cylinders =
        static_cast<uint32_t>(std::max<uint64_t>(96, 1280 / scale));
    o.trace_categories = trace;
    o.trace_path = trace_file;
    o.sample_interval = sample_interval_ms * kMillisecond;
    if (cleaner_mode == "user") {
      o.cleaner.mode = Cleaner::Mode::kUserSpace;
    } else if (cleaner_mode == "kernel") {
      o.cleaner.mode = Cleaner::Mode::kKernel;
    }
    if (sim_backend == "threads") {
      o.sim_backend = SimBackend::kThreads;
    } else if (sim_backend == "fibers") {
      o.sim_backend = SimBackend::kFibers;
    }
    if (readahead >= 0) {
      o.readahead_blocks = static_cast<uint32_t>(readahead);
    }
    return o;
  }

  /// Write a metrics snapshot under `--metrics-dir` as `<name>.json`.
  /// No-op when the flag was not given. `name` should identify the
  /// configuration, e.g. "fig4_embedded_lfs".
  void DumpMetrics(const std::string& name, const std::string& json) const {
    if (metrics_dir.empty() || json.empty()) return;
    mkdir(metrics_dir.c_str(), 0755);  // best effort; open reports failure
    std::string path = metrics_dir + "/" + name + ".json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
      return;
    }
    fwrite(json.data(), 1, json.size(), f);
    fclose(f);
    fprintf(stderr, "[bench] metrics snapshot: %s\n", path.c_str());
  }

  LibTp::Options LibTpOptions() const {
    LibTp::Options o;
    o.pool_pages = std::max<size_t>(192, 1024 / scale);
    return o;
  }

  uint64_t TxnsOr(uint64_t dflt) const {
    return txns != 0 ? txns : dflt / scale;
  }
};

/// Filesystem-safe slug for a configuration name, e.g. metrics file names.
inline const char* ArchSlug(Arch a) {
  switch (a) {
    case Arch::kUserFfs: return "user_ffs";
    case Arch::kUserLfs: return "user_lfs";
    case Arch::kEmbedded: return "embedded_lfs";
  }
  return "unknown";
}

/// \brief One architecture's TPC-B measurement.
struct TpcbMeasurement {
  double tps = 0;
  SimTime elapsed = 0;
  uint64_t txns = 0;
  /// Cleaner work over the measured window only (warm-up excluded).
  uint64_t cleaner_cleaned = 0;
  SimTime cleaner_busy = 0;
  uint64_t syscalls = 0;
  bool ok = false;
  std::string error;
  /// Metrics snapshot taken at the end of the measured run, while the
  /// simulated machine was still alive. See OBSERVABILITY.md.
  std::string metrics_json;
  /// Profiler attribution over the *measured* window only (warmup
  /// excluded): which manager tag the spans carried, the span aggregate,
  /// disk time by cause, and the fraction of the measured window covered
  /// by transaction spans (Σ span elapsed / window; ≤ 1 at MPL 1).
  std::string prof_mgr;
  Profiler::SpanAgg prof;
  Profiler::DiskAgg disk_cause[kNumIoCauses];
  double coverage = 0;
  /// Concurrent terminals during the measured window.
  uint64_t users = 1;
  /// blame.* histogram deltas over the measured window as a JSON object
  /// ({"blame.lock.kernel.txn_us.count": N, ...}); empty without --blame.
  std::string blame_json;
};

/// `after - before` for windowed span aggregates.
inline Profiler::SpanAgg SpanAggDelta(const Profiler::SpanAgg& after,
                                      const Profiler::SpanAgg& before) {
  Profiler::SpanAgg d;
  d.spans = after.spans - before.spans;
  d.committed = after.committed - before.committed;
  d.elapsed_us = after.elapsed_us - before.elapsed_us;
  for (int i = 0; i < kNumPhases; i++) {
    d.phase_us[i] = after.phase_us[i] - before.phase_us[i];
  }
  return d;
}

/// `after - before` for windowed per-cause disk aggregates.
inline Profiler::DiskAgg DiskAggDelta(const Profiler::DiskAgg& after,
                                      const Profiler::DiskAgg& before) {
  Profiler::DiskAgg d;
  d.requests = after.requests - before.requests;
  d.wait_us = after.wait_us - before.wait_us;
  d.service_us = after.service_us - before.service_us;
  return d;
}

/// All blame.* metrics (histogram `.count`/`.sum` pairs, in microseconds)
/// currently in the registry. The registered set is fixed per architecture
/// at machine build time, so windowed deltas are schema-stable.
inline std::map<std::string, double> BlameSnapshot(MetricsRegistry* m) {
  std::map<std::string, double> out;
  for (const auto& kv : m->SampleNumeric()) {
    if (kv.first.rfind("blame.", 0) == 0) out[kv.first] = kv.second;
  }
  return out;
}

/// `now - before` per blame metric; metrics absent from `before` count
/// from zero (whole-run blame = delta against an empty baseline).
inline std::map<std::string, double> BlameDelta(
    MetricsRegistry* m, const std::map<std::string, double>& before) {
  std::map<std::string, double> d;
  for (const auto& kv : BlameSnapshot(m)) {
    auto it = before.find(kv.first);
    d[kv.first] = kv.second - (it != before.end() ? it->second : 0);
  }
  return d;
}

/// JSON object for a blame delta, keys sorted (std::map order).
inline std::string BlameJson(const std::map<std::string, double>& delta) {
  std::string out = "{";
  bool first = true;
  for (const auto& kv : delta) {
    out += Fmt("%s\"%s\": %.0f", first ? "" : ", ", kv.first.c_str(),
               kv.second);
    first = false;
  }
  out += "}";
  return out;
}

/// One row per blame source: how many wait edges were attributed to it and
/// how much blocked time they carry. Registered-but-idle sources print as
/// zero rows on purpose — "the cleaner caused no blame" is a result.
inline void PrintBlameTable(const std::string& config,
                            const std::map<std::string, double>& delta) {
  printf("\n[blame] %s wait-edge attribution:\n", config.c_str());
  ResultTable t({"source", "edges", "total (us)"});
  bool any = false;
  for (const auto& kv : delta) {
    const std::string& name = kv.first;
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".sum") != 0) {
      continue;
    }
    std::string base = name.substr(0, name.size() - 4);
    auto cnt = delta.find(base + ".count");
    t.AddRow({base,
              Fmt("%.0f", cnt != delta.end() ? cnt->second : 0),
              Fmt("%.0f", kv.second)});
    any = true;
  }
  if (any) {
    t.Print();
  } else {
    printf("  (no blame histograms registered)\n");
  }
}

/// Print the "where did the time go" attribution table for one manager's
/// spans: per-phase totals, per-transaction averages, and each phase's
/// share of transaction time (phases partition span time exactly, so the
/// shares sum to 100%). `window_us` > 0 additionally prints a coverage
/// line — the fraction of that window inside transaction spans — which CI
/// asserts on.
inline void PrintProfileTable(const std::string& config,
                              const std::string& mgr,
                              const Profiler::SpanAgg& agg,
                              SimTime window_us) {
  if (agg.spans == 0) {
    printf("\n[profile] %s mgr=%s: no transaction spans recorded\n",
           config.c_str(), mgr.c_str());
    return;
  }
  printf("\n[profile] %s mgr=%s: %llu spans (%llu committed)\n",
         config.c_str(), mgr.c_str(),
         static_cast<unsigned long long>(agg.spans),
         static_cast<unsigned long long>(agg.committed));
  ResultTable t({"phase", "total (us)", "per-txn (us)", "% of txn time"});
  for (int i = 0; i < kNumPhases; i++) {
    t.AddRow({PhaseName(static_cast<Phase>(i)),
              Fmt("%llu", static_cast<unsigned long long>(agg.phase_us[i])),
              Fmt("%.1f", static_cast<double>(agg.phase_us[i]) /
                              static_cast<double>(agg.spans)),
              Fmt("%.1f", 100.0 * static_cast<double>(agg.phase_us[i]) /
                              static_cast<double>(agg.elapsed_us))});
  }
  t.AddRow({"total", Fmt("%llu",
                         static_cast<unsigned long long>(agg.elapsed_us)),
            Fmt("%.1f", static_cast<double>(agg.elapsed_us) /
                            static_cast<double>(agg.spans)),
            "100.0"});
  t.Print();
  if (window_us > 0) {
    printf("[profile] %s mgr=%s coverage: %.1f%% of the %llu us window "
           "attributed to transaction spans\n",
           config.c_str(), mgr.c_str(),
           100.0 * static_cast<double>(agg.elapsed_us) /
               static_cast<double>(window_us),
           static_cast<unsigned long long>(window_us));
  }
}

/// One line of disk time by request cause (txn / cleaner / checkpoint /
/// syncer); pairs with the attribution table under --profile.
inline void PrintDiskCauseLine(const std::string& config,
                               const Profiler::DiskAgg cause[kNumIoCauses]) {
  printf("[profile] %s disk by cause:", config.c_str());
  for (int i = 0; i < kNumIoCauses; i++) {
    printf(" %s=%llu reqs (wait %llu us, service %llu us)",
           IoCauseName(static_cast<IoCause>(i)),
           static_cast<unsigned long long>(cause[i].requests),
           static_cast<unsigned long long>(cause[i].wait_us),
           static_cast<unsigned long long>(cause[i].service_us));
  }
  printf("\n");
}

/// Cumulative (whole-run) profile dump for benches that drive a rig
/// directly instead of through MeasureTpcb. Call while the rig is alive
/// (inside or right after its Run block); no-op without --profile.
inline void PrintRigProfile(const BenchConfig& cfg, ArchRig* rig,
                            const std::string& config) {
  if (!cfg.profile && !cfg.blame) return;
  Profiler* prof = rig->env()->profiler();
  if (cfg.profile) {
    std::vector<std::string> tags = prof->SpanTags();
    if (tags.empty()) {
      printf("\n[profile] %s: no transaction spans recorded\n",
             config.c_str());
    }
    for (const std::string& tag : tags) {
      // Whole-run window (includes load/warmup), so coverage here reads as
      // "fraction of the run spent inside transactions".
      PrintProfileTable(config, tag, prof->AggFor(tag), rig->env()->Now());
    }
    Profiler::DiskAgg cause[kNumIoCauses];
    for (int i = 0; i < kNumIoCauses; i++) {
      cause[i] = prof->DiskCauseAgg(static_cast<IoCause>(i));
    }
    PrintDiskCauseLine(config, cause);
  }
  if (cfg.blame) {
    // Whole-run blame: delta against an empty baseline.
    PrintBlameTable(config, BlameDelta(rig->env()->metrics(), {}));
  }
}

/// JSON object for a span aggregate: {"spans":N,...,"phases":{...}}.
/// Keys are emitted in fixed order so the output is deterministic.
inline std::string SpanAggJson(const Profiler::SpanAgg& agg) {
  std::string out = Fmt(
      "{\"spans\": %llu, \"committed\": %llu, \"elapsed_us\": %llu, "
      "\"phases\": {",
      static_cast<unsigned long long>(agg.spans),
      static_cast<unsigned long long>(agg.committed),
      static_cast<unsigned long long>(agg.elapsed_us));
  for (int i = 0; i < kNumPhases; i++) {
    out += Fmt("%s\"%s\": %llu", i > 0 ? ", " : "",
               PhaseName(static_cast<Phase>(i)),
               static_cast<unsigned long long>(agg.phase_us[i]));
  }
  out += "}}";
  return out;
}

/// JSON object mapping cause name -> {"requests","wait_us","service_us"}.
inline std::string DiskCauseJson(const Profiler::DiskAgg cause[kNumIoCauses]) {
  std::string out = "{";
  for (int i = 0; i < kNumIoCauses; i++) {
    out += Fmt(
        "%s\"%s\": {\"requests\": %llu, \"wait_us\": %llu, "
        "\"service_us\": %llu}",
        i > 0 ? ", " : "", IoCauseName(static_cast<IoCause>(i)),
        static_cast<unsigned long long>(cause[i].requests),
        static_cast<unsigned long long>(cause[i].wait_us),
        static_cast<unsigned long long>(cause[i].service_us));
  }
  out += "}";
  return out;
}

/// --fsck: sync, then run every invariant checker (src/check/). Returns
/// why the sweep failed; empty when it is clean or was not asked for.
inline std::string InvariantSweep(const BenchConfig& cfg, ArchRig* rig,
                                  Arch arch) {
  if (!cfg.fsck) return "";
  fprintf(stderr, "[bench] %s: invariant sweep...\n", ArchName(arch));
  Status synced = rig->machine->fs->SyncAll();
  if (!synced.ok()) return synced.ToString();
  CheckSummary summary = RunAllChecks(*rig);
  if (!summary.clean()) return "invariant sweep failed:\n" + summary.ToString();
  fprintf(stderr, "[bench] %s: sweep clean (%zu checkers)\n", ArchName(arch),
          summary.reports.size());
  return "";
}

/// Build a rig, load TPC-B, warm up, and run `measure_txns` transactions.
inline TpcbMeasurement MeasureTpcb(Arch arch, const BenchConfig& cfg,
                                   uint64_t warmup_txns,
                                   uint64_t measure_txns) {
  TpcbMeasurement out;
  fprintf(stderr, "[bench] %s: loading...\n", ArchName(arch));
  auto rig = ArchRig::Create(arch, cfg.MachineOptions(), cfg.LibTpOptions());
  TpcbConfig tpcb = cfg.Tpcb();
  Status run_status = rig->Run([&] {
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb);
    if (!db.ok()) {
      out.error = db.status().ToString();
      return;
    }
    fprintf(stderr, "[bench] %s: warming up...\n", ArchName(arch));
    Status s = rig->machine->fs->SyncAll();
    if (!s.ok()) {
      out.error = s.ToString();
      return;
    }
    TpcbDriver driver(rig->backend.get(), &db.value(), tpcb, /*seed=*/17);
    if (warmup_txns > 0) {
      auto w = driver.Run(warmup_txns);
      if (!w.ok()) {
        out.error = w.status().ToString();
        return;
      }
    }
    uint64_t syscalls0 = rig->env()->stats().syscalls;
    Cleaner::CleanerStats cleaner0;
    if (rig->machine->cleaner != nullptr) {
      cleaner0 = rig->machine->cleaner->stats();
    }
    // Snapshot the profiler so the reported attribution covers exactly the
    // measured window (warmup excluded). The embedded manager tags its
    // spans "embedded"; both user-level architectures go through LIBTP.
    Profiler* prof = rig->env()->profiler();
    out.prof_mgr = arch == Arch::kEmbedded ? "embedded" : "libtp";
    Profiler::SpanAgg prof0 = prof->AggFor(out.prof_mgr);
    Profiler::DiskAgg disk0[kNumIoCauses];
    for (int i = 0; i < kNumIoCauses; i++) {
      disk0[i] = prof->DiskCauseAgg(static_cast<IoCause>(i));
    }
    std::map<std::string, double> blame0;
    if (cfg.blame) blame0 = BlameSnapshot(rig->env()->metrics());
    fprintf(stderr, "[bench] %s: measuring...\n", ArchName(arch));
    out.users = cfg.users;
    if (cfg.users <= 1) {
      auto r = driver.Run(measure_txns);
      if (!r.ok()) {
        out.error = r.status().ToString();
        return;
      }
      out.tps = r.value().tps();
      out.elapsed = r.value().elapsed;
      out.txns = r.value().transactions;
    } else {
      // Multi-user measured window: `users` concurrent terminals splitting
      // the transaction count (remainder to terminal 0), distinct seeds.
      uint64_t per = measure_txns / cfg.users;
      uint64_t rem = measure_txns % cfg.users;
      SimTime t0 = rig->env()->Now();
      uint64_t finished = 0;
      uint64_t done_txns = 0;
      std::string term_error;
      for (uint64_t p = 0; p < cfg.users; p++) {
        uint64_t quota = per + (p == 0 ? rem : 0);
        rig->env()->Spawn(
            Fmt("terminal%llu", static_cast<unsigned long long>(p)),
            [&, quota, p] {
              TpcbDriver term(rig->backend.get(), &db.value(), tpcb,
                              /*seed=*/17 + p);
              auto r = term.Run(quota);
              if (r.ok()) {
                done_txns += r.value().transactions;
              } else if (term_error.empty()) {
                term_error = r.status().ToString();
              }
              finished++;
            });
      }
      while (finished < cfg.users) rig->env()->SleepFor(kMillisecond);
      if (!term_error.empty()) {
        out.error = term_error;
        return;
      }
      out.elapsed = rig->env()->Now() - t0;
      out.txns = done_txns;
      out.tps = out.elapsed > 0 ? 1e6 * static_cast<double>(out.txns) /
                                      static_cast<double>(out.elapsed)
                                : 0;
    }
    out.syscalls = rig->env()->stats().syscalls - syscalls0;
    out.prof = SpanAggDelta(prof->AggFor(out.prof_mgr), prof0);
    for (int i = 0; i < kNumIoCauses; i++) {
      out.disk_cause[i] =
          DiskAggDelta(prof->DiskCauseAgg(static_cast<IoCause>(i)), disk0[i]);
    }
    out.coverage = out.elapsed > 0
                       ? static_cast<double>(out.prof.elapsed_us) /
                             static_cast<double>(out.elapsed)
                       : 0;
    if (cfg.profile) {
      PrintProfileTable(ArchSlug(arch), out.prof_mgr, out.prof, out.elapsed);
      PrintDiskCauseLine(ArchSlug(arch), out.disk_cause);
    }
    if (cfg.blame) {
      std::map<std::string, double> delta =
          BlameDelta(rig->env()->metrics(), blame0);
      out.blame_json = BlameJson(delta);
      PrintBlameTable(ArchSlug(arch), delta);
    }
    if (rig->machine->cleaner != nullptr) {
      const Cleaner::CleanerStats& c = rig->machine->cleaner->stats();
      out.cleaner_cleaned = c.segments_cleaned - cleaner0.segments_cleaned;
      out.cleaner_busy = c.busy_us - cleaner0.busy_us;
    }
    out.metrics_json = rig->MetricsJson();
    out.error = InvariantSweep(cfg, rig.get(), arch);
    out.ok = out.error.empty();
  });
  if (!run_status.ok() && out.error.empty()) {
    out.error = run_status.ToString();
  }
  return out;
}

}  // namespace lfstx

#endif  // LFSTX_BENCH_BENCH_COMMON_H_
