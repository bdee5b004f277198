// Shared configuration and the one TPC-B measurement path for the
// figure-reproduction benches.
//
// Every bench but fig_recovery, whose recovery curves build their own
// disks and simulations, accepts these (fig_cleaning all but --txns: its
// fill and churn set the work):
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
//   --sample-interval=MS  start the virtual-time metrics sampler: emit a
//                    metric_sample trace event for every metric that
//                    changed, every MS simulated milliseconds
// Every bench accepts:
//   --fsck           run the full invariant-checker sweep (src/check/)
//                    after each measured configuration; a dirty sweep
//                    fails the bench with a nonzero exit (fig_recovery
//                    sweeps after every recovery anyway, so the flag
//                    changes nothing there)
//   --sim-backend=B  simulator execution backend: "fibers" (default) or
//                    "threads" (one OS thread per simulated process — the
//                    slow differential-testing oracle). Traces, metrics
//                    and all measured virtual times are byte-identical
//                    across backends; see SIMULATOR.md. Defaults honour
//                    the LFSTX_SIM_BACKEND environment variable.
// Every bench that runs TPC-B (all but fig_cleaning and fig_recovery) also
// accepts these, except that ablation_group_commit's MPL axis sets the
// terminal count (no --users) and ablation_cleaner's rows set the
// placement (no --cleaner); fig_cleaning accepts only --cleaner, and
// fig_recovery none of them:
//   --users=N        concurrent TPC-B terminals during the measured
//                    window (default 1; load and warmup stay single-user)
//   --profile        print the measured window's "where did the time go"
//                    table: per-transaction phase attribution from the
//                    virtual-clock profiler (sim/profiler.h), plus disk
//                    time by cause (txn/cleaner/checkpoint/syncer)
//   --blame          print causal wait-blame attribution — blame.*
//                    histogram deltas over the measured window (who held
//                    the locks, whose I/O was ahead in the disk queue,
//                    which commit led the group flush) — and include a
//                    "blame" object per configuration in --summary output
//   --cleaner=MODE   cleaner placement: "kernel" (default; locks files
//                    while cleaning) or "user" (section 5.4: interferes
//                    only through the disk arm, so contention shows up as
//                    disk-queue blame instead of lock blame)
// The flags below belong to the benches named in parentheses:
//   --summary=F      (fig4_tps, fig_tail, fig_cleaning, fig_recovery) write
//                    a machine-readable JSON summary of the run to F; the
//                    committed BENCH_*.json baselines are these summaries
//                    (`tools/report.py baseline`)
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
// Any other argument, including a flag this bench does not take, prints
// the flag list and exits 2, and so does a numeric flag whose value is not
// a whole number. So do a bad --trace spec and a --trace-file, --summary
// or --metrics-dir that cannot be written, before anything runs.
// Measured quantities are *virtual* (simulated) times; wall-clock run time
// of the binary is irrelevant.
//
// MeasureTpcb is the one closed-loop TPC-B path: load, SyncAll, warm-up,
// then the measured window. Every windowed number a bench prints is a
// MetricsRegistry Mark()/Delta() pair around that window.
#ifndef LFSTX_BENCH_BENCH_COMMON_H_
#define LFSTX_BENCH_BENCH_COMMON_H_

#include <sys/stat.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <system_error>

#include "check/registry.h"
#include "harness/rig.h"
#include "harness/table.h"
#include "sim/profiler.h"
#include "tpcb/driver.h"
#include "workloads/scan.h"

namespace lfstx {

/// \brief One closed-loop TPC-B measurement: the ArchRig inputs, the
/// driver seed, and the warm-up, measured and terminal counts.
struct TpcbRun {
  Arch arch = Arch::kEmbedded;
  Machine::Options machine;
  LibTp::Options libtp;
  EmbeddedTxnManager::Options embedded;
  uint64_t seed = 17;
  uint64_t warmup = 0;
  uint64_t txns = 0;
  uint64_t users = 1;
  std::string label;  ///< names the run under --profile/--blame
  /// Runs in the simulation before the load (fig5: Andrew, Bigfile).
  std::function<Status(ArchRig*)> before_load;
  /// Runs after the measured window, before the metrics snapshot and the
  /// --fsck sweep (MeasureScan: sync, then scan).
  std::function<Status(ArchRig*, TpcbDatabase*)> after_window;
};

struct BenchConfig {
  uint64_t scale = 4;
  uint64_t txns = 0;  // 0 = bench default
  int64_t readahead = -1;  // -1 = machine default window
  uint64_t users = 0;  // 0 = bench default
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
  std::string offered_tps;  // fig_tail: comma list; "" = default
  uint64_t queue_cap = 64;  // fig_tail: admission-queue bound
  uint64_t exemplars = 8;   // fig_tail: slowest-txns kept per point
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

  /// Flag groups not every bench takes; a bench passes the ones it reads
  /// to FromArgs, and every other group stays an unknown flag.
  enum FlagGroup : unsigned {
    kSummaryFlag = 1,    ///< --summary
    kTailFlags = 2,      ///< --offered-tps, --queue-cap, --exemplars
    kCleaningFlags = 4,  ///< --fullness, --watermark, --arch
    kUsersFlag = 8,      ///< --users
    kWindowFlags = 16,   ///< --profile, --blame
    kCleanerFlag = 32,   ///< --cleaner
    /// --scale, --readahead and the machine's outputs: --metrics-dir,
    /// --trace, --trace-file, --sample-interval
    kMachineFlags = 64,
    kTxnsFlag = 128,     ///< --txns
    kWorkloadFlags = kMachineFlags | kTxnsFlag,
    kTpcbFlags = kUsersFlag | kWindowFlags | kCleanerFlag | kWorkloadFlags,
  };

  static BenchConfig FromArgs(int argc, char** argv, unsigned groups) {
    BenchConfig c;
    const bool tail = groups & kTailFlags;
    const bool cleaning = groups & kCleaningFlags;
    const bool window = groups & kWindowFlags;
    const bool machine = groups & kMachineFlags;
    for (int i = 1; i < argc; i++) {
      if (machine && strncmp(argv[i], "--scale=", 8) == 0) {
        c.scale = std::max<uint64_t>(1, NumericFlag<uint64_t>(argv[i], 8));
      } else if ((groups & kTxnsFlag) && strncmp(argv[i], "--txns=", 7) == 0) {
        c.txns = NumericFlag<uint64_t>(argv[i], 7);
      } else if (machine && strncmp(argv[i], "--readahead=", 12) == 0) {
        c.readahead = NumericFlag<int64_t>(argv[i], 12);
      } else if ((groups & kUsersFlag) &&
                 strncmp(argv[i], "--users=", 8) == 0) {
        c.users = std::max<uint64_t>(1, NumericFlag<uint64_t>(argv[i], 8));
      } else if (machine &&
                 strncmp(argv[i], "--sample-interval=", 18) == 0) {
        c.sample_interval_ms = NumericFlag<uint64_t>(argv[i], 18);
      } else if ((groups & kCleanerFlag) &&
                 strncmp(argv[i], "--cleaner=", 10) == 0) {
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
      } else if (machine && strncmp(argv[i], "--metrics-dir=", 14) == 0) {
        c.metrics_dir = argv[i] + 14;
      } else if (machine && strncmp(argv[i], "--trace=", 8) == 0) {
        c.trace = argv[i] + 8;
      } else if (machine && strncmp(argv[i], "--trace-file=", 13) == 0) {
        c.trace_file = argv[i] + 13;
      } else if ((groups & kSummaryFlag) &&
                 strncmp(argv[i], "--summary=", 10) == 0) {
        c.summary = argv[i] + 10;
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
      } else if (window && strcmp(argv[i], "--profile") == 0) {
        c.profile = true;
      } else if (window && strcmp(argv[i], "--blame") == 0) {
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
    c.CheckOutputs();
    return c;
  }

  /// A run must not end by losing its output: exit 2 up front when the
  /// --trace spec is bad or an output path cannot be written.
  void CheckOutputs() const {
    if (Status s = Tracer(nullptr).EnableSpec(trace); !s.ok()) {
      fprintf(stderr, "bad --trace=%s: %s\n", trace.c_str(),
              s.message().c_str());
      exit(2);
    }
    for (const std::string* path : {&trace_file, &summary}) {
      if (!path->empty() && !CanCreate(*path)) {
        fprintf(stderr, "cannot write %s\n", path->c_str());
        exit(2);
      }
    }
    if (!metrics_dir.empty()) {
      mkdir(metrics_dir.c_str(), 0755);  // an existing directory is fine
      if (access(metrics_dir.c_str(), W_OK | X_OK) != 0) {
        fprintf(stderr, "cannot write into --metrics-dir=%s\n",
                metrics_dir.c_str());
        exit(2);
      }
    }
  }

  /// Whether `path` is a writable file or could be created as one.
  static bool CanCreate(const std::string& path) {
    if (access(path.c_str(), F_OK) == 0) {
      return access(path.c_str(), W_OK) == 0;
    }
    size_t slash = path.rfind('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    return access(dir.empty() ? "/" : dir.c_str(), W_OK | X_OK) == 0;
  }

  /// Write `json` to the --summary file, if one was given. False (after
  /// saying why) when the write fails.
  bool WriteSummary(const std::string& json) const {
    if (summary.empty()) return true;
    FILE* f = fopen(summary.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write summary file %s\n", summary.c_str());
      return false;
    }
    fwrite(json.data(), 1, json.size(), f);
    fclose(f);
    fprintf(stderr, "[bench] summary: %s\n", summary.c_str());
    return true;
  }

  static void PrintUsage(FILE* out, const char* prog) {
    fprintf(out,
            "usage: %s [--fsck] [--sim-backend=fibers|threads]\n"
            "  all but fig_recovery: [--metrics-dir=D] [--trace=SPEC]\n"
            "    [--trace-file=F] [--sample-interval=MS]\n"
            "  TPC-B benches: [--scale=N] [--txns=N] [--readahead=N]\n"
            "    [--users=N] [--profile] [--blame] [--cleaner=kernel|user]\n"
            "    (no --users in ablation_group_commit, no --cleaner in\n"
            "    ablation_cleaner)\n"
            "  fig4_tps, fig_tail, fig_cleaning, fig_recovery: [--summary=F]\n"
            "  fig_tail: [--offered-tps=L] [--queue-cap=N] [--exemplars=K]\n"
            "  fig_cleaning: [--scale=N] [--readahead=N]\n"
            "    [--cleaner=kernel|user] [--fullness=L]\n"
            "    [--watermark=lazy|eager] [--arch=embedded|user_lfs]\n"
            "See the flag list at the top of bench/bench_common.h.\n",
            prog);
  }

  /// The --sim-backend choice, else the LFSTX_SIM_BACKEND default.
  SimBackend Backend() const {
    if (sim_backend == "threads") return SimBackend::kThreads;
    if (sim_backend == "fibers") return SimBackend::kFibers;
    return DefaultSimBackend();
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
    o.sim_backend = Backend();
    if (readahead >= 0) {
      o.readahead_blocks = static_cast<uint32_t>(readahead);
    }
    return o;
  }

  /// Write a configuration's metrics snapshots under `--metrics-dir`: the
  /// whole run (`json`, cumulative from Machine::Build) as `<name>.json`,
  /// and the measured window's change in every metric as
  /// `<name>.window.json`. No-op when the flag was not given. `name` should
  /// identify the configuration, e.g. "fig4_embedded_lfs".
  void DumpMetrics(const std::string& name, const std::string& json,
                   const MetricValues& window) const {
    if (metrics_dir.empty() || json.empty()) return;
    for (const auto& [file, bytes] :
         {std::pair<std::string, std::string>{name, json},
          {name + ".window", MetricValuesJson(window)}}) {
      std::string path = metrics_dir + "/" + file + ".json";
      FILE* f = fopen(path.c_str(), "w");
      if (f == nullptr) {
        fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
      }
      fwrite(bytes.data(), 1, bytes.size(), f);
      fclose(f);
      fprintf(stderr, "[bench] metrics snapshot: %s\n", path.c_str());
    }
  }

  LibTp::Options LibTpOptions() const {
    LibTp::Options o;
    o.pool_pages = std::max<size_t>(192, 1024 / scale);
    return o;
  }

  uint64_t TxnsOr(uint64_t dflt) const {
    return txns != 0 ? txns : dflt / scale;
  }

  uint64_t UsersOr(uint64_t dflt) const { return users != 0 ? users : dflt; }

  /// A TPC-B run of `arch` on this configuration's machine and terminals.
  TpcbRun RunOf(Arch arch, uint64_t seed, uint64_t warmup,
                uint64_t measured) const {
    TpcbRun r;
    r.arch = arch;
    r.machine = MachineOptions();
    r.libtp = LibTpOptions();
    r.seed = seed;
    r.warmup = warmup;
    r.txns = measured;
    r.users = UsersOr(1);
    return r;
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

/// Profiler tag of `a`'s transaction spans: the embedded manager tags its
/// spans "embedded"; both user-level architectures go through LIBTP.
inline const char* MgrOf(Arch a) {
  return a == Arch::kEmbedded ? "embedded" : "libtp";
}

/// One metric of a window; 0 if it was never registered.
inline double At(const MetricValues& w, const std::string& name) {
  auto it = w.find(name);
  return it != w.end() ? it->second : 0;
}

inline uint64_t AtU(const MetricValues& w, const std::string& name) {
  return static_cast<uint64_t>(At(w, name));
}

/// \brief One architecture's TPC-B measurement.
struct TpcbMeasurement {
  double tps = 0;
  SimTime elapsed = 0;
  uint64_t txns = 0;
  std::string mgr;      ///< profiler tag of the measured spans
  MetricValues window;  ///< every metric's change over the measured window
  /// Metrics snapshot taken at the end of the run, while the simulated
  /// machine was still alive. See OBSERVABILITY.md.
  std::string metrics_json;
  bool ok = false;
  std::string error;

  double Get(const std::string& metric) const { return At(window, metric); }
};

/// `mgr`'s transaction spans over a window: the profiler's prof.<mgr>.*
/// histograms and the manager's commit count.
inline Profiler::SpanAgg SpanAggOf(const MetricValues& w,
                                   const std::string& mgr) {
  const std::string p = "prof." + mgr + ".";
  Profiler::SpanAgg agg;
  agg.spans = AtU(w, p + "elapsed_us.count");
  agg.committed = AtU(w, "txn." + mgr + ".committed");
  agg.elapsed_us = AtU(w, p + "elapsed_us.sum");
  for (int i = 0; i < kNumPhases; i++) {
    agg.phase_us[i] =
        AtU(w, p + PhaseName(static_cast<Phase>(i)) + "_us.sum");
  }
  return agg;
}

/// Disk time of one request cause over a window (prof.disk.<cause>.*).
inline Profiler::DiskAgg DiskCauseOf(const MetricValues& w, int cause) {
  const std::string p = std::string("prof.disk.") +
                        IoCauseName(static_cast<IoCause>(cause)) + ".";
  return {AtU(w, p + "requests"), AtU(w, p + "wait_us"),
          AtU(w, p + "service_us")};
}

/// JSON object of a window's blame.* histogram deltas, keys sorted.
inline std::string BlameJson(const MetricValues& w) {
  std::string out = "{";
  for (const auto& [name, v] : w) {
    if (name.rfind("blame.", 0) != 0) continue;
    out += Fmt("%s\"%s\": %.0f", out.size() > 1 ? ", " : "", name.c_str(), v);
  }
  return out + "}";
}

/// One row per blame source: how many wait edges were attributed to it and
/// how much blocked time they carry. Registered-but-idle sources print as
/// zero rows on purpose — "the cleaner caused no blame" is a result.
inline void PrintBlameTable(const std::string& config, const MetricValues& w) {
  printf("\n[blame] %s wait-edge attribution:\n", config.c_str());
  ResultTable t({"source", "edges", "total (us)"});
  bool any = false;
  for (const auto& [name, v] : w) {
    if (name.rfind("blame.", 0) != 0 || name.size() < 4 ||
        name.compare(name.size() - 4, 4, ".sum") != 0) {
      continue;
    }
    std::string base = name.substr(0, name.size() - 4);
    t.AddRow({base, Fmt("%.0f", At(w, base + ".count")), Fmt("%.0f", v)});
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

/// --profile and --blame over one measured window of `window_us`: the
/// phase table of `mgr`'s spans, disk time by request cause (txn /
/// cleaner / checkpoint / syncer), and the blame table.
inline void PrintWindow(const BenchConfig& cfg, const std::string& config,
                        const std::string& mgr, const MetricValues& w,
                        SimTime window_us) {
  if (cfg.profile) {
    PrintProfileTable(config, mgr, SpanAggOf(w, mgr), window_us);
    printf("[profile] %s disk by cause:", config.c_str());
    for (int i = 0; i < kNumIoCauses; i++) {
      Profiler::DiskAgg d = DiskCauseOf(w, i);
      printf(" %s=%llu reqs (wait %llu us, service %llu us)",
             IoCauseName(static_cast<IoCause>(i)),
             static_cast<unsigned long long>(d.requests),
             static_cast<unsigned long long>(d.wait_us),
             static_cast<unsigned long long>(d.service_us));
    }
    printf("\n");
  }
  if (cfg.blame) PrintBlameTable(config, w);
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

/// JSON object mapping cause name -> {"requests","wait_us","service_us"}
/// over a window.
inline std::string DiskCauseJson(const MetricValues& w) {
  std::string out = "{";
  for (int i = 0; i < kNumIoCauses; i++) {
    Profiler::DiskAgg d = DiskCauseOf(w, i);
    out += Fmt(
        "%s\"%s\": {\"requests\": %llu, \"wait_us\": %llu, "
        "\"service_us\": %llu}",
        i > 0 ? ", " : "", IoCauseName(static_cast<IoCause>(i)),
        static_cast<unsigned long long>(d.requests),
        static_cast<unsigned long long>(d.wait_us),
        static_cast<unsigned long long>(d.service_us));
  }
  out += "}";
  return out;
}

/// Stop the cleaner for good (Cleaner::Stop: the pass in flight ends and
/// no other starts), then sync: the checkers' own reads yield, and a pass
/// that ran then would rewrite the log mid-sweep.
inline Status Quiesce(Machine* m) {
  if (m->cleaner != nullptr) m->cleaner->Stop();
  return m->fs->SyncAll();
}

/// --fsck: quiesce, then run every invariant checker (src/check/). OK when
/// the sweep is clean or was not asked for.
inline Status InvariantSweep(const BenchConfig& cfg, ArchRig* rig) {
  if (!cfg.fsck) return Status::OK();
  const char* name = ArchName(rig->arch);
  fprintf(stderr, "[bench] %s: invariant sweep...\n", name);
  LFSTX_RETURN_IF_ERROR(Quiesce(rig->machine.get()));
  CheckSummary summary = RunAllChecks(*rig);
  if (!summary.clean()) {
    return Status::Internal("invariant sweep failed:\n" + summary.ToString());
  }
  fprintf(stderr, "[bench] %s: sweep clean (%zu checkers)\n", name,
          summary.reports.size());
  return Status::OK();
}

/// Boot `rig` and run `fn` in its main process: `fn`'s error, else the
/// boot's.
inline Status RunIn(ArchRig* rig, const std::function<Status()>& fn) {
  Status inner;
  Status boot = rig->Run([&] { inner = fn(); });
  return inner.ok() ? boot : inner;
}

/// The prefix every TPC-B measurement shares, inside `rig`: load the
/// database, SyncAll so the load's dirty backlog is on disk before
/// anything is measured, run `warmup` transactions on a driver seeded
/// `seed`, then hand the database and that driver to `measure`.
inline Status LoadAndWarm(
    ArchRig* rig, const TpcbConfig& tpcb, uint64_t seed, uint64_t warmup,
    const std::function<Status(TpcbDatabase*, TpcbDriver*)>& measure) {
  LFSTX_ASSIGN_OR_RETURN(
      TpcbDatabase db,
      LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb));
  fprintf(stderr, "[bench] %s: warming up...\n", ArchName(rig->arch));
  LFSTX_RETURN_IF_ERROR(rig->machine->fs->SyncAll());
  TpcbDriver driver(rig->backend.get(), &db, tpcb, seed);
  if (warmup > 0) LFSTX_RETURN_IF_ERROR(driver.Run(warmup).status());
  return measure(&db, &driver);
}

/// Build `run`'s rig, load TPC-B, sync, warm up, and measure `run.txns`
/// transactions: on the warm-up driver at one terminal, else on
/// `run.users` terminals seeded `run.seed + p` that split the count (the
/// remainder to terminal 0).
inline TpcbMeasurement MeasureTpcb(const TpcbRun& run,
                                   const BenchConfig& cfg) {
  TpcbMeasurement out;
  out.mgr = MgrOf(run.arch);
  const char* name = ArchName(run.arch);
  fprintf(stderr, "[bench] %s: loading...\n", name);
  auto rig = ArchRig::Create(run.arch, run.machine, run.libtp, run.embedded);
  SimEnv* env = rig->env();
  TpcbConfig tpcb = cfg.Tpcb();
  auto measure = [&](TpcbDatabase* db, TpcbDriver* driver) -> Status {
    MetricValues mark = env->metrics()->Mark();
    fprintf(stderr, "[bench] %s: measuring...\n", name);
    SimTime t0 = env->Now();
    if (run.users <= 1) {
      LFSTX_ASSIGN_OR_RETURN(TpcbDriver::RunStats r, driver->Run(run.txns));
      out.txns = r.transactions;
    } else {
      uint64_t finished = 0;
      Status term_error;
      for (uint64_t p = 0; p < run.users; p++) {
        uint64_t quota =
            run.txns / run.users + (p == 0 ? run.txns % run.users : 0);
        env->Spawn(Fmt("terminal%llu", static_cast<unsigned long long>(p)),
                   [&, quota, p] {
                     TpcbDriver term(rig->backend.get(), db, tpcb,
                                     run.seed + p);
                     auto r = term.Run(quota);
                     if (r.ok()) {
                       out.txns += r.value().transactions;
                     } else if (term_error.ok()) {
                       term_error = r.status();
                     }
                     finished++;
                   });
      }
      while (finished < run.users) env->SleepFor(kMillisecond);
      LFSTX_RETURN_IF_ERROR(term_error);
    }
    out.elapsed = env->Now() - t0;
    out.tps = out.elapsed > 0
                  ? static_cast<double>(out.txns) / ToSeconds(out.elapsed)
                  : 0;
    out.window = env->metrics()->Delta(mark);
    PrintWindow(cfg, run.label.empty() ? ArchSlug(run.arch) : run.label,
                out.mgr, out.window, out.elapsed);
    if (run.after_window) {
      LFSTX_RETURN_IF_ERROR(run.after_window(rig.get(), db));
    }
    out.metrics_json = rig->MetricsJson();
    return InvariantSweep(cfg, rig.get());
  };
  Status s = RunIn(rig.get(), [&]() -> Status {
    if (run.before_load) LFSTX_RETURN_IF_ERROR(run.before_load(rig.get()));
    return LoadAndWarm(rig.get(), tpcb, run.seed, run.warmup, measure);
  });
  out.ok = s.ok();
  if (!s.ok()) out.error = s.ToString();
  return out;
}

/// \brief Fig 6's measurement: an update window, then a key-order scan.
struct ScanMeasurement {
  TpcbMeasurement updates;
  SimTime scan = 0;
  double scan_mbps = 0;
};

/// Load → SyncAll → `run.txns` random TPC-B updates (MeasureTpcb's window)
/// → SyncAll → a key-order scan of the account relation. `then` runs after
/// the scan, before the metrics snapshot and the --fsck sweep.
inline ScanMeasurement MeasureScan(
    TpcbRun run, const BenchConfig& cfg,
    const std::function<Status(ArchRig*, TpcbDatabase*)>& then = nullptr) {
  ScanMeasurement out;
  run.after_window = [&](ArchRig* rig, TpcbDatabase* db) -> Status {
    // Settle dirty state so the scan measures read behaviour only.
    LFSTX_RETURN_IF_ERROR(rig->machine->fs->SyncAll());
    LFSTX_ASSIGN_OR_RETURN(
        ScanResult scan, RunScan(rig->backend.get(), db->accounts.get(),
                                 cfg.Tpcb().account_record_len));
    out.scan = scan.elapsed;
    out.scan_mbps = scan.mb_per_sec;
    return then ? then(rig, db) : Status::OK();
  };
  out.updates = MeasureTpcb(run, cfg);
  return out;
}

}  // namespace lfstx

#endif  // LFSTX_BENCH_BENCH_COMMON_H_
