// lfstx_bench: the steady-state benchmark's workload runner.
//
// One single-threaded process runs one workload on the three architectures
// in sequence (user_ffs, user_lfs, embedded_lfs). Per architecture:
//
//   set-up    rig.build, tpcb.load, fs.sync, tpcb.warmup
//   window    `txns` closed-loop TPC-B transactions, MPL 1, no think time
//             (tpcb.measure, or scan.aging on the scan workload)
//   scan      scan workload only: fs.sync, then a key-order account scan
//             (scan.run) on user_ffs and user_lfs
//   tail      tpcb.tail: transactions up to the crash point
//   crash     crash.copy: the platter is copied without SyncAll, so
//             everything still in the kernel cache or LIBTP pool is lost
//   restart   restart.mount on a fresh rig over the copy, then for LIBTP
//             restart.libtp_recover (open without recovery, re-register the
//             four relations in creation order, Recover)
//   verify    atomicity (every balance sum moved by the history's delta sum)
//             and durability (history rows == acknowledged commits)
//
// The last line of stdout is one JSON object: attempted/failed operation
// counts, the failure list, the end-to-end metrics and the per-layer
// metrics. perfbench/run.py turns it into the benchmark result. With
// --trace=1 the runner also records spans (host and virtual start/end,
// parent, SampleNumeric deltas) and writes them to --trace-file, and times
// three host primitives directly. Run with --help for the flags.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <csignal>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "harness/rig.h"
#include "harness/table.h"
#include "libtp/log_record.h"
#include "sim/profiler.h"
#include "tpcb/driver.h"
#include "workloads/scan.h"

namespace lfstx {
namespace {

constexpr Arch kArchs[] = {Arch::kUserFfs, Arch::kUserLfs, Arch::kEmbedded};
constexpr int64_t kInitialBalance = 1000;  // LoadTpcb's opening balance

const char* Slug(Arch a) {
  switch (a) {
    case Arch::kUserFfs: return "user_ffs";
    case Arch::kUserLfs: return "user_lfs";
    case Arch::kEmbedded: return "embedded_lfs";
  }
  return "?";
}

/// Host time of this (single-threaded) process in microseconds: its CPU
/// time, which unlike wall time does not count the moments other tenants
/// of the machine hold the CPU.
double HostUs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

constexpr rlim_t kAddressSpaceCap = rlim_t{2} << 30;

// ---------------------------------------------------------------- CLI ----

struct Workload {
  const char* name;
  uint64_t scale;         // TPC-B scale divisor (4: 250k accounts)
  size_t cache_blocks;    // kernel buffer cache, 4 KiB blocks
  size_t pool_pages;      // LIBTP user pool, 4 KiB pages
  uint32_t cylinders;     // 320 cylinders = the 75 MB disk
  uint64_t warmup;        // warm-up transactions (set-up)
  uint64_t txns;          // transactions in the window
  bool scan;              // window is aging; measure a scan after it
};

// Sizes are fixed so every virtual metric is a pure function of the seed.
constexpr Workload kWorkloads[] = {
    // Fig 4 at steady state: 35 MB account relation against a 2 MB cache
    // and 1 MB pool; the window covers cleaning passes and syncer ticks.
    {"tpcb", 4, 512, 256, 320, 250, 4000, false},
    // Fits in the 8 MB cache and pool: isolates the commit path. The window
    // ends before the log first wraps (embedded_lfs cleans from about txn
    // 1840, user_lfs from 3000): past it each cleaning pass is one 8-9 s
    // stall, too rare for a steady tail, and longer runs meet the restart
    // bugs listed in README.md.
    {"tpcb_cached", 64, 2048, 2048, 320, 200, 1400, false},
    // Fig 6: random updates (the aging window), then a key-order scan.
    // Every workload stays under the ~5800 transactions after which LIBTP
    // takes its first post-load checkpoint: past it the LIBTP restart time
    // depends on where in that cycle the crash falls.
    {"scan", 4, 512, 256, 320, 0, 4000, true},
};

struct Cli {
  Workload w{};
  uint64_t seed = 1;
  bool trace = false;
  std::string trace_file;
  std::vector<Arch> archs;
  SimBackend backend = SimBackend::kFibers;
  double host_budget_s = 150;
  double virt_budget_s = 0;  // 0 = derived from the window size
  uint64_t understate_acks = 0;
};

void Usage(FILE* out) {
  fprintf(out,
          "usage: lfstx_bench --workload=tpcb|tpcb_cached|scan --seed=N\n"
          "                   [--trace=0|1 --trace-file=PATH]\n"
          "                   [--archs=user_ffs,user_lfs,embedded_lfs]\n"
          "                   [--scale=N] [--cylinders=N] [--warmup=N]\n"
          "                   [--txns=N] [--sim-backend=fibers|threads]\n"
          "                   [--host-budget-s=S] [--virt-budget-s=S]\n"
          "                   [--understate-acks=N]\n"
          "Every flag takes the --name=value form. --scale, --cylinders,\n"
          "--warmup and --txns override the workload's fixed sizes (for\n"
          "self-tests); --understate-acks lowers the verifier's expected\n"
          "commit count to prove it flags a mismatch.\n");
}

[[noreturn]] void BadUsage(const char* why, const char* arg) {
  fprintf(stderr, "lfstx_bench: %s: %s\n", why, arg);
  Usage(stderr);
  exit(2);
}

uint64_t ParseUint(const char* arg, const char* v) {
  char* end = nullptr;
  errno = 0;
  unsigned long long x = strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || *end != '\0' || errno != 0) {
    BadUsage("not a non-negative integer", arg);
  }
  return x;
}

double ParsePositive(const char* arg, const char* v) {
  char* end = nullptr;
  double x = strtod(v, &end);
  if (*v == '\0' || *end != '\0' || !(x > 0) || !std::isfinite(x)) {
    BadUsage("not a positive number", arg);
  }
  return x;
}

Cli ParseCli(int argc, char** argv) {
  Cli c;
  bool have_workload = false;
  bool have_seed = false;
  int64_t scale = -1, cylinders = -1, warmup = -1, txns = -1;
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (strcmp(arg, "--help") == 0 || strcmp(arg, "-h") == 0) {
      Usage(stdout);
      exit(2);
    }
    const char* eq = strchr(arg, '=');
    if (strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      BadUsage("expected --name=value", arg);
    }
    std::string key(arg + 2, eq);
    const char* v = eq + 1;
    if (key == "workload") {
      have_workload = false;
      for (const Workload& w : kWorkloads) {
        if (strcmp(v, w.name) == 0) {
          c.w = w;
          have_workload = true;
        }
      }
      if (!have_workload) BadUsage("unknown workload", arg);
    } else if (key == "seed") {
      c.seed = ParseUint(arg, v);
      have_seed = true;
    } else if (key == "trace") {
      if (strcmp(v, "0") != 0 && strcmp(v, "1") != 0) {
        BadUsage("--trace takes 0 or 1", arg);
      }
      c.trace = v[0] == '1';
    } else if (key == "trace-file") {
      c.trace_file = v;
    } else if (key == "archs") {
      c.archs.clear();
      std::string list(v);
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        std::string name = list.substr(pos, comma - pos);
        bool found = false;
        for (Arch a : kArchs) {
          if (name == Slug(a)) {
            c.archs.push_back(a);
            found = true;
          }
        }
        if (!found) BadUsage("unknown architecture", arg);
        pos = comma + 1;
      }
    } else if (key == "scale") {
      scale = static_cast<int64_t>(ParseUint(arg, v));
      if (scale < 1) BadUsage("--scale must be >= 1", arg);
    } else if (key == "cylinders") {
      cylinders = static_cast<int64_t>(ParseUint(arg, v));
      if (cylinders < 16) BadUsage("--cylinders must be >= 16", arg);
    } else if (key == "warmup") {
      warmup = static_cast<int64_t>(ParseUint(arg, v));
    } else if (key == "txns") {
      txns = static_cast<int64_t>(ParseUint(arg, v));
      if (txns < 1) BadUsage("--txns must be >= 1", arg);
    } else if (key == "sim-backend") {
      if (strcmp(v, "fibers") == 0) {
        c.backend = SimBackend::kFibers;
      } else if (strcmp(v, "threads") == 0) {
        c.backend = SimBackend::kThreads;
      } else {
        BadUsage("--sim-backend takes fibers or threads", arg);
      }
    } else if (key == "host-budget-s") {
      c.host_budget_s = ParsePositive(arg, v);
    } else if (key == "virt-budget-s") {
      c.virt_budget_s = ParsePositive(arg, v);
    } else if (key == "understate-acks") {
      c.understate_acks = ParseUint(arg, v);
    } else {
      BadUsage("unknown flag", arg);
    }
  }
  if (!have_workload) BadUsage("missing flag", "--workload");
  if (!have_seed) BadUsage("missing flag", "--seed");
  if (c.trace && c.trace_file.empty()) {
    BadUsage("--trace=1 needs", "--trace-file");
  }
  if (c.archs.empty()) c.archs.assign(std::begin(kArchs), std::end(kArchs));
  if (scale > 0) c.w.scale = static_cast<uint64_t>(scale);
  if (cylinders > 0) c.w.cylinders = static_cast<uint32_t>(cylinders);
  if (warmup >= 0) c.w.warmup = static_cast<uint64_t>(warmup);
  if (txns > 0) c.w.txns = static_cast<uint64_t>(txns);
  return c;
}

// ----------------------------------------------------------- counters ----

using Sample = std::vector<std::pair<std::string, double>>;

/// after - before by name (both sorted, as SampleNumeric returns them);
/// names absent from `before` count from zero. Zero deltas are dropped.
Sample SampleDelta(const Sample& after, const Sample& before) {
  Sample d;
  size_t j = 0;
  for (const auto& [name, v] : after) {
    while (j < before.size() && before[j].first < name) j++;
    double b = j < before.size() && before[j].first == name ? before[j].second
                                                            : 0;
    if (v != b) d.emplace_back(name, v - b);
  }
  return d;
}

double Get(const Sample& s, const std::string& name) {
  auto it = std::lower_bound(
      s.begin(), s.end(), name,
      [](const std::pair<std::string, double>& e, const std::string& n) {
        return e.first < n;
      });
  return it != s.end() && it->first == name ? it->second : 0;
}

// -------------------------------------------------------------- spans ----

/// In-memory span log for the traced run. Spans nest (the parent is the
/// innermost open span); each carries host and virtual start/end and the
/// SampleNumeric deltas over its interval. Written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  /// `host_start` < 0 means now; rig.build passes the host time at which
  /// the rig was constructed, before its env existed.
  int Begin(const char* name, uint64_t id, const char* arch, SimEnv* env,
            double host_start = -1) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.id = id;
    s.arch = arch;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.v0 = env->Now();
    s.before = env->metrics()->SampleNumeric();
    s.h0 = host_start >= 0 ? host_start : HostUs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int idx, SimEnv* env) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.h1 = HostUs();
    s.v1 = env->Now();
    s.deltas = SampleDelta(env->metrics()->SampleNumeric(), s.before);
    s.before.clear();
    s.before.shrink_to_fit();
    stack_.pop_back();
  }

  bool Write(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      fprintf(f,
              "{\"span\": %zu, \"name\": \"%s\", \"id\": %llu, "
              "\"parent\": %d, \"arch\": \"%s\", \"host_start_us\": %.1f, "
              "\"host_end_us\": %.1f, \"virt_start_us\": %llu, "
              "\"virt_end_us\": %llu, \"deltas\": {",
              i, s.name.c_str(), static_cast<unsigned long long>(s.id),
              s.parent, s.arch.c_str(), s.h0, s.h1,
              static_cast<unsigned long long>(s.v0),
              static_cast<unsigned long long>(s.v1));
      for (size_t j = 0; j < s.deltas.size(); j++) {
        fprintf(f, "%s\"%s\": %.17g", j ? ", " : "",
                s.deltas[j].first.c_str(), s.deltas[j].second);
      }
      fprintf(f, "}}\n");
    }
    return fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    uint64_t id = 0;
    std::string arch;
    int parent = -1;
    double h0 = 0, h1 = 0;
    SimTime v0 = 0, v1 = 0;
    Sample before;
    Sample deltas;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id, const char* arch,
             SimEnv* env)
      : log_(log), env_(env), idx_(log->Begin(name, id, arch, env)) {}
  ~ScopedSpan() { log_->End(idx_, env_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SimEnv* env_;
  int idx_;
};

// ----------------------------------------------------------- results ----

/// Everything one run reports, accumulated across architectures.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;

  void Fail(const std::string& why, uint64_t ops = 1) {
    failed += ops;
    failures.push_back(why);
    fprintf(stderr, "[bench] FAILED: %s\n", why.c_str());
  }
  void E2e(const std::string& name, double v, const char* unit) {
    e2e.push_back({name, {v, unit}});
  }
  void Layer(const std::string& name, double v, const char* unit) {
    layer.push_back({name, {v, unit}});
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

void PrintReport(const Report& r, const char* watchdog) {
  auto metrics = [](const auto& list) {
    std::string out = "{";
    for (size_t i = 0; i < list.size(); i++) {
      double v = list[i].second.first;
      out += Fmt("%s\"%s\": [%.17g, \"%s\"]", i ? ", " : "",
                 list[i].first.c_str(), std::isfinite(v) ? v : 0.0,
                 list[i].second.second.c_str());
    }
    return out + "}";
  };
  std::string fails = "[";
  for (size_t i = 0; i < r.failures.size(); i++) {
    fails += Fmt("%s\"%s\"", i ? ", " : "", JsonEscape(r.failures[i]).c_str());
  }
  fails += "]";
  printf("{\"attempted\": %llu, \"failed\": %llu, \"watchdog\": %s, "
         "\"failures\": %s, \"e2e\": %s, \"layer\": %s}\n",
         static_cast<unsigned long long>(r.attempted),
         static_cast<unsigned long long>(r.failed),
         watchdog ? ("\"" + JsonEscape(watchdog) + "\"").c_str() : "null",
         fails.c_str(), metrics(r.e2e).c_str(), metrics(r.layer).c_str());
  fflush(stdout);
}

// ----------------------------------------------------------- watchdog ----

/// Virtual-time budget. A re-arming virtual timer, and a check after each
/// transaction, compare the clock with the deadline; past it the run is
/// reported as failed and the process exits, since a livelocked simulation
/// cannot be unwound. Timer callbacks only read the clock, so they change
/// no simulated state. The host-time budget is ArmHostWatchdog's.
class Watchdog {
 public:
  explicit Watchdog(Report* report) : report_(report) {}

  /// Check every `kTick` of virtual time on `env` until its Run() returns;
  /// `virt_deadline` is absolute virtual time on `env`.
  void Arm(SimEnv* env, SimTime virt_deadline, std::string what) {
    what_ = std::move(what);
    Tick(env, virt_deadline);
  }

  void Check(SimEnv* env, SimTime virt_deadline) const {
    if (env->Now() <= virt_deadline) return;
    std::string why = Fmt("watchdog: virtual-time budget exceeded during %s "
                          "at virtual t=%s",
                          what_.c_str(), FormatDuration(env->Now()).c_str());
    report_->attempted++;
    report_->Fail(why);
    PrintReport(*report_, why.c_str());
    _exit(3);
  }

 private:
  static constexpr SimTime kTick = kSecond;

  void Tick(SimEnv* env, SimTime virt_deadline) {
    env->After(kTick, [this, env, virt_deadline] {
      Check(env, virt_deadline);
      Tick(env, virt_deadline);
    });
  }

  Report* report_;
  std::string what_;
};

char g_alarm_line[256];
size_t g_alarm_len = 0;

extern "C" void OnHostBudget(int) {
  ssize_t n = write(STDOUT_FILENO, g_alarm_line, g_alarm_len);
  (void)n;
  _exit(3);
}

/// Host-time budget: a livelock can spin without advancing virtual time,
/// so no simulated timer would fire. SIGALRM reports the run as failed.
/// The address-space cap stops such a spin from exhausting the machine's
/// memory first (a normal run's resident set stays near 160 MB).
void ArmHostWatchdog(double budget_s) {
  int n = snprintf(g_alarm_line, sizeof(g_alarm_line),
                   "\n{\"attempted\": 1, \"failed\": 1, \"watchdog\": "
                   "\"host-time budget of %.0f s exceeded\", \"failures\": "
                   "[\"watchdog: host-time budget of %.0f s exceeded\"], "
                   "\"e2e\": {}, \"layer\": {}}\n",
                   budget_s, budget_s);
  g_alarm_len = static_cast<size_t>(std::max(0, n));
  signal(SIGALRM, OnHostBudget);
  alarm(static_cast<unsigned>(std::ceil(budget_s)));
  struct rlimit cap = {kAddressSpaceCap, kAddressSpaceCap};
  setrlimit(RLIMIT_AS, &cap);
}

// ---------------------------------------------------------- per arch ----

struct ArchRun {
  Arch arch;
  // host seconds
  double setup_s = 0, load_s = 0, warmup_s = 0;
  double restart_ms = 0, scan_host_ms = 0;
  std::vector<double> txn_host_us;
  // virtual
  std::vector<SimTime> txn_virt_us;
  SimTime window_us = 0;
  uint64_t txns_run = 0;   // RunOne calls so far (the txn span id)
  uint64_t committed = 0;  // acknowledged commits before the crash
  SimTime recovery_us = 0;
  SimTime scan_us = 0;  // live scan (scan workload) or the verifier's pass
  Sample window;        // SampleNumeric deltas over the transaction window
  Sample scan_delta;    // ... over the scan
  Profiler::SpanAgg prof;
  Profiler::DiskAgg disk[kNumIoCauses];
  Lfs::RecoveryStats lfs_rec;
  Sample restart_sample;  // restart rig counters after recovery
};

Machine::Options MachineOptions(const Cli& cli) {
  Machine::Options o;
  o.cache_blocks = cli.w.cache_blocks;
  o.disk.geometry.cylinders = cli.w.cylinders;
  o.sim_backend = cli.backend;
  return o;
}

LibTp::Options LibTpOptions(const Cli& cli) {
  LibTp::Options o;
  o.pool_pages = cli.w.pool_pages;
  return o;
}

const char* MgrTag(Arch a) {
  return a == Arch::kEmbedded ? "embedded" : "libtp";
}

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Mean of the slowest `pct` percent of `v` (at least one sample).
double TailMean(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t k = std::max<size_t>(
      1, static_cast<size_t>(pct / 100.0 * static_cast<double>(v.size())));
  double sum = 0;
  for (size_t i = v.size() - k; i < v.size(); i++) sum += v[i];
  return sum / static_cast<double>(k);
}

std::vector<double> ToDouble(const std::vector<SimTime>& v) {
  return std::vector<double>(v.begin(), v.end());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sums one balance relation in key order.
Status SumBalances(Db* db, TxnId txn, int64_t* sum, uint64_t* n) {
  *sum = 0;
  *n = 0;
  return db->Scan(txn, [&](Slice, Slice val) {
    *sum += RecordBalance(val);
    (*n)++;
    return true;
  });
}

class Runner {
 public:
  /// Upper bound on the transactions RunToCrashPoint adds.
  static constexpr uint64_t kMaxTail = 1000;
  /// Host timings of the scan and the restart take the median of this many.
  static constexpr int kRepeats = 3;

  Runner(const Cli& cli, Report* report, SpanLog* spans, Watchdog* watchdog)
      : cli_(cli), report_(report), spans_(spans), watchdog_(watchdog) {
    tpcb_ = TpcbConfig().Scaled(cli.w.scale);
  }

  ArchRun Run(Arch arch) {
    ArchRun r;
    r.arch = arch;
    const char* slug = Slug(arch);
    fprintf(stderr, "[bench] %s/%s: set-up\n", cli_.w.name, slug);
    // The crash image lives on its own idle env so the restart rig can be
    // built after the running rig is gone.
    SimEnv image_env(CostModel(), cli_.backend);
    SimDisk image(&image_env, MachineOptions(cli_).disk);
    bool crashed = false;

    double h_setup0 = HostUs();
    auto rig = ArchRig::Create(arch, MachineOptions(cli_), LibTpOptions(cli_));
    SimEnv* env = rig->env();
    env->Spawn("main", [&] {
      int root = spans_->Begin("arch", 0, slug, env, h_setup0);
      Status boot;
      {
        // rig.build: construction (above) plus mkfs and log open.
        int build = spans_->Begin("rig.build", 0, slug, env, h_setup0);
        boot = rig->Boot();
        spans_->End(build, env);
      }
      if (!boot.ok()) {
        report_->Fail(Fmt("%s: boot: %s", slug, boot.ToString().c_str()));
        spans_->End(root, env);
        return;
      }
      double h0 = HostUs();
      Result<TpcbDatabase> db = Status::Internal("unset");
      {
        ScopedSpan s(spans_, "tpcb.load", 0, slug, env);
        db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), tpcb_);
      }
      r.load_s = (HostUs() - h0) / 1e6;
      if (!db.ok()) {
        report_->Fail(Fmt("%s: load: %s", slug,
                          db.status().ToString().c_str()));
        spans_->End(root, env);
        return;
      }
      Sync(rig.get(), slug);
      TpcbDriver driver(rig->backend.get(), &db.value(), tpcb_,
                        /*seed=*/cli_.seed);
      SimTime deadline =
          env->Now() + static_cast<SimTime>(VirtBudgetS() * kSecond);
      watchdog_->Arm(env, deadline, Fmt("%s %s transactions", cli_.w.name,
                                        slug));
      h0 = HostUs();
      {
        ScopedSpan s(spans_, "tpcb.warmup", 0, slug, env);
        // A seed-drawn 0-63 extra warm-up transactions shift where the
        // window starts in the log and syncer cycles; without them the
        // fully cached user_ffs window reads the same for every seed.
        uint64_t warmup =
            cli_.w.warmup + Random(cli_.seed ^ 0x3a2full).Uniform(64);
        for (uint64_t i = 0; i < warmup; i++) {
          RunTxn(&driver, env, &r, nullptr, nullptr, deadline);
        }
      }
      r.warmup_s = (HostUs() - h0) / 1e6;
      r.setup_s = (HostUs() - h_setup0) / 1e6;

      // --- transaction window ---
      Profiler* prof = env->profiler();
      Profiler::SpanAgg prof0 = prof->AggFor(MgrTag(arch));
      Profiler::DiskAgg disk0[kNumIoCauses];
      for (int i = 0; i < kNumIoCauses; i++) {
        disk0[i] = prof->DiskCauseAgg(static_cast<IoCause>(i));
      }
      Sample m0 = env->metrics()->SampleNumeric();
      SimTime v0 = env->Now();
      {
        ScopedSpan s(spans_, cli_.w.scan ? "scan.aging" : "tpcb.measure", 0,
                     slug, env);
        for (uint64_t i = 0; i < cli_.w.txns; i++) {
          RunTxn(&driver, env, &r, &r.txn_host_us, &r.txn_virt_us, deadline);
        }
      }
      r.window_us = env->Now() - v0;
      r.window = SampleDelta(env->metrics()->SampleNumeric(), m0);
      r.prof = Delta(prof->AggFor(MgrTag(arch)), prof0);
      for (int i = 0; i < kNumIoCauses; i++) {
        const Profiler::DiskAgg& d =
            prof->DiskCauseAgg(static_cast<IoCause>(i));
        r.disk[i].requests = d.requests - disk0[i].requests;
        r.disk[i].wait_us = d.wait_us - disk0[i].wait_us;
        r.disk[i].service_us = d.service_us - disk0[i].service_us;
      }
      if (cli_.w.scan) {
        // Fig 6 scans only the user-level archs. embedded_lfs skips the
        // SyncAll too: a SyncAll right before the crash loses commits on
        // it (see perfbench/README.md, seed findings).
        if (arch != Arch::kEmbedded) {
          Sync(rig.get(), slug);
          LiveScan(rig.get(), &db.value(), &r);
        }
      }

      RunToCrashPoint(rig.get(), &driver, &r, deadline);

      // --- crash: no SyncAll, so unflushed cache/pool contents are lost ---
      {
        ScopedSpan s(spans_, "crash.copy", 0, slug, env);
        image.CopyContentsFrom(*rig->machine->disk);
      }
      crashed = true;
      spans_->End(root, env);
    });
    env->Run();
    if (cli_.w.scan && arch != Arch::kEmbedded) report_->attempted++;
    report_->attempted += 2;  // the restart and the verification
    rig.reset();
    if (!crashed) {
      report_->Fail(Fmt("%s: no crash image, restart and verify skipped",
                        slug), 2);
      return r;
    }
    Restart(arch, image, &r);
    return r;
  }

 private:
  static Profiler::SpanAgg Delta(const Profiler::SpanAgg& a,
                                 const Profiler::SpanAgg& b) {
    Profiler::SpanAgg d;
    d.spans = a.spans - b.spans;
    d.committed = a.committed - b.committed;
    d.elapsed_us = a.elapsed_us - b.elapsed_us;
    for (int i = 0; i < kNumPhases; i++) {
      d.phase_us[i] = a.phase_us[i] - b.phase_us[i];
    }
    return d;
  }

  double VirtBudgetS() const {
    if (cli_.virt_budget_s > 0) return cli_.virt_budget_s;
    // About 10x the slowest architecture's steady-state latency.
    return 600.0 +
           2.0 * static_cast<double>(cli_.w.warmup + cli_.w.txns + kMaxTail);
  }

  /// The crash point: a seed-drawn 0-63 more transactions, then on LFS
  /// until the transaction during which the next checkpoint was written.
  /// Without the alignment the roll-forward length, and so the embedded
  /// restart time, would depend on where in the checkpoint cycle the window
  /// happened to end rather than on the system. Crashing later in the
  /// cycle loses commits on the cached workload (README.md).
  void RunToCrashPoint(ArchRig* rig, TpcbDriver* driver, ArchRun* r,
                       SimTime deadline) {
    SimEnv* env = rig->env();
    ScopedSpan s(spans_, "tpcb.tail", 0, Slug(r->arch), env);
    uint64_t limit = r->txns_run + kMaxTail;
    uint64_t extra = Random(cli_.seed ^ 0xc4a54ull).Uniform(64);
    for (uint64_t i = 0; i < extra; i++) {
      RunTxn(driver, env, r, nullptr, nullptr, deadline);
    }
    Lfs* lfs = rig->machine->lfs();
    if (lfs == nullptr) return;
    uint64_t cp = lfs->lfs_stats().checkpoints;
    while (lfs->lfs_stats().checkpoints == cp && r->txns_run < limit) {
      RunTxn(driver, env, r, nullptr, nullptr, deadline);
    }
    if (r->txns_run >= limit) {
      report_->Fail(Fmt("%s: no LFS checkpoint within %llu transactions",
                        Slug(r->arch),
                        static_cast<unsigned long long>(kMaxTail)));
    }
  }

  void Sync(ArchRig* rig, const char* slug) {
    ScopedSpan s(spans_, "fs.sync", 0, slug, rig->env());
    Status st = rig->machine->fs->SyncAll();
    if (!st.ok()) {
      report_->Fail(Fmt("%s: SyncAll: %s", slug, st.ToString().c_str()));
    }
  }

  void RunTxn(TpcbDriver* driver, SimEnv* env, ArchRun* r,
              std::vector<double>* host_us, std::vector<SimTime>* virt_us,
              SimTime deadline) {
    uint64_t ordinal = r->txns_run++;
    report_->attempted++;
    ScopedSpan s(spans_, "tpcb.txn", ordinal, Slug(r->arch), env);
    double h0 = HostUs();
    SimTime v0 = env->Now();
    Status st = driver->RunOne();
    if (host_us != nullptr) host_us->push_back(HostUs() - h0);
    if (virt_us != nullptr) virt_us->push_back(env->Now() - v0);
    if (st.ok()) {
      r->committed++;
    } else {
      report_->Fail(Fmt("%s: txn %llu: %s", Slug(r->arch),
                        static_cast<unsigned long long>(ordinal),
                        st.ToString().c_str()));
    }
    watchdog_->Check(env, deadline);
  }

  /// The Fig 6 scan, run kRepeats times back to back. The first one is
  /// the cold scan the virtual metrics describe; the host time is the
  /// median, since one ~0.1 s measurement is too noisy for run_s.
  void LiveScan(ArchRig* rig, TpcbDatabase* db, ArchRun* r) {
    SimEnv* env = rig->env();
    std::vector<double> host_ms;
    for (int k = 0; k < kRepeats; k++) {
      Sample m0 = env->metrics()->SampleNumeric();
      double h0 = HostUs();
      Result<ScanResult> scan = Status::Internal("unset");
      {
        ScopedSpan s(spans_, "scan.run", static_cast<uint64_t>(k),
                     Slug(r->arch), env);
        scan = RunScan(rig->backend.get(), db->accounts.get(),
                       tpcb_.account_record_len);
      }
      host_ms.push_back((HostUs() - h0) / 1e3);
      if (!scan.ok() || scan.value().records != tpcb_.accounts) {
        report_->Fail(Fmt("%s: scan: %s", Slug(r->arch),
                          scan.ok() ? "wrong record count"
                                    : scan.status().ToString().c_str()));
        return;
      }
      if (k == 0) {
        r->scan_us = scan.value().elapsed;
        r->scan_delta = SampleDelta(env->metrics()->SampleNumeric(), m0);
      }
    }
    r->scan_host_ms = Pct(host_ms, 50);
  }

  /// Restarts kRepeats times from the same crash image. The virtual
  /// result must repeat; the host time is the median, since one ~0.1 s
  /// measurement is too noisy for run_s. The last restart is verified.
  void Restart(Arch arch, const SimDisk& image, ArchRun* r) {
    std::vector<double> host_ms;
    SimTime first_us = 0;
    for (int k = 0; k < kRepeats; k++) {
      if (!RestartOnce(arch, image, r, k + 1 == kRepeats)) return;
      host_ms.push_back(r->restart_ms);
      if (k == 0) first_us = r->recovery_us;
      if (r->recovery_us != first_us) {
        report_->Fail(Fmt("%s: restart %d took %llu us of virtual time, "
                          "restart 0 took %llu us",
                          Slug(arch), k,
                          static_cast<unsigned long long>(r->recovery_us),
                          static_cast<unsigned long long>(first_us)));
      }
    }
    r->restart_ms = Pct(host_ms, 50);
  }

  /// One restart; verifies the recovered database when `verify`. Returns
  /// false when the restart itself failed.
  bool RestartOnce(Arch arch, const SimDisk& image, ArchRun* r, bool verify) {
    const char* slug = Slug(arch);
    fprintf(stderr, "[bench] %s/%s: restart\n", cli_.w.name, slug);
    Machine::Options mo = MachineOptions(cli_);
    mo.format = false;
    bool ok = false;
    double h0 = HostUs();
    auto rig = ArchRig::Create(arch, mo, LibTpOptions(cli_));
    rig->machine->disk->CopyContentsFrom(image);
    SimEnv* env = rig->env();
    watchdog_->Arm(env, static_cast<SimTime>(VirtBudgetS() * kSecond),
                   Fmt("%s %s restart", cli_.w.name, slug));
    env->Spawn("restart", [&] {
      int root = spans_->Begin("arch.restart", 0, slug, env);
      Status s;
      {
        ScopedSpan m(spans_, "restart.mount", 0, slug, env);
        s = rig->machine->Boot(rig->options);  // LFS roll-forward
      }
      if (s.ok() && rig->libtp != nullptr) {
        ScopedSpan m(spans_, "restart.libtp_recover", 0, slug, env);
        s = rig->libtp->Open("/txn.log", /*run_recovery=*/false);
        for (const std::string& path :
             {tpcb_.AccountPath(), tpcb_.TellerPath(), tpcb_.BranchPath(),
              tpcb_.HistoryPath()}) {
          if (!s.ok()) break;
          s = rig->libtp->pool()->RegisterFile(path, /*create=*/false).status();
        }
        if (s.ok()) s = rig->libtp->Recover();
      }
      r->recovery_us = env->Now();
      r->restart_ms = (HostUs() - h0) / 1e3;
      if (!s.ok()) {
        report_->Fail(Fmt("%s: restart: %s", slug, s.ToString().c_str()), 2);
        spans_->End(root, env);
        return;
      }
      ok = true;
      if (rig->machine->lfs() != nullptr) {
        r->lfs_rec = rig->machine->lfs()->recovery_stats();
      }
      r->restart_sample = env->metrics()->SampleNumeric();
      if (verify) {
        ScopedSpan v(spans_, "verify", 0, slug, env);
        Verify(rig.get(), r);
      }
      spans_->End(root, env);
    });
    env->Run();
    return ok;
  }

  /// Atomicity and durability of the recovered database. Never aborts:
  /// every mismatch is counted as failed operations.
  void Verify(ArchRig* rig, ArchRun* r) {
    const char* slug = Slug(r->arch);
    SimEnv* env = rig->env();
    auto db = OpenTpcb(rig->backend.get(), tpcb_);
    if (!db.ok()) {
      report_->Fail(Fmt("%s: verify: open: %s", slug,
                        db.status().ToString().c_str()));
      return;
    }
    auto txn = rig->backend->Begin();
    if (!txn.ok()) {
      report_->Fail(Fmt("%s: verify: begin: %s", slug,
                        txn.status().ToString().c_str()));
      return;
    }
    struct Rel {
      const char* name;
      Db* db;
      uint64_t rows;
      int64_t sum = 0;
      uint64_t n = 0;
    } rels[] = {{"account", db.value().accounts.get(), tpcb_.accounts},
                {"teller", db.value().tellers.get(), tpcb_.tellers},
                {"branch", db.value().branches.get(), tpcb_.branches}};
    Sample m0 = env->metrics()->SampleNumeric();
    SimTime v0 = env->Now();
    double h0 = HostUs();
    for (Rel& rel : rels) {
      Status s = SumBalances(rel.db, txn.value(), &rel.sum, &rel.n);
      if (!s.ok() || rel.n != rel.rows) {
        std::string why =
            s.ok() ? Fmt("%llu rows, want %llu",
                         static_cast<unsigned long long>(rel.n),
                         static_cast<unsigned long long>(rel.rows))
                   : s.ToString();
        report_->Fail(Fmt("%s: verify: %s relation: %s", slug, rel.name,
                          why.c_str()));
      }
    }
    int64_t history_delta = 0;
    uint64_t rows = 0;
    auto count = db.value().history->RecordCount(txn.value());
    if (!count.ok()) {
      report_->Fail(Fmt("%s: verify: history count: %s", slug,
                        count.status().ToString().c_str()));
    } else {
      rows = count.value();
      std::string rec;
      for (uint64_t i = 0; i < rows; i++) {
        Status s = db.value().history->GetRecord(txn.value(), i, &rec);
        auto row = s.ok() ? ParseHistoryRecord(rec) : Result<HistoryRow>(s);
        if (!row.ok()) {
          report_->Fail(Fmt("%s: verify: history row %llu: %s", slug,
                            static_cast<unsigned long long>(i),
                            row.status().ToString().c_str()));
          break;
        }
        history_delta += row.value().delta;
      }
    }
    if (!cli_.w.scan) {
      // On the transaction workloads the scan measurement is this cold,
      // key-order read of the whole recovered database.
      r->scan_us = env->Now() - v0;
      r->scan_host_ms = (HostUs() - h0) / 1e3;
      r->scan_delta = SampleDelta(env->metrics()->SampleNumeric(), m0);
    }
    Status c = rig->backend->Commit(txn.value());
    if (!c.ok()) {
      report_->Fail(Fmt("%s: verify: commit: %s", slug, c.ToString().c_str()));
    }
    // Atomicity: each committed transaction moved one account, one teller
    // and one branch by its history row's delta.
    for (const Rel& rel : rels) {
      int64_t moved = rel.sum - kInitialBalance * static_cast<int64_t>(rel.n);
      if (moved != history_delta) {
        report_->Fail(Fmt("%s: atomicity: %s balances moved by %lld, "
                          "history deltas sum to %lld",
                          slug, rel.name, static_cast<long long>(moved),
                          static_cast<long long>(history_delta)));
      }
    }
    // Durability: every acknowledged commit, and nothing else, survived.
    uint64_t expected = r->committed >= cli_.understate_acks
                            ? r->committed - cli_.understate_acks
                            : 0;
    if (rows != expected) {
      uint64_t diff = rows > expected ? rows - expected : expected - rows;
      report_->Fail(Fmt("%s: durability: %llu history rows after restart, "
                        "%llu commits acknowledged before the crash",
                        slug, static_cast<unsigned long long>(rows),
                        static_cast<unsigned long long>(expected)),
                    diff);
    }
  }

  const Cli& cli_;
  Report* report_;
  SpanLog* spans_;
  Watchdog* watchdog_;
  TpcbConfig tpcb_;
};

// ------------------------------------------------------------ metrics ----


void ReportArch(const ArchRun& r, Report* rep) {
  const std::string a = Slug(r.arch);
  const bool user = r.arch != Arch::kEmbedded;
  const bool lfs = r.arch != Arch::kUserFfs;
  const double n = static_cast<double>(r.txn_virt_us.size());
  const Sample& w = r.window;
  const std::string cache = lfs ? "cache.lfs." : "cache.ffs.";
  const std::string lock = user ? "lock.libtp." : "lock.kernel.";

  // End to end (virtual).
  rep->E2e("tps." + a, Ratio(n, ToSeconds(r.window_us)), "txn/s");
  // The repo's log-bucketed histogram, as every prof.* latency uses:
  // its in-bucket interpolation keeps a latency plateau (user_ffs has one
  // at p99) from reading the same for every seed.
  HdrHistogram lat;
  for (SimTime v : r.txn_virt_us) lat.Add(v);
  rep->E2e("txn_p99_ms." + a, lat.Percentile(99) / 1e3, "ms");
  if (user) {
    rep->E2e("recovery_s." + a, ToSeconds(r.recovery_us), "s");
  } else {
    // A crash right after a checkpoint leaves embedded_lfs a ~60 ms mount
    // whose few disk reads vary by a third with the seed: too noisy for an
    // end-to-end bound, so it is reported per layer (README.md).
    rep->Layer("recovery.restart_s." + a, ToSeconds(r.recovery_us), "s");
  }
  if (user) rep->E2e("scan_s." + a, ToSeconds(r.scan_us), "s");

  // sim, db CPU, txn.
  const double spans = static_cast<double>(r.prof.spans);
  for (int i = 0; i < kNumPhases; i++) {
    // Always 0 here, so left to the trace: disk writes inside a commit are
    // charged to log_wait, and at MPL 1 nothing waits for a lock.
    Phase ph = static_cast<Phase>(i);
    if (ph == Phase::kDiskWrite || ph == Phase::kLockWait) continue;
    rep->Layer(Fmt("phase.%s_ms.%s", PhaseName(ph), a.c_str()),
               Ratio(static_cast<double>(r.prof.phase_us[i]), spans) / 1e3,
               "ms/txn");
  }
  rep->Layer("txn_p50_ms." + a, lat.Percentile(50) / 1e3, "ms");
  // Mean of the slowest 1%: the cleaner and syncer stalls a p99 misses.
  rep->Layer("txn_tail_ms." + a, TailMean(ToDouble(r.txn_virt_us), 1) / 1e3,
             "ms");
  rep->Layer("sim.syscalls_per_txn." + a, Ratio(Get(w, "sim.syscalls"), n),
             "count");
  rep->Layer("lock.acquisitions_per_txn." + a,
             Ratio(Get(w, lock + "acquisitions"), n), "count");

  // Read path.
  double hits = Get(w, cache + "hits"), misses = Get(w, cache + "misses");
  rep->Layer("cache.hit_ratio." + a, Ratio(hits, hits + misses), "ratio");
  if (user) {
    double ph = Get(w, "pool.hits"), pm = Get(w, "pool.misses");
    rep->Layer("pool.hit_ratio." + a, Ratio(ph, ph + pm), "ratio");
  }
  rep->Layer("disk.reads_per_txn." + a, Ratio(Get(w, "disk.reads"), n),
             "count");
  for (int i = 0; i < kNumIoCauses; i++) {
    IoCause c = static_cast<IoCause>(i);
    if (!lfs && (c == IoCause::kCleaner || c == IoCause::kCheckpoint)) continue;
    const char* cause = IoCauseName(c);
    rep->Layer(Fmt("disk.%s.busy_ms_per_txn.%s", cause, a.c_str()),
               Ratio(static_cast<double>(r.disk[i].service_us), n) / 1e3, "ms");
    rep->Layer(Fmt("disk.%s.queue_ms_per_txn.%s", cause, a.c_str()),
               Ratio(static_cast<double>(r.disk[i].wait_us), n) / 1e3, "ms");
  }

  // Commit path.
  if (user) {
    rep->Layer("log.kb_per_txn." + a,
               Ratio(Get(w, "log.bytes_appended"), n) / 1024, "KiB");
    rep->Layer("log.flushes_per_txn." + a, Ratio(Get(w, "log.flushes"), n),
               "count");
  } else {
    rep->Layer("group_commit.txns_per_flush." + a,
               Ratio(Get(w, "txn.embedded.group_commit_txns_flushed"),
                     Get(w, "txn.embedded.group_commit_flushes")),
               "txn");
  }
  double meta = 0, total = 0;
  for (const char* cat : {"inode", "imap", "summary", "checkpoint"}) {
    meta += Get(w, std::string("logecon.bytes.") + cat);
  }
  for (const char* cat : {"user_data", "wal", "inode", "imap", "summary",
                          "checkpoint", "cleaner", "ffs"}) {
    total += Get(w, std::string("logecon.bytes.") + cat);
  }
  rep->Layer("logecon.wal_kb_per_txn." + a,
             Ratio(Get(w, "logecon.bytes.wal"), n) / 1024, "KiB");
  rep->Layer("logecon.meta_kb_per_txn." + a, Ratio(meta, n) / 1024, "KiB");
  rep->Layer("disk.blocks_written_per_txn." + a,
             Ratio(Get(w, "disk.blocks_written"), n), "blocks");

  // Cleaner.
  if (lfs) {
    rep->Layer("cleaner.segments_per_ktxn." + a,
               Ratio(Get(w, "cleaner.segments_cleaned"), n) * 1000, "count");
    rep->Layer("cleaner.victim_util_mean." + a,
               Ratio(Get(w, "cleaner.victim_util_pct.sum"),
                     Get(w, "cleaner.victim_util_pct.count")),
               "pct");
    rep->Layer("lfs.writer_stalls_per_ktxn." + a,
               Ratio(Get(w, "lfs.writer_stalls"), n) * 1000, "count");
    rep->Layer("logecon.cleaner_kb_per_txn." + a,
               Ratio(Get(w, "logecon.bytes.cleaner"), n) / 1024, "KiB");
  }
  rep->Layer("wa.logical." + a,
             Ratio(total, Get(w, "logecon.logical_user_bytes")), "x");

  // Syncer.
  if (!lfs) {
    rep->Layer("ffs.sync_blocks_per_txn." + a,
               Ratio(Get(w, "ffs.sync_blocks"), n), "blocks");
  }

  // Recovery.
  if (lfs) {
    rep->Layer("recovery.lfs.scan_ms." + a,
               static_cast<double>(r.lfs_rec.scan_us) / 1e3, "ms");
    rep->Layer("recovery.lfs.apply_ms." + a,
               static_cast<double>(r.lfs_rec.apply_us) / 1e3, "ms");
    rep->Layer("recovery.lfs.payload_blocks." + a,
               static_cast<double>(r.lfs_rec.payload_blocks), "blocks");
  }
  if (user) {
    rep->Layer("recovery.libtp.scanned." + a,
               Get(r.restart_sample, "recovery.libtp.scanned"), "records");
    rep->Layer("recovery.libtp.redo_applied." + a,
               Get(r.restart_sample, "recovery.libtp.redo_applied"), "records");
  }
  rep->Layer("host.restart_ms." + a, r.restart_ms, "ms");

  // Scan.
  if (user) {
    const Sample& s = r.scan_delta;
    rep->Layer("scan.disk.reads." + a, Get(s, "disk.reads"), "count");
    rep->Layer("scan.disk.seek_ms." + a, Get(s, "disk.seek_us") / 1e3, "ms");
    rep->Layer("scan.disk.rotation_ms." + a, Get(s, "disk.rotation_us") / 1e3,
               "ms");
    rep->Layer("scan.readahead.hit_ratio." + a,
               Ratio(Get(s, cache + "readahead.hits"),
                     Get(s, cache + "readahead.blocks")),
               "ratio");
    rep->Layer("host.scan_ms." + a, r.scan_host_ms, "ms");
  }

  // Host.
  rep->Layer("host.load_s." + a, r.load_s, "s");
  rep->Layer("host.warmup_s." + a, r.warmup_s, "s");
  rep->Layer("host.txn_us_p50." + a, Pct(r.txn_host_us, 50), "us");
  rep->Layer("host.txn_us_p99." + a, Pct(r.txn_host_us, 99), "us");
}

// --------------------------------------------------------- primitives ----

/// Host cost of the three primitives the seed profile ranks highest, on
/// TPC-B-sized inputs: CRC32C per KiB, one update-record serialization
/// (140-byte account images), and LibTp::PutPageDirty on one page.
void TimePrimitives(const Cli& cli, Report* rep) {
  Random rng(cli.seed ^ 0x5eed);
  std::string buf = rng.Bytes(64 * 1024);
  uint32_t crc = 0;
  const int kCrcRounds = 400;
  double h0 = HostUs();
  for (int i = 0; i < kCrcRounds; i++) {
    crc = crc32c::Extend(crc, buf.data(), buf.size());
  }
  double crc_us = HostUs() - h0;
  rep->Layer("host.crc32c_ns_per_kb",
             crc_us * 1e3 / (kCrcRounds * buf.size() / 1024.0), "ns");

  LogRecord rec;
  rec.type = LogRecType::kUpdate;
  rec.txn = 7;
  rec.prev_lsn = 12345;
  rec.file_ref = 1;
  rec.page = 42;
  rec.offset = 96;
  rec.before = rng.Bytes(140);
  rec.after = rng.Bytes(140);
  std::string out;
  const int kRecRounds = 100000;
  h0 = HostUs();
  for (int i = 0; i < kRecRounds; i++) {
    out.clear();
    rec.prev_lsn = static_cast<Lsn>(i);
    rec.AppendTo(&out);
  }
  double rec_us = HostUs() - h0;
  rep->Layer("host.log_record_ns", rec_us * 1e3 / kRecRounds, "ns");

  Machine::Options mo;
  mo.sim_backend = cli.backend;
  auto rig = ArchRig::Create(Arch::kUserLfs, mo);
  double put_us = 0;
  const int kPuts = 2000;
  int done = 0;
  Status st = rig->Run([&] {
    LibTp* tp = rig->libtp.get();
    auto fref = tp->pool()->RegisterFile("/prim", /*create=*/true);
    if (!fref.ok() || !tp->pool()->AllocPage(fref.value()).ok()) return;
    auto txn = tp->Begin();
    if (!txn.ok()) return;
    for (int i = 0; i < kPuts; i++) {
      auto page =
          tp->GetPage(txn.value(), fref.value(), 0, LockMode::kExclusive);
      if (!page.ok()) return;
      // One account-balance update: 8 bytes inside a 140-byte record.
      uint64_t bal = static_cast<uint64_t>(i) * 2654435761u;
      memcpy(page.value()->data + 64 + (i % 28) * 140, &bal, sizeof(bal));
      double p0 = HostUs();
      Status s = tp->PutPageDirty(txn.value(), page.value());
      put_us += HostUs() - p0;
      if (!s.ok()) return;
      done++;
    }
    (void)tp->Commit(txn.value());
  });
  (void)crc;
  if (!st.ok() || done != kPuts) {
    rep->Fail("primitives: PutPageDirty loop did not complete");
  }
  rep->Layer("host.put_page_dirty_us", Ratio(put_us, done), "us");
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Main(int argc, char** argv) {
  Cli cli = ParseCli(argc, argv);
  Report rep;
  SpanLog spans(cli.trace);
  ArmHostWatchdog(cli.host_budget_s);
  Watchdog watchdog(&rep);
  Runner runner(cli, &rep, &spans, &watchdog);

  double setup_s = 0, run_s = 0;
  for (Arch arch : cli.archs) {
    ArchRun r = runner.Run(arch);
    setup_s += r.setup_s;
    // The window as its median transaction's cost times its length, so a
    // burst of interference from other tenants moves it less.
    double window_s = Pct(r.txn_host_us, 50) *
                      static_cast<double>(r.txn_host_us.size()) / 1e6;
    run_s += window_s + r.scan_host_ms * (cli.w.scan ? 1e-3 : 0) +
             r.restart_ms / 1e3;
    ReportArch(r, &rep);
  }
  rep.E2e("setup_s", setup_s, "s");
  rep.E2e("run_s", run_s, "s");
  if (cli.trace) {
    TimePrimitives(cli, &rep);
    if (!spans.Write(cli.trace_file)) {
      rep.Fail("cannot write trace file " + cli.trace_file);
    }
  }
  rep.E2e("peak_rss_mb", PeakRssMb(), "MB");
  PrintReport(rep, nullptr);
  return 0;
}

}  // namespace
}  // namespace lfstx

int main(int argc, char** argv) { return lfstx::Main(argc, argv); }
