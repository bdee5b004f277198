// Virtual-clock profiler: "where did the time go" attribution.
//
// Every simulated process carries a stack of phases (running, run-queue
// wait, disk-read wait, disk-write wait, lock wait, log/commit-flush wait,
// cleaner stall). At every phase transition the interval since the last
// transition is charged — in whole virtual microseconds — to the phase that
// was in effect, so the per-phase totals partition virtual time exactly:
// no sampling, no epsilon, and byte-identical across runs and across
// execution backends (the profiler hooks scheduler transitions, which
// SIMULATOR.md pins as backend-independent).
//
// The transaction managers open a *span* per transaction
// (BeginSpan/EndSpan). A span snapshots the process's phase totals at
// begin and emits the deltas at end as a `txn_profile` trace event and as
// `prof.<mgr>.*` histograms; because charging happens at both endpoints,
// the per-phase deltas sum to the span's elapsed virtual time exactly.
//
// Attribution rule: disk waits that happen *inside* a log/commit-flush
// wait (a WAL flush's write, a group commit's segment write) are charged
// to the log-wait phase, not to generic disk wait — that is the split the
// paper's §5 arguments need ("commits ride segment writes instead of
// separate WAL flushes"). Run-queue wait and cleaner stall are never
// absorbed; they stay attributed to scheduling and cleaning pressure.
//
// Independently of per-process phases, every disk request carries a
// *cause* tag (txn / cleaner / checkpoint / syncer — the identity of the
// process that submitted it), and the profiler accumulates queue-wait and
// service time per cause (`prof.disk.<cause>.*`), so "transaction I/O
// queued behind the cleaner" is directly measurable.
#ifndef LFSTX_SIM_PROFILER_H_
#define LFSTX_SIM_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace lfstx {

class MetricsRegistry;
class MetricHistogram;
class SimProc;
class Tracer;

/// What a simulated process is doing right now. One of these is in effect
/// for every instant of a process's life; totals partition elapsed time.
enum class Phase : uint8_t {
  kRun = 0,        ///< on CPU, or voluntarily sleeping (think time)
  kRunQueue,       ///< runnable, waiting to be dispatched
  kDiskRead,       ///< blocked on a synchronous disk read
  kDiskWrite,      ///< blocked on a synchronous disk write
  kLockWait,       ///< blocked in a lock manager wait queue
  kLogWait,        ///< waiting for a log flush / group commit to durability
  kCleanerStall,   ///< waiting on the LFS cleaner: writer stall or file lockout
};
inline constexpr int kNumPhases = 7;

/// Short snake_case name used in metrics, trace fields and tables
/// ("run", "runq_wait", "disk_read_wait", ...).
const char* PhaseName(Phase p);

/// Who submitted a disk request (per-request attribution, orthogonal to
/// the submitting process's phase stack).
enum class IoCause : uint8_t { kTxn = 0, kCleaner, kCheckpoint, kSyncer };
inline constexpr int kNumIoCauses = 4;
const char* IoCauseName(IoCause c);

/// Per-process profiler state, embedded in SimProc. All mutation goes
/// through the Profiler.
struct ProcProfile {
  std::vector<Phase> stack;        ///< [0] is always kRun once spawned
  SimTime mark = 0;                ///< virtual time of the last charge
  uint64_t us[kNumPhases] = {};    ///< lifetime per-phase totals
  IoCause cause = IoCause::kTxn;   ///< tag for disk requests we submit
  // Open transaction span (at most one per process at a time).
  bool span_open = false;
  uint64_t span_txn = 0;
  const char* span_mgr = nullptr;
  SimTime span_begin = 0;
  uint64_t span_us0[kNumPhases] = {};
};

/// \brief Machine-wide profiler; one per SimEnv, always on.
class Profiler {
 public:
  /// Lifetime aggregate over the spans of one transaction manager tag.
  struct SpanAgg {
    uint64_t spans = 0;      ///< spans closed (commits + aborts)
    uint64_t committed = 0;  ///< spans closed with committed=true
    uint64_t elapsed_us = 0; ///< sum of span elapsed virtual time
    uint64_t phase_us[kNumPhases] = {};  ///< sums to elapsed_us exactly
  };
  /// Lifetime disk-time totals for one request cause.
  struct DiskAgg {
    uint64_t requests = 0;
    uint64_t wait_us = 0;     ///< time queued before service started
    uint64_t service_us = 0;  ///< seek + rotation + transfer
  };

  Profiler(const SimTime* clock, MetricsRegistry* metrics, Tracer* tracer);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // ---- Phase stack of the *current* process (no-op on the scheduler
  //      thread). Push/Pop must nest; Pop checks the expected phase. ----
  void Push(Phase ph);
  void Pop(Phase ph);

  // ---- Scheduler hooks (called by SimEnv only) ----
  void OnSpawn(SimProc* p);       ///< start the clock; proc is run-queued
  void OnRunnable(SimProc* p);    ///< proc entered the run queue
  void OnDispatched(SimProc* p);  ///< proc left the run queue for the CPU

  // ---- Transaction spans (called by the txn managers) ----
  /// Opens a span for the current process. `mgr` must be a string with
  /// static storage duration ("embedded", "libtp").
  void BeginSpan(const char* mgr, uint64_t txn);
  /// Closes the current process's span: charges the open phase, emits the
  /// `txn_profile` trace event and `prof.<mgr>.*` histograms, and folds
  /// the deltas into the per-mgr aggregate.
  void EndSpan(const char* mgr, uint64_t txn, bool committed);

  // ---- Blame-edge support (wait_edge emitters) ----
  /// Lifetime total the current process has been charged for `ph`,
  /// *including* the still-open interval (charges it first). Reading this
  /// before and after a blocking scope yields the exact number of
  /// microseconds the scope contributed to the phase — the quantity a
  /// wait_edge must carry so per-span edges sum to the span's phase total
  /// (wall time would over-count: the post-wakeup run-queue delay is
  /// charged to runq_wait, not to the blocking phase). Returns 0 on the
  /// scheduler thread.
  uint64_t PhaseTotal(Phase ph);
  /// Transaction id of the current process's open span (0 when none / on
  /// the scheduler thread) — the `waiter` identity for wait_edge events.
  uint64_t CurrentSpanTxn() const;

  // ---- Disk-request cause attribution ----
  /// Cause tag of the current process (kTxn on the scheduler thread).
  IoCause CurrentCause() const;
  /// Sets the current process's cause tag; returns the previous value
  /// (restore it when the scoped work ends — see ProfCauseScope).
  IoCause SetCause(IoCause c);
  /// Called by SimDisk at request completion.
  void ChargeDiskRequest(IoCause c, bool write, uint64_t wait_us,
                         uint64_t service_us);

  // ---- Read side (benches, tests, reports) ----
  /// Aggregate for `mgr` (zero-valued if no span ever closed under it).
  SpanAgg AggFor(const std::string& mgr) const;
  /// Manager tags that have closed at least one span, sorted.
  std::vector<std::string> SpanTags() const;
  const DiskAgg& DiskCauseAgg(IoCause c) const {
    return disk_[static_cast<int>(c)];
  }

 private:
  struct TagState {
    SpanAgg agg;
    MetricHistogram* elapsed = nullptr;
    MetricHistogram* phase[kNumPhases] = {};
  };

  /// Charge the interval [mark, now) to the effective phase and advance
  /// the mark.
  void Charge(SimProc* p);
  /// Effective phase given the stack: top phase, except disk waits nested
  /// inside a log wait are charged to the log wait.
  static Phase Effective(const ProcProfile& pp);
  TagState* TagFor(const char* mgr);

  const SimTime* clock_;
  MetricsRegistry* metrics_;
  Tracer* tracer_;
  std::map<std::string, TagState> tags_;
  DiskAgg disk_[kNumIoCauses];
  bool disk_metrics_registered_[kNumIoCauses] = {};
};

/// RAII phase push/pop. `profiler` may be null (subsystem without an env).
class ProfPhaseScope {
 public:
  ProfPhaseScope(Profiler* profiler, Phase ph) : pr_(profiler), ph_(ph) {
    if (pr_ != nullptr) pr_->Push(ph_);
  }
  ~ProfPhaseScope() {
    if (pr_ != nullptr) pr_->Pop(ph_);
  }
  ProfPhaseScope(const ProfPhaseScope&) = delete;
  ProfPhaseScope& operator=(const ProfPhaseScope&) = delete;

 private:
  Profiler* pr_;
  Phase ph_;
};

/// RAII cause tag: sets the current process's IoCause, restores on exit.
class ProfCauseScope {
 public:
  ProfCauseScope(Profiler* profiler, IoCause c) : pr_(profiler) {
    if (pr_ != nullptr) prev_ = pr_->SetCause(c);
  }
  ~ProfCauseScope() {
    if (pr_ != nullptr) pr_->SetCause(prev_);
  }
  ProfCauseScope(const ProfCauseScope&) = delete;
  ProfCauseScope& operator=(const ProfCauseScope&) = delete;

 private:
  Profiler* pr_;
  IoCause prev_ = IoCause::kTxn;
};

}  // namespace lfstx

#endif  // LFSTX_SIM_PROFILER_H_
