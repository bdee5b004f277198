// The simulated machine: a single virtual CPU, a microsecond virtual clock,
// and a cooperative process scheduler.
//
// Exactly one simulated process (or the scheduler) runs at any instant, so
// simulation state needs no internal locking and runs are fully
// deterministic. Processes charge CPU time explicitly via
// Consume()/Syscall(); blocking operations (disk I/O, lock waits, sleeps)
// return control to the scheduler, which advances the clock to the next
// event when nothing is runnable.
//
// Two execution backends implement that contract (see SIMULATOR.md): the
// default fiber backend runs every process as a user-space stackful fiber
// on the scheduler's thread, making a virtual-time handoff a function
// call; the thread backend runs one OS thread per process with a futex
// handshake per handoff and survives as the slow, obviously-correct oracle
// for differential testing. Scheduling decisions live in shared data
// structures the backends never touch, so traces, metrics and virtual
// clocks are byte-identical across backends (CI enforces this).
#ifndef LFSTX_SIM_SIM_ENV_H_
#define LFSTX_SIM_SIM_ENV_H_

#include <semaphore.h>

#include <cerrno>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/check_macros.h"
#include "common/metrics.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/fiber.h"
#include "sim/lockdep.h"
#include "sim/log_econ.h"
#include "sim/profiler.h"
#include "sim/trace.h"

namespace lfstx {

class SimEnv;
class WaitQueue;

/// Execution backend for simulated processes (SIMULATOR.md, "Backends").
enum class SimBackend {
  kThreads,  ///< one OS thread per process, futex handshake per handoff
  kFibers,   ///< stackful user-space fibers; a handoff is a function call
};

/// "threads" / "fibers".
const char* SimBackendName(SimBackend b);

/// Numeric environment variable `name`: nullopt when it is unset, and also
/// when its whole value is not a decimal number ("1e3", "64k", "abc"),
/// after printing "lfstx: ignoring NAME=VALUE (...)" so the caller keeps
/// its default.
std::optional<uint64_t> EnvNumber(const char* name);

/// Backend selected by LFSTX_SIM_BACKEND ("threads" | "fibers"); fibers
/// when unset. ThreadSanitizer builds force kThreads — TSan cannot follow
/// a raw stack switch without per-fiber annotations, and the thread
/// backend is exactly the configuration TSan can vet.
SimBackend DefaultSimBackend();

/// POSIX-semaphore handshake primitive for the thread backend.
/// std::binary_semaphore spin-waits with sched_yield before sleeping, which
/// dominates the profile of a simulation that context-switches millions of
/// times; sem_t goes straight to a futex.
class HandoffSem {
 public:
  explicit HandoffSem(unsigned initial) { sem_init(&sem_, 0, initial); }
  ~HandoffSem() { sem_destroy(&sem_); }
  HandoffSem(const HandoffSem&) = delete;
  HandoffSem& operator=(const HandoffSem&) = delete;
  void release() { sem_post(&sem_); }
  void acquire() {
    while (sem_wait(&sem_) != 0) {
      // A signal may interrupt the wait; any other failure means the
      // handshake itself is broken, and spinning would hide it.
      LFSTX_CHECK(errno == EINTR, "HandoffSem sem_wait failed");
    }
  }

 private:
  sem_t sem_;
};

/// Why a blocked process resumed.
enum class WakeReason {
  kWoken,    ///< another process called WakeOne/WakeAll
  kTimeout,  ///< the sleep's timeout expired
  kStopped,  ///< the environment is shutting down (daemons must exit)
};

/// \brief One simulated process. Created via SimEnv::Spawn; owned by SimEnv.
class SimProc {
 public:
  const std::string& name() const { return name_; }
  bool daemon() const { return daemon_; }

 private:
  friend class SimEnv;
  friend class WaitQueue;
  friend class Profiler;

  enum class State { kRunnable, kRunning, kBlocked, kSleeping, kDone };

  std::string name_;
  bool daemon_ = false;
  std::function<void()> fn_;
  std::thread thread_;   ///< thread backend only
  Fiber fiber_;          ///< fiber backend only (stack built on first run)
  HandoffSem resume_{0};
  State state_ = State::kRunnable;
  WakeReason wake_reason_ = WakeReason::kWoken;
  WaitQueue* waiting_on_ = nullptr;
  uint64_t block_seq_ = 0;  // invalidates stale timeout timers
  SimEnv* env_ = nullptr;
  ProcProfile prof_;  // phase-attribution state (see sim/profiler.h)
};

/// \brief Simulation environment: clock + scheduler + timers + cost model.
class SimEnv {
 public:
  struct Stats {
    uint64_t context_switches = 0;
    uint64_t syscalls = 0;
    uint64_t processes_spawned = 0;
    uint64_t cpu_busy_us = 0;  ///< total CPU time charged via Consume
  };

  explicit SimEnv(CostModel costs = CostModel(),
                  SimBackend backend = DefaultSimBackend());
  ~SimEnv();

  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  /// Current virtual time in microseconds.
  SimTime Now() const { return now_; }

  /// The execution backend this environment runs processes on. Backends
  /// never affect simulation results — only how fast they are computed.
  SimBackend backend() const { return backend_; }

  const CostModel& costs() const { return costs_; }
  CostModel& mutable_costs() { return costs_; }
  const Stats& stats() const { return stats_; }

  /// Machine-wide metrics registry; subsystems register into it at
  /// construction (see common/metrics.h for ownership rules).
  MetricsRegistry* metrics() { return &metrics_; }
  /// Machine-wide event tracer, stamped with this env's virtual clock.
  Tracer* tracer() { return &tracer_; }
  /// Machine-wide virtual-clock profiler (always on; see sim/profiler.h).
  Profiler* profiler() { return &profiler_; }
  /// Machine-wide cooperative lockdep (always on; see sim/lockdep.h).
  LockDep* lockdep() { return &lockdep_; }
  /// Machine-wide byte-provenance accountant (see sim/log_econ.h).
  LogEcon* log_econ() { return &log_econ_; }

  /// Create a simulated process. Daemons (syncer, cleaner, group-commit)
  /// do not keep the simulation alive: Run() returns once every non-daemon
  /// process has finished, after force-waking daemons with kStopped.
  SimProc* Spawn(std::string name, std::function<void()> fn,
                 bool daemon = false);

  /// Run the scheduler on the calling (non-simulated) thread until all
  /// non-daemon processes complete. Returns the final virtual time.
  SimTime Run();

  /// True once shutdown has begun; daemons must return promptly when their
  /// sleep reports kStopped or this is set.
  bool stop_requested() const { return stopping_; }

  // ---- Callable only from inside a simulated process ----

  /// Charge `us` microseconds of CPU.
  void Consume(uint64_t us);
  /// Charge one system call (plus optional extra work inside the kernel).
  void Syscall(uint64_t extra_us = 0);
  /// Charge one user-level latch acquire or release. Cost depends on
  /// CostModel::hardware_test_and_set (see paper section 5.1).
  void LatchOp();
  /// Block until the given virtual time (no-op if already past).
  void SleepUntil(SimTime t);
  /// Block for a duration.
  void SleepFor(SimTime d);
  /// Let other runnable processes go first.
  void Yield();
  /// The currently running simulated process (null on the scheduler thread).
  static SimProc* Current();

  // ---- Timers (callable from anywhere while the caller holds control) ----

  /// Run `cb` at virtual time `t` (scheduler context; must not block).
  void At(SimTime t, std::function<void()> cb);
  /// Run `cb` after `d` microseconds.
  void After(SimTime d, std::function<void()> cb) { At(now_ + d, cb); }

 private:
  friend class WaitQueue;

  struct Timer {
    SimTime time;
    uint64_t seq;
    std::function<void()> cb;
    bool operator>(const Timer& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void Dispatch(SimProc* p);
  /// Give control back to the scheduler; returns when this proc is
  /// re-dispatched. Caller must have set the proc's state already.
  void SwitchToScheduler(SimProc* p);
  void MakeRunnable(SimProc* p, WakeReason reason);
  void ForceWakeAll();
  [[noreturn]] void FatalDeadlock();
  /// Entry point of every fiber-backend process (mirrors the thread
  /// backend's thread body in Spawn).
  static void FiberMain();

  CostModel costs_;
  SimBackend backend_;
  SimTime now_ = 0;
  Stats stats_;
  // Declared after now_ (the tracer reads it) and before the process list,
  // so subsystems owned by still-running procs never outlive the registry.
  MetricsRegistry metrics_;
  Tracer tracer_{&now_};
  Profiler profiler_{&now_, &metrics_, &tracer_};
  LockDep lockdep_{&metrics_, &tracer_};
  LogEcon log_econ_{&metrics_, &tracer_};

  std::vector<std::unique_ptr<SimProc>> procs_;
  std::deque<SimProc*> runnable_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t timer_seq_ = 0;
  size_t live_total_ = 0;
  size_t live_nondaemon_ = 0;
  SimProc* last_dispatched_ = nullptr;
  HandoffSem sched_sem_{0};   ///< thread backend only
  Fiber sched_fiber_;         ///< fiber backend: the scheduler's context
  size_t fiber_stack_bytes_;  ///< per-process stack (LFSTX_SIM_STACK_KB)
  bool stopping_ = false;
  bool ran_ = false;
};

/// \brief A sleep/wakeup channel (the paper's sleep_on / wake pair).
///
/// Processes Sleep() on the queue; others WakeOne()/WakeAll() them. All
/// operations run under the single-running-process invariant, so no locking
/// is required.
class WaitQueue {
 public:
  explicit WaitQueue(SimEnv* env) : env_(env) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// Block the current process until woken (or shutdown).
  WakeReason Sleep();
  /// Block with a timeout in virtual microseconds.
  WakeReason SleepFor(SimTime timeout);
  /// Wake the longest-waiting process, if any.
  void WakeOne();
  /// Wake every waiting process.
  void WakeAll();

  size_t waiters() const { return waiters_.size(); }
  SimEnv* env() const { return env_; }

 private:
  friend class SimEnv;
  void Remove(SimProc* p);

  SimEnv* env_;
  std::deque<SimProc*> waiters_;
};

}  // namespace lfstx

#endif  // LFSTX_SIM_SIM_ENV_H_
