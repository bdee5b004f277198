#include "sim/sim_env.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check_macros.h"

#if defined(__SANITIZE_THREAD__)
#define LFSTX_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LFSTX_TSAN_BUILD 1
#endif
#endif

namespace lfstx {

namespace {
thread_local SimProc* tls_current = nullptr;
// Handoff slot for the first entry into a fresh fiber: written by Dispatch
// immediately before the switch in, read once by FiberMain. The
// one-runnable-at-a-time invariant makes a single slot per thread
// sufficient, even for nested simulations.
thread_local SimProc* tls_fiber_entry = nullptr;

size_t FiberStackBytes() {
  if (auto kb = EnvNumber("LFSTX_SIM_STACK_KB")) {
    if (*kb >= 16) return static_cast<size_t>(*kb) * 1024;
    fprintf(stderr, "lfstx: ignoring LFSTX_SIM_STACK_KB=%llu (min 16)\n",
            static_cast<unsigned long long>(*kb));
  }
  // 1 MiB usable per process. Stacks are MAP_NORESERVE and lazily
  // committed, so a thousand mostly-idle processes stay cheap.
  return size_t{1} << 20;
}
}  // namespace

const char* SimBackendName(SimBackend b) {
  return b == SimBackend::kThreads ? "threads" : "fibers";
}

std::optional<uint64_t> EnvNumber(const char* name) {
  const char* e = getenv(name);
  if (e == nullptr) return std::nullopt;
  const char* end = e + strlen(e);
  uint64_t n = 0;
  auto [parsed_to, err] = std::from_chars(e, end, n);
  if (err == std::errc() && parsed_to == end) return n;
  fprintf(stderr, "lfstx: ignoring %s=%s (a whole decimal number)\n", name, e);
  return std::nullopt;
}

SimBackend DefaultSimBackend() {
#if defined(LFSTX_TSAN_BUILD)
  return SimBackend::kThreads;
#else
  if (const char* e = getenv("LFSTX_SIM_BACKEND")) {
    if (strcmp(e, "threads") == 0) return SimBackend::kThreads;
    if (strcmp(e, "fibers") == 0) return SimBackend::kFibers;
    fprintf(stderr, "lfstx: ignoring LFSTX_SIM_BACKEND=%s (threads|fibers)\n",
            e);
  }
  return SimBackend::kFibers;
#endif
}

SimEnv::SimEnv(CostModel costs, SimBackend backend)
    : costs_(costs),
      backend_(backend),
      fiber_stack_bytes_(FiberStackBytes()) {
  SetCheckClock(&now_);
  // On an LFSTX_CHECK failure, dump the flight-recorder tail (when the
  // machine enabled it) and a metrics snapshot before aborting, so
  // invariant violations arrive with their immediate history attached.
  SetCheckDumper(this, [this] {
    if (!tracer_.flight_enabled()) return;
    tracer_.DumpFlight(stderr);
    std::string json = metrics_.ToJson();
    fprintf(stderr, "[flight] metrics at failure:\n%s", json.c_str());
  });
  metrics_.AddGauge(this, "sim.now_us", "us", "current virtual time",
                    [this] { return static_cast<double>(now_); });
  metrics_.AddGauge(this, "sim.context_switches", "count",
                    "simulated context switches",
                    [this] { return static_cast<double>(stats_.context_switches); });
  metrics_.AddGauge(this, "sim.syscalls", "count", "simulated system calls",
                    [this] { return static_cast<double>(stats_.syscalls); });
  metrics_.AddGauge(this, "sim.processes_spawned", "count",
                    "simulated processes created",
                    [this] { return static_cast<double>(stats_.processes_spawned); });
  metrics_.AddGauge(this, "sim.cpu_busy_us", "us",
                    "CPU time charged via Consume",
                    [this] { return static_cast<double>(stats_.cpu_busy_us); });
}

SimEnv::~SimEnv() {
  // Drain any processes that were spawned but never run (or daemons still
  // parked after a completed Run()). Run() is idempotent once finished.
  if (live_total_ > 0 || !ran_) {
    Run();
  }
  for (auto& p : procs_) {
    if (p->thread_.joinable()) p->thread_.join();
  }
  ClearCheckDumper(this);
  ClearCheckClock(&now_);
}

SimProc* SimEnv::Current() { return tls_current; }

SimProc* SimEnv::Spawn(std::string name, std::function<void()> fn,
                       bool daemon) {
  auto proc = std::make_unique<SimProc>();
  SimProc* p = proc.get();
  p->name_ = std::move(name);
  p->daemon_ = daemon;
  p->fn_ = std::move(fn);
  p->env_ = this;
  p->state_ = SimProc::State::kRunnable;
  procs_.push_back(std::move(proc));
  live_total_++;
  if (!daemon) live_nondaemon_++;
  stats_.processes_spawned++;
  runnable_.push_back(p);
  profiler_.OnSpawn(p);

  if (backend_ == SimBackend::kThreads) {
    p->thread_ = std::thread([this, p] {
      p->resume_.acquire();
      tls_current = p;
      if (p->state_ != SimProc::State::kDone) {  // destructor may cancel
        p->fn_();
      }
      tls_current = nullptr;
      p->state_ = SimProc::State::kDone;
      live_total_--;
      if (!p->daemon_) live_nondaemon_--;
      sched_sem_.release();
    });
  }
  // Fiber backend: the stack is built lazily on first dispatch.
  return p;
}

void SimEnv::FiberMain() {
  SimProc* p = tls_fiber_entry;
  tls_fiber_entry = nullptr;
  p->fiber_.OnEntry();
  SimEnv* env = p->env_;
  tls_current = p;
  if (p->state_ != SimProc::State::kDone) {
    p->fn_();
  }
  tls_current = nullptr;
  p->state_ = SimProc::State::kDone;
  env->live_total_--;
  if (!p->daemon_) env->live_nondaemon_--;
  Fiber::Switch(&p->fiber_, &env->sched_fiber_, /*from_dying=*/true);
  abort();  // unreachable: a done process is never re-dispatched
}

void SimEnv::Dispatch(SimProc* p) {
  p->state_ = SimProc::State::kRunning;
  if (last_dispatched_ != nullptr && last_dispatched_ != p) {
    now_ += costs_.context_switch_us;
    stats_.context_switches++;
  }
  last_dispatched_ = p;
  profiler_.OnDispatched(p);
  if (backend_ == SimBackend::kThreads) {
    p->resume_.release();
    sched_sem_.acquire();  // until p blocks, yields, or exits
  } else {
    if (!p->fiber_.started()) {
      p->fiber_.Start(fiber_stack_bytes_, &SimEnv::FiberMain);
      tls_fiber_entry = p;
    }
    Fiber::Switch(&sched_fiber_, &p->fiber_);  // ditto
  }
}

SimTime SimEnv::Run() {
  ran_ = true;
  SimProc* outer = nullptr;
  if (backend_ == SimBackend::kFibers) {
    // A nested Run() (a simulated process driving an inner machine) parks
    // the outer process for the whole inner simulation: this scheduler
    // borrows its stack, and Current() must read as "no simulated process"
    // while the inner scheduler is in control.
    outer = tls_current;
    tls_current = nullptr;
    sched_fiber_.AdoptCurrentStack(outer != nullptr ? &outer->fiber_
                                                    : nullptr);
  }
  for (;;) {
    if (!runnable_.empty()) {
      SimProc* p = runnable_.front();
      runnable_.pop_front();
      Dispatch(p);
      continue;
    }
    if (live_nondaemon_ == 0 && !stopping_) {
      stopping_ = true;
      ForceWakeAll();
      continue;
    }
    if (live_total_ == 0) break;
    if (!timers_.empty()) {
      Timer t = timers_.top();
      timers_.pop();
      now_ = std::max(now_, t.time);
      t.cb();
      continue;
    }
    if (stopping_) {
      // Daemons were force-woken and should have exited; anything still
      // live without a timer is a bug.
      FatalDeadlock();
    }
    FatalDeadlock();
  }
  // Discard timers whose effects can no longer be observed.
  while (!timers_.empty()) timers_.pop();
  if (backend_ == SimBackend::kFibers) tls_current = outer;
  return now_;
}

void SimEnv::FatalDeadlock() {
  fprintf(stderr,
          "lfstx: simulation deadlock at t=%s — no runnable process and no "
          "pending timer. Live processes:\n",
          FormatDuration(now_).c_str());
  for (const auto& p : procs_) {
    if (p->state_ != SimProc::State::kDone) {
      const char* st = "?";
      switch (p->state_) {
        case SimProc::State::kRunnable: st = "runnable"; break;
        case SimProc::State::kRunning: st = "running"; break;
        case SimProc::State::kBlocked: st = "blocked"; break;
        case SimProc::State::kSleeping: st = "sleeping"; break;
        case SimProc::State::kDone: st = "done"; break;
      }
      fprintf(stderr, "  %-24s %s%s\n", p->name_.c_str(), st,
              p->daemon_ ? " (daemon)" : "");
    }
  }
  abort();
}

void SimEnv::SwitchToScheduler(SimProc* p) {
  if (backend_ == SimBackend::kThreads) {
    sched_sem_.release();
    p->resume_.acquire();
    return;
  }
  // Scheduler and timer callbacks must observe Current() == nullptr; the
  // thread backend gets that for free (its scheduler owns a whole thread).
  tls_current = nullptr;
  Fiber::Switch(&p->fiber_, &sched_fiber_);
  tls_current = p;
}

void SimEnv::MakeRunnable(SimProc* p, WakeReason reason) {
  p->wake_reason_ = reason;
  p->state_ = SimProc::State::kRunnable;
  p->waiting_on_ = nullptr;
  p->block_seq_++;  // cancel any pending timeout timer for this block
  runnable_.push_back(p);
  profiler_.OnRunnable(p);
}

void SimEnv::ForceWakeAll() {
  // Scheduler-internal: runs on the scheduler's own context between
  // process steps, where nothing can yield and procs_ cannot mutate.
  for (auto& up : procs_) {  // LFSTX_YIELD_OK(MakeRunnable/Remove never yield; flagged via name over-approximation)
    SimProc* p = up.get();
    if (p->state_ == SimProc::State::kBlocked) {
      if (p->waiting_on_ != nullptr) p->waiting_on_->Remove(p);
      MakeRunnable(p, WakeReason::kStopped);
    } else if (p->state_ == SimProc::State::kSleeping) {
      MakeRunnable(p, WakeReason::kStopped);
    }
  }
}

void SimEnv::Consume(uint64_t us) {
  now_ += us;
  stats_.cpu_busy_us += us;
}

void SimEnv::Syscall(uint64_t extra_us) {
  stats_.syscalls++;
  Consume(costs_.syscall_us + extra_us);
}

void SimEnv::LatchOp() {
  if (costs_.hardware_test_and_set) {
    Consume(costs_.latch_us);
  } else {
    stats_.syscalls++;
    Consume(costs_.semaphore_syscall_us);
  }
}

void SimEnv::SleepUntil(SimTime t) {
  SimProc* p = Current();
  if (t <= now_ || p == nullptr) return;
  lockdep_.OnBlock(p, "SimEnv::SleepUntil");
  p->state_ = SimProc::State::kSleeping;
  uint64_t seq = p->block_seq_;
  At(t, [this, p, seq] {
    if (p->state_ == SimProc::State::kSleeping && p->block_seq_ == seq) {
      MakeRunnable(p, WakeReason::kTimeout);
    }
  });
  SwitchToScheduler(p);
}

void SimEnv::SleepFor(SimTime d) { SleepUntil(now_ + d); }

void SimEnv::Yield() {
  SimProc* p = Current();
  if (p == nullptr) return;
  lockdep_.OnBlock(p, "SimEnv::Yield");
  p->state_ = SimProc::State::kRunnable;
  runnable_.push_back(p);
  profiler_.OnRunnable(p);
  SwitchToScheduler(p);
}

void SimEnv::At(SimTime t, std::function<void()> cb) {
  timers_.push(Timer{std::max(t, now_), timer_seq_++, std::move(cb)});
}

WakeReason WaitQueue::Sleep() {
  SimProc* p = SimEnv::Current();
  if (p == nullptr) return WakeReason::kStopped;
  if (env_->stop_requested()) return WakeReason::kStopped;
  env_->lockdep_.OnBlock(p, "WaitQueue::Sleep");
  p->state_ = SimProc::State::kBlocked;
  p->waiting_on_ = this;
  waiters_.push_back(p);
  env_->SwitchToScheduler(p);
  return p->wake_reason_;
}

WakeReason WaitQueue::SleepFor(SimTime timeout) {
  SimProc* p = SimEnv::Current();
  if (p == nullptr) return WakeReason::kStopped;
  if (env_->stop_requested()) return WakeReason::kStopped;
  env_->lockdep_.OnBlock(p, "WaitQueue::SleepFor");
  p->state_ = SimProc::State::kBlocked;
  p->waiting_on_ = this;
  waiters_.push_back(p);
  uint64_t seq = p->block_seq_;
  env_->At(env_->Now() + timeout, [this, p, seq] {
    if (p->state_ == SimProc::State::kBlocked && p->block_seq_ == seq &&
        p->waiting_on_ == this) {
      Remove(p);
      env_->MakeRunnable(p, WakeReason::kTimeout);
    }
  });
  env_->SwitchToScheduler(p);
  return p->wake_reason_;
}

void WaitQueue::WakeOne() {
  if (waiters_.empty()) return;
  SimProc* p = waiters_.front();
  waiters_.pop_front();
  env_->MakeRunnable(p, WakeReason::kWoken);
}

void WaitQueue::WakeAll() {
  while (!waiters_.empty()) WakeOne();
}

void WaitQueue::Remove(SimProc* p) {
  auto it = std::find(waiters_.begin(), waiters_.end(), p);
  if (it != waiters_.end()) waiters_.erase(it);
}

}  // namespace lfstx
