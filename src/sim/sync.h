// Blocking primitives built on WaitQueue: a mutex and a one-shot I/O
// completion event. Both obey the single-running-process invariant, so
// their state needs no internal locking, and both inherit WaitQueue's FIFO
// wake ordering — part of the determinism contract in SIMULATOR.md, and
// why these primitives behave identically on every execution backend. An
// unlock wakes the first waiter without handing it the mutex, so
// acquisition order is not FIFO (see SimMutex). InFlight counts the
// blocked calls a daemon object must not be destroyed under.
#ifndef LFSTX_SIM_SYNC_H_
#define LFSTX_SIM_SYNC_H_

#include <cstdint>

#include "sim/sim_env.h"

namespace lfstx {

/// \brief Blocking mutex for simulated processes.
///
/// Not FIFO: Unlock wakes the longest waiter but does not hand it the
/// lock. Until the woken process runs, a Lock call finds the mutex free
/// and takes it (the unlocker itself, if it relocks before yielding); the
/// woken process then finds it held and waits again, at the back of the
/// queue. Deterministic all the same, on every backend.
///
/// Every acquisition reports to the environment's cooperative lockdep
/// (sim/lockdep.h). `name` labels this mutex in lockdep reports;
/// `yield_ok` declares that holding it across blocking calls is by
/// design (the LFS log lock protects a multi-I/O segment write), which
/// exempts it from the held-across-block check but not from
/// acquisition-order cycle detection.
class SimMutex {
 public:
  explicit SimMutex(SimEnv* env, const char* name = "mutex",
                    bool yield_ok = false)
      : q_(env), name_(name), yield_ok_(yield_ok) {}
  /// Block until the mutex is acquired. Returns false if the environment
  /// shut down while waiting (callers must then back out).
  bool Lock();
  void Unlock();
  bool held() const { return held_; }
  const char* name() const { return name_; }

 private:
  WaitQueue q_;
  const char* name_;
  bool yield_ok_;
  bool held_ = false;
};

/// RAII guard for SimMutex — the only sanctioned way to lock one outside
/// sim/sync.cc (tools/lint.py enforces the funnel so lockdep sees every
/// acquisition paired with its release).
class SimMutexGuard {
 public:
  explicit SimMutexGuard(SimMutex* m) : m_(m), locked_(m->Lock()) {}
  ~SimMutexGuard() {
    if (locked_) m_->Unlock();
  }
  SimMutexGuard(const SimMutexGuard&) = delete;
  SimMutexGuard& operator=(const SimMutexGuard&) = delete;
  /// False when the environment shut down before the lock was acquired;
  /// callers must back out without touching the protected state.
  bool locked() const { return locked_; }

 private:
  SimMutex* m_;
  bool locked_;
};

/// \brief The calls running on an object whose calls can block.
///
/// A call blocked in a daemon object (a cleaning pass waiting on a read)
/// resumes into that object, even at shutdown. The object's destructor
/// checks idle() so that destroying it under such a call fails loudly
/// instead of resuming the call in freed memory.
class InFlight {
 public:
  /// Marks one call in flight for its lifetime.
  class Scope {
   public:
    explicit Scope(InFlight* f) : f_(f) { f_->calls_++; }
    ~Scope() { f_->calls_--; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    InFlight* f_;
  };
  bool idle() const { return calls_ == 0; }

 private:
  uint32_t calls_ = 0;
};

/// \brief One-shot completion event (used for disk I/O).
///
/// The completing side calls Fire() (from scheduler/timer context or a
/// process); waiters call Wait(). Safe to Fire before anyone waits.
class IoEvent {
 public:
  explicit IoEvent(SimEnv* env) : q_(env) {}
  void Fire() {
    done_ = true;
    q_.WakeAll();
  }
  /// Returns true if the event fired; false if the simulation stopped first.
  bool Wait() {
    while (!done_) {
      if (q_.Sleep() == WakeReason::kStopped) return done_;
    }
    return true;
  }
  bool done() const { return done_; }

 private:
  WaitQueue q_;
  bool done_ = false;
};

}  // namespace lfstx

#endif  // LFSTX_SIM_SYNC_H_
