#include "sim/sync.h"

namespace lfstx {

bool SimMutex::Lock() {
  SimProc* p = SimEnv::Current();
  LockDep* ld = q_.env()->lockdep();
  ld->BeginLockWait(p);
  while (held_) {
    if (q_.Sleep() == WakeReason::kStopped && held_) {
      ld->EndLockWait(p);
      return false;
    }
  }
  ld->EndLockWait(p);
  held_ = true;
  ld->OnMutexAcquired(p, this, name_, yield_ok_);
  return true;
}

void SimMutex::Unlock() {
  q_.env()->lockdep()->OnMutexReleased(SimEnv::Current(), this);
  held_ = false;
  q_.WakeOne();
}

}  // namespace lfstx
