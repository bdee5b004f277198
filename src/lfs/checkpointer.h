// The checkpoint daemon: periodically takes a *fuzzy* checkpoint
// (Lfs::Checkpoint) so recovery's roll-forward is bounded by the
// checkpoint interval instead of by total log size — without ever
// stalling transactions, since the flush lock is held only for the
// in-memory capture and the multi-block region write proceeds with
// commits still flowing.
#ifndef LFSTX_LFS_CHECKPOINTER_H_
#define LFSTX_LFS_CHECKPOINTER_H_

#include <memory>

#include "lfs/lfs.h"

namespace lfstx {

/// \brief Fuzzy-checkpoint daemon.
class Checkpointer {
 public:
  struct Options {
    /// How often to take a checkpoint (virtual time).
    SimTime interval = 5 * kSecond;
  };

  struct CheckpointerStats {
    uint64_t rounds = 0;  ///< timer ticks that called Checkpoint()
    uint64_t errors = 0;  ///< checkpoints that returned an error
  };

  /// Spawns the daemon. It exits on env shutdown or ~Checkpointer.
  Checkpointer(SimEnv* env, Lfs* lfs, Options options);
  /// LFSTX_CHECK-fails while a checkpoint is in flight: it would resume
  /// into this object.
  ~Checkpointer();

  /// Wake the daemon immediately (tests).
  void Poke() { shared_->wakeup.WakeAll(); }

  const CheckpointerStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  /// Shared with the daemon lambda so it can detect that the Checkpointer
  /// object is gone (the daemon itself is owned by SimEnv).
  struct Shared {
    explicit Shared(SimEnv* env) : wakeup(env) {}
    WaitQueue wakeup;
    bool alive = true;
  };

  SimEnv* env_;
  Lfs* lfs_;
  Options options_;
  std::shared_ptr<Shared> shared_;
  CheckpointerStats stats_;
  InFlight rounds_;  ///< the daemon's checkpoint, while it runs
};

}  // namespace lfstx

#endif  // LFSTX_LFS_CHECKPOINTER_H_
