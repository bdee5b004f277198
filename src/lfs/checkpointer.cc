#include "lfs/checkpointer.h"

namespace lfstx {

Checkpointer::Checkpointer(SimEnv* env, Lfs* lfs, Options options)
    : env_(env),
      lfs_(lfs),
      options_(options),
      shared_(std::make_shared<Shared>(env)) {
  // The daemon thread is owned by SimEnv and may be drained after this
  // Checkpointer is destroyed; it only touches `this` while shared->alive.
  std::shared_ptr<Shared> shared = shared_;
  SimTime interval = options_.interval;
  env_->Spawn(
      "checkpointer",
      [this, env, shared, interval] {
        env->profiler()->SetCause(IoCause::kCheckpoint);
        while (!env->stop_requested() && shared->alive) {
          shared->wakeup.SleepFor(interval);
          if (env->stop_requested() || !shared->alive) break;
          InFlight::Scope round(&rounds_);
          stats_.rounds++;
          Status s = lfs_->Checkpoint();
          if (!s.ok() && s.code() != Code::kBusy) stats_.errors++;
        }
      },
      /*daemon=*/true);

  MetricsRegistry* m = env_->metrics();
  m->AddGauge(this, "checkpointer.rounds", "count",
              "timer ticks that requested a checkpoint",
              [this] { return static_cast<double>(stats_.rounds); });
  m->AddGauge(this, "checkpointer.errors", "count",
              "checkpoints that returned an error",
              [this] { return static_cast<double>(stats_.errors); });
}

Checkpointer::~Checkpointer() {
  LFSTX_CHECK(rounds_.idle(), "Checkpointer destroyed mid-checkpoint");
  env_->metrics()->DropOwner(this);
  shared_->alive = false;
}

}  // namespace lfstx
