// CheckLfsStructure: adapter putting the long-standing LFS fsck walker
// (lfs/fsck.h) behind the common checker signature. The walker reads
// on-disk state (a deferred file's map excepted), so run it after a sync
// or checkpoint; the wiring in tests and bench binaries does exactly
// that.
#include "check/checkers.h"
#include "lfs/fsck.h"

namespace lfstx {

Result<CheckReport> CheckLfsStructure(const CheckContext& ctx) {
  CheckReport report;
  if (ctx.lfs == nullptr) {
    report.Counter("skipped") = 1;
    return report;
  }
  return CheckLfs(ctx.lfs);
}

}  // namespace lfstx
