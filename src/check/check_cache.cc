// CheckBufferCache: structural soundness of the kernel buffer cache plus
// the quiesce-point census. Structure (LRU ↔ map coherence, pin-count
// sanity, dirty accounting) is delegated to BufferCache::CheckInvariants,
// which sees the private state; this checker layers the context-dependent
// expectations on top — after a sync nothing may be dirty, at a true
// quiescent point nothing may be pinned or mid-I/O, and transaction-dirty
// buffers cannot outlive their transactions. With a file system in the
// context it also proves every clean, idle frame that names a disk home
// equal to the bytes there: a frame marked clean while the disk holds
// older bytes is a lost update waiting for its eviction.
#include <cstring>

#include "cache/buffer_cache.h"
#include "check/checkers.h"
#include "ffs/ffs.h"
#include "harness/table.h"
#include "lfs/lfs.h"

namespace lfstx {

Result<CheckReport> CheckBufferCache(const CheckContext& ctx) {
  CheckReport report;
  if (ctx.cache == nullptr) {
    report.Counter("skipped") = 1;
    return report;
  }
  const BufferCache* cache = ctx.cache;

  for (std::string& p : cache->CheckInvariants()) {
    report.Problem(std::move(p));
  }

  const size_t pinned = cache->pinned_count();
  const size_t dirty = cache->dirty_count();
  const size_t txn_dirty = cache->txn_dirty_count();
  const size_t in_io = cache->io_in_progress_count();
  if (ctx.expect_no_pins && pinned != 0) {
    report.Problem(Fmt("%zu buffers still pinned at a quiescent point",
                       pinned));
  }
  if (ctx.expect_clean_cache && dirty != 0) {
    report.Problem(Fmt("%zu dirty buffers after a sync", dirty));
  }
  if (ctx.expect_no_txns && txn_dirty != 0) {
    report.Problem(Fmt("%zu transaction-dirty buffers but no transaction "
                       "is live", txn_dirty));
  }
  if (in_io != 0) {
    report.Problem(Fmt("%zu buffers mid-I/O at a quiescent point", in_io));
  }

  const FsCore* fs = ctx.lfs != nullptr ? static_cast<const FsCore*>(ctx.lfs)
                                         : ctx.ffs;
  uint64_t compared = 0;
  if (fs != nullptr) {
    const SimDisk* disk = fs->disk();
    char on_disk[kBlockSize];
    for (const Buffer* b : cache->Frames()) {
      if (b->dirty || b->txn_dirty || b->pin_count > 0 || b->io_in_progress ||
          b->disk_addr == kInvalidBlock) {
        continue;
      }
      if (b->disk_addr >= disk->num_blocks()) {
        report.Problem(Fmt("clean buffer (file %llu, block %llu) names block "
                           "%llu, past the end of the disk",
                           (unsigned long long)b->key.file,
                           (unsigned long long)b->key.lblock,
                           (unsigned long long)b->disk_addr));
        continue;
      }
      disk->RawRead(b->disk_addr, 1, on_disk);
      compared++;
      if (memcmp(b->data, on_disk, kBlockSize) != 0) {
        report.Problem(Fmt("clean buffer (file %llu, block %llu) differs "
                           "from its disk copy at block %llu",
                           (unsigned long long)b->key.file,
                           (unsigned long long)b->key.lblock,
                           (unsigned long long)b->disk_addr));
      }
    }
  }

  report.Counter("resident") = cache->size();
  report.Counter("clean_compared") = compared;
  report.Counter("dirty") = dirty;
  report.Counter("pinned") = pinned;
  report.Counter("txn_dirty") = txn_dirty;
  return report;
}

}  // namespace lfstx
