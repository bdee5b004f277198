// Byte-provenance accounting for the log-economics observatory
// (OBSERVABILITY.md, "Log economics").
//
// Every block a file system submits to the disk is charged to exactly one
// provenance category at the write site — the same partition discipline as
// the profiler's phases: the categories sum to the disk's total
// blocks_written with no gap and no overlap (tests/logecon_test.cc asserts
// the equality exactly, on all three architectures). RawWrite (untimed
// mkfs-style setup) is outside the partition on both sides.
//
// Derived economics:
//   wa.logical   bytes-to-disk / logical bytes the application wrote
//                through FsCore::Write (WAL appends excluded). Can dip
//                below 1.0 when the cache absorbs overwrites of the same
//                page between flushes.
//   wa.physical  bytes-to-disk / payload bytes on disk (user data + WAL +
//                FFS write-back). >= 1.0 by construction — the pure
//                overhead multiplier of metadata, summaries, checkpoints
//                and cleaning. (On pure FFS the write-back category also
//                covers itable/bitmap blocks, so the metric is only
//                interesting on the LFS architectures.)
//   wa.write_cost  Rosenblum-style cleaner write cost 2/(1-u) from the
//                mean victim utilization at clean (1.0 = no cleaner has
//                run: new data costs exactly its own write).
#ifndef LFSTX_SIM_LOG_ECON_H_
#define LFSTX_SIM_LOG_ECON_H_

#include <cstdint>

#include "common/metrics.h"
#include "disk/disk_model.h"
#include "sim/trace.h"

namespace lfstx {

/// Provenance of a block written to disk. Exactly one category per block.
enum class LogByteCat : uint8_t {
  kUserData = 0,  ///< application file data through the segment writer
  kWal = 1,       ///< LIBTP WAL file blocks (log-manager appends)
  kInode = 2,     ///< inode blocks + indirect (mapping) blocks
  kImap = 3,      ///< LFS inode-map blocks
  kSummary = 4,   ///< partial-segment summary blocks
  kCheckpoint = 5,  ///< checkpoint-region images
  kCleaner = 6,   ///< cleaner copy-forward rewrites (payload of a
                  ///< cleaning pass's flushes after its drain)
  kFfs = 7,       ///< FFS/syncer write-back (itable, bitmap, non-WAL data)
};
constexpr int kNumLogByteCats = 8;

/// Dotted-metric / trace-field name of a category ("user_data", "wal", ...).
const char* LogByteCatName(LogByteCat c);

/// \brief Machine-wide byte-provenance accountant. One per SimEnv, reached
/// via env->log_econ(); write sites charge it at submit time so the
/// partition matches SimDisk's submit-time blocks_written even when a
/// crash tears the request.
class LogEcon {
 public:
  LogEcon(MetricsRegistry* metrics, Tracer* tracer);
  ~LogEcon();

  LogEcon(const LogEcon&) = delete;
  LogEcon& operator=(const LogEcon&) = delete;

  /// Charge `blocks` disk blocks to `cat`. Call exactly once per block
  /// submitted via SimDisk::Write/SubmitWrite (never for RawWrite).
  void ChargeBlocks(LogByteCat cat, uint64_t blocks);

  /// Count bytes the application logically wrote (FsCore::Write payload,
  /// WAL file excluded) — the denominator of wa.logical.
  void ChargeLogicalUser(uint64_t bytes);

  uint64_t blocks(LogByteCat cat) const {
    return blocks_[static_cast<int>(cat)];
  }
  uint64_t total_blocks() const { return total_blocks_; }
  uint64_t total_bytes() const { return total_blocks_ * kBlockSize; }
  uint64_t logical_user_bytes() const { return logical_user_bytes_; }

  /// bytes-to-disk / logical user bytes (0 before any logical write).
  double LogicalWriteAmplification() const;
  /// bytes-to-disk / on-disk payload bytes (user data + WAL + FFS
  /// write-back); >= 1.0 once any payload block is on disk, 0 before.
  double PhysicalWriteAmplification() const;

 private:
  MetricsRegistry* metrics_;
  Tracer* tracer_;
  uint64_t blocks_[kNumLogByteCats] = {};
  uint64_t total_blocks_ = 0;
  uint64_t logical_user_bytes_ = 0;
  MetricCounter* bytes_counter_[kNumLogByteCats] = {};
  MetricCounter* logical_counter_ = nullptr;
  /// Shared with the cleaner (GetHistogram is idempotent): victim
  /// utilization percentage at clean, feeding wa.write_cost.
  MetricHistogram* victim_util_hist_ = nullptr;
};

}  // namespace lfstx

#endif  // LFSTX_SIM_LOG_ECON_H_
