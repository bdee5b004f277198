// The simulated disk: sparse 4 KiB block store (real bytes) plus the RZ55
// timing model, fed through a DiskQueue. One request is in service at a
// time; completion is a virtual-time event.
//
// Crash injection: CrashAfterBlocks() lets tests cut power mid-write — the
// request still "completes" from the issuer's point of view but only a
// prefix of its blocks persists, producing the torn segment writes the LFS
// recovery path must tolerate.
#ifndef LFSTX_DISK_SIM_DISK_H_
#define LFSTX_DISK_SIM_DISK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "disk/disk_queue.h"
#include "sim/sim_env.h"
#include "sim/sync.h"

namespace lfstx {

/// \brief Simulated block device.
class SimDisk {
 public:
  struct Options {
    DiskGeometry geometry;
    DiskTiming timing;
  };

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t clustered_reads = 0;  ///< multi-block read requests (readahead)
    uint64_t blocks_read = 0;
    uint64_t blocks_written = 0;
    uint64_t crash_torn_blocks = 0;  ///< write blocks dropped by a crash
    size_t max_queue_depth = 0;
  };

  /// One persisted block, in persist order. A prefix of a run's trace
  /// replayed into a fresh disk (RawWrite) reproduces the exact platter
  /// state at that write boundary — including torn mid-request states,
  /// since each blocks of a multi-block request is its own entry.
  struct TraceBlock {
    BlockAddr addr;
    std::array<char, kBlockSize> data;
  };

  SimDisk(SimEnv* env, Options options);
  ~SimDisk();

  uint64_t num_blocks() const { return model_.geometry().total_blocks(); }
  SimEnv* env() const { return env_; }

  /// Asynchronous I/O. `done` runs in scheduler context at completion and
  /// must not block. Write payloads are captured at submit time.
  void SubmitRead(BlockAddr block, uint32_t nblocks, char* out,
                  std::function<void()> done);
  void SubmitWrite(BlockAddr block, uint32_t nblocks, const char* data,
                   std::function<void()> done);

  /// Synchronous I/O for simulated processes: submit and block until done.
  Status Read(BlockAddr block, uint32_t nblocks, char* out);
  Status Write(BlockAddr block, uint32_t nblocks, const char* data);

  /// After the next `n` blocks are persisted, silently drop further writes
  /// (simulated power failure with a torn final write). Reads keep serving
  /// the persisted state, so a "reboot" is simply mounting a fresh file
  /// system instance over this disk.
  void CrashAfterBlocks(uint64_t n) { crashed_ = true; persist_budget_ = n; }
  void ClearCrash() {
    crashed_ = false;
    persist_budget_ = 0;  // a stale budget must not tear post-"reboot" writes
  }
  bool crashed() const { return crashed_; }

  /// Timing-free access for tests and offline inspection tools.
  void RawRead(BlockAddr block, uint32_t nblocks, char* out) const;
  void RawWrite(BlockAddr block, uint32_t nblocks, const char* data);

  /// Mirror every persisted block into `sink` (test hook; nullptr stops).
  /// Captures timed and raw writes alike, after crash filtering — the
  /// trace is exactly what reached the platter.
  void RecordPersistTrace(std::vector<TraceBlock>* sink) {
    trace_sink_ = sink;
  }

  /// Clone another disk's persisted contents (test hook: "reboot" onto a
  /// copy so recovery can be measured without disturbing the original).
  void CopyContentsFrom(const SimDisk& other);

  const Stats& stats() const { return stats_; }
  const DiskModel::Stats& model_stats() const { return model_.stats(); }
  void ResetStats() {
    stats_ = Stats();
    model_.ResetStats();
  }
  size_t queue_depth() const { return queue_.size(); }

 private:
  void Submit(std::unique_ptr<DiskRequest> req);
  void StartService(std::unique_ptr<DiskRequest> req);
  void Complete(DiskRequest* req);
  void PersistBlock(BlockAddr b, const char* src);
  const char* BlockData(BlockAddr b) const;  // zeros if never written

  SimEnv* env_;
  DiskModel model_;
  DiskQueue queue_;
  bool busy_ = false;
  uint64_t next_seq_ = 0;
  Stats stats_;
  MetricHistogram* latency_hist_ = nullptr;  // owned by env's registry
  // The request currently in service: requests submitted while the disk is
  // busy queue behind it and blame their wait on it (wait_edge events).
  IoCause cur_cause_ = IoCause::kTxn;
  uint64_t cur_seq_ = 0;
  uint64_t cur_txn_ = 0;
  MetricHistogram* blame_hist_[kNumIoCauses] = {};  // blame.disk.<cause>_us

  bool crashed_ = false;
  uint64_t persist_budget_ = 0;
  std::vector<TraceBlock>* trace_sink_ = nullptr;

  using Block = std::array<char, kBlockSize>;
  std::unordered_map<BlockAddr, std::unique_ptr<Block>> store_;
};

}  // namespace lfstx

#endif  // LFSTX_DISK_SIM_DISK_H_
