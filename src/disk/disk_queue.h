// Pending-request queue for the simulated disk, served in elevator
// (C-LOOK) order by cylinder. The read-optimized file system's 30-second
// write-back is "sorted in the disk queue with all other I/O".
#ifndef LFSTX_DISK_DISK_QUEUE_H_
#define LFSTX_DISK_DISK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "disk/disk_model.h"
#include "sim/clock.h"
#include "sim/profiler.h"

namespace lfstx {

/// \brief One outstanding disk request.
struct DiskRequest {
  enum class Kind { kRead, kWrite };
  Kind kind;
  BlockAddr block;
  uint32_t nblocks;
  char* out = nullptr;      ///< destination for reads
  std::string data;         ///< payload for writes (captured at submit)
  std::function<void()> done;
  uint64_t seq = 0;         ///< submission order
  SimTime submit_time = 0;  ///< for the disk.request_latency_us histogram
  SimTime wait_us = 0;      ///< queue wait, filled in when service starts
  IoCause cause = IoCause::kTxn;  ///< submitting process's attribution tag
  uint64_t txn = 0;         ///< submitter's open span, 0 for daemons
  // Blame for the queue wait: the request that was in service when this
  // one arrived (the head of the line it queued behind). Unset when the
  // disk was idle at submit (wait_us is then 0).
  bool queued = false;            ///< submitted while the disk was busy
  IoCause ahead_cause = IoCause::kTxn;
  uint64_t ahead_seq = 0;
  uint64_t ahead_txn = 0;
};

/// \brief Request queue in elevator order.
class DiskQueue {
 public:
  void Push(std::unique_ptr<DiskRequest> req);

  /// Select and remove the next request to service given the current head
  /// position. Returns nullptr if empty. The order is C-LOOK: the nearest
  /// request at or beyond the current cylinder, wrapping to the lowest
  /// cylinder when none remain ahead; ties go to the earlier submission.
  std::unique_ptr<DiskRequest> PopNext(uint32_t current_cylinder,
                                       const DiskGeometry& geometry);

  size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

 private:
  std::deque<std::unique_ptr<DiskRequest>> pending_;
};

}  // namespace lfstx

#endif  // LFSTX_DISK_DISK_QUEUE_H_
