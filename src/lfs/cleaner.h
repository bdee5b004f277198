// The cleaner: LFS's garbage collector (sections 2 and 5.4).
//
// A pass reads only the live blocks it moves. The usage table's owner
// slots (segment_usage.h) name every live block of the victim, so the pass
// reads the live data and indirect blocks the cache lacks, one disk request
// per address-contiguous run, finds the victim's live inodes through the
// inode map, and never reads the victim whole.
//
// Two placements are modeled, because the difference is one of the paper's
// findings:
//  * kKernel  — the implementation measured in the paper: the pass owns the
//    log throughout, and once it has read the victim's live blocks it locks
//    every file that owns one of them or one of its inodes, so regular
//    processing on those files stops until the pass ends ("periods of very
//    high transaction throughput are interrupted by periods of no
//    transaction throughput").
//  * kUserSpace — the section 5.4 redesign: no file locks; the cleaner
//    reads the live blocks with no lock held, then copies them and
//    revalidates against recently-modified blocks in a short system call,
//    so applications keep running (they only share the disk arm).
#ifndef LFSTX_LFS_CLEANER_H_
#define LFSTX_LFS_CLEANER_H_

#include <memory>
#include <vector>

#include "lfs/lfs.h"

namespace lfstx {

/// \brief Segment cleaner daemon.
class Cleaner {
 public:
  enum class Mode { kKernel, kUserSpace };

  struct Options {
    Mode mode = Mode::kKernel;
    /// Start cleaning when clean segments drop below this many (more than
    /// Lfs::kCleanerReserveSegments, where the writer stalls, or the
    /// writer could wait on a cleaner that thinks the log is healthy)...
    uint32_t low_water = 8;
    /// ...and stop once this many are clean again.
    uint32_t high_water = 16;
    /// How often the daemon checks the watermark.
    SimTime poll_interval = kSecond;
  };

  struct CleanerStats {
    uint64_t segments_cleaned = 0;
    uint64_t live_blocks_copied = 0;
    uint64_t dead_blocks_dropped = 0;
    uint64_t rounds = 0;
    uint64_t read_requests = 0;  ///< victim reads, one per contiguous run
    uint64_t blocks_read = 0;    ///< live blocks read back from victims
    SimTime busy_us = 0;  ///< time spent inside CleanOne
  };

  /// Spawns the cleaner daemon and attaches it to the file system.
  Cleaner(SimEnv* env, Lfs* lfs, Options options);
  /// Detaches the daemon: between passes it exits on its next wakeup
  /// without touching this object again (the daemon thread itself is
  /// owned by SimEnv). A pass resumes into this object, so destroying a
  /// Cleaner while a pass is in flight fails an LFSTX_CHECK; keep it
  /// alive until SimEnv::Run returns, or until its passes are done.
  ~Cleaner();

  /// Wake the daemon immediately (writer is out of segments).
  void Poke() { shared_->wakeup.WakeAll(); }

  /// Retire the daemon for good: an engagement ends at its next pass
  /// boundary, the pass in flight runs to its end (waited for in virtual
  /// time), and the cleaner detaches from the file system, so a flush at
  /// the reserve no longer stalls for it. Call from a simulated process.
  void Stop();

  /// Clean exactly one victim segment now (also used by tests). Returns
  /// kNoSpace when there is nothing to clean.
  Status CleanOne();

  /// The section 5.4 idle-period policy: rewrite `inum`'s blocks in
  /// logical order, window by window, so the file becomes sequential on
  /// disk again ("use the cleaner to coalesce files which become
  /// fragmented"). Restores read-optimized-like scan performance after a
  /// random-update workload; see bench/ablation_defrag.
  Status CoalesceFile(InodeNum inum);

  const CleanerStats& stats() const { return stats_; }
  const Options& options() const { return options_; }
  /// A CleanOne or CoalesceFile call is in flight.
  bool busy() const { return !passes_.idle(); }

 private:
  /// State shared with the daemon lambda so the daemon can detect that the
  /// Cleaner object is gone.
  struct Shared {
    explicit Shared(SimEnv* env) : wakeup(env) {}
    WaitQueue wakeup;
    bool alive = true;
  };

  void Loop();
  /// Lock the files `inums` names (kernel mode); deleted ones are skipped.
  void LockFiles(const std::vector<InodeNum>& inums,
                 std::vector<Inode*>* locked);
  void UnlockFiles(const std::vector<Inode*>& locked);

  SimEnv* env_;
  Lfs* lfs_;
  Options options_;
  std::shared_ptr<Shared> shared_;
  CleanerStats stats_;
  InFlight passes_;  ///< CleanOne and CoalesceFile calls running
  MetricHistogram* busy_hist_ = nullptr;         ///< per-CleanOne duration
  MetricHistogram* victim_util_hist_ = nullptr;  ///< utilization at pick
};

}  // namespace lfstx

#endif  // LFSTX_LFS_CLEANER_H_
