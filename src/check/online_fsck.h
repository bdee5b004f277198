// Online fsck: the consistency-checker framework run as a daemon against
// *live* Machine state, while transactions execute. Each tick audits one
// slice — one inode-map block's entries and one segment-usage row — so a
// full pass costs O(max_inodes / entries-per-block) ticks and a single
// tick never blocks the workload for more than one inode-block read.
//
// Two audit tiers:
//  * In-memory invariants (non-yielding, race-free by cooperation): every
//    mapped inode address lands inside the segment area in a non-clean
//    segment; each segment's live count equals its occupied owner slots
//    (and is zero when clean); exactly the active segment is in the
//    kActive state; no segment holding a chunk of the last checkpoint's
//    redo span (its redo point up to its head, read back with untimed
//    reads) is clean.
//  * Disk verification (yields on a timed read): read one mapped inode
//    block back and confirm the inode is present with the mapped version.
//    Guarded by a GenStamp on the inode map — if the map mutated while
//    the read was in flight the sample is discarded (fsck.retries), never
//    reported as a problem. Blocks in the active segment are skipped: an
//    in-flight chunk write may not have persisted them yet.
//
// Results surface as fsck.* metrics; the multiuser test asserts a clean
// report after thousands of audits under concurrent load.
#ifndef LFSTX_CHECK_ONLINE_FSCK_H_
#define LFSTX_CHECK_ONLINE_FSCK_H_

#include <memory>

#include "disk/sim_disk.h"
#include "lfs/lfs.h"

namespace lfstx {

/// \brief Incremental live-state auditor daemon.
class OnlineFsck {
 public:
  struct Options {
    /// Time between audit slices (virtual time).
    SimTime interval = kSecond;
  };

  struct FsckStats {
    uint64_t rounds = 0;         ///< audit slices completed
    uint64_t audits = 0;         ///< individual invariant evaluations
    uint64_t problems = 0;       ///< invariant violations found
    uint64_t disk_verified = 0;  ///< inode blocks read back and verified
    uint64_t retries = 0;        ///< disk samples discarded (state moved)
  };

  OnlineFsck(SimEnv* env, Lfs* lfs, SimDisk* disk, Options options);
  /// LFSTX_CHECK-fails while an audit slice is in flight: it would resume
  /// into this object.
  ~OnlineFsck();

  /// Wake the daemon immediately (tests).
  void Poke() { shared_->wakeup.WakeAll(); }

  /// Run one audit slice in the calling process (tests).
  void AuditSlice();

  const FsckStats& stats() const { return stats_; }

 private:
  struct Shared {
    explicit Shared(SimEnv* env) : wakeup(env) {}
    WaitQueue wakeup;
    bool alive = true;
  };

  void AuditImapBlock(uint32_t idx);
  void AuditSegment(uint32_t seg);
  void AuditRedoSpan();
  void Problem(const char* what, uint64_t a, uint64_t b);

  SimEnv* env_;
  Lfs* lfs_;
  SimDisk* disk_;
  Options options_;
  std::shared_ptr<Shared> shared_;
  FsckStats stats_;
  InFlight slices_;  ///< AuditSlice calls running
  uint32_t next_imap_block_ = 0;
  uint32_t next_segment_ = 0;
};

}  // namespace lfstx

#endif  // LFSTX_CHECK_ONLINE_FSCK_H_
