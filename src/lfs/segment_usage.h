// Per-segment usage table, exact to the block. Every slot of every segment
// records the owner of the block written there (its SummaryEntry: kind,
// inum, lblock) until that block dies, so a segment's live count is its
// number of occupied slots and the cleaner reads only the blocks the table
// names. Besides the owners, each segment carries its state, generation,
// the payload blocks written in its current incarnation, and the write
// timestamp from which the `lfs.segment_lifetime_us` histogram measures a
// segment's age when it is cleaned.
//
// The checkpoint persists state, generation, write time and the written
// count. Live counts and owners are rebuilt at every mount by walking every
// inode's block map (Lfs::RebuildUsage), so they cost no checkpoint space.
#ifndef LFSTX_LFS_SEGMENT_USAGE_H_
#define LFSTX_LFS_SEGMENT_USAGE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "lfs/segment.h"
#include "sim/clock.h"

namespace lfstx {

class SimEnv;
class MetricHistogram;

enum class SegState : uint8_t {
  kClean = 0,   ///< free for the writer
  kDirty = 1,   ///< contains (possibly dead) data
  kActive = 2,  ///< the segment currently being appended to
};

/// \brief In-memory segment usage table with a per-slot owner table.
class SegmentUsage {
 public:
  SegmentUsage(uint32_t nsegments, uint32_t segment_blocks);

  uint32_t nsegments() const { return nsegments_; }
  uint32_t segment_blocks() const { return segment_blocks_; }
  uint32_t clean_count() const { return clean_count_; }

  /// Attach lifecycle telemetry: the `lfs.segment_lifetime_us` histogram
  /// (written-to-cleaned age at MarkClean) and `TraceCat::kLogEcon`
  /// seg_activate / seg_sealed / seg_cleaned events. Without it the table
  /// is silent (unit tests construct bare tables). Lfs re-calls this after
  /// Mount rebuilds the table, since move-assignment replaces the object.
  void AttachTelemetry(SimEnv* env);

  /// Total live blocks across all segments (maintained incrementally; the
  /// `logecon.live_fraction` gauge divides it by total log capacity).
  uint64_t total_live() const { return total_live_; }

  SegState state(uint32_t seg) const { return entries_[seg].state; }
  /// Occupied slots of `seg`.
  uint32_t live(uint32_t seg) const { return entries_[seg].live; }
  /// Payload blocks appended to `seg` since it was activated; the blocks
  /// among them that are not live are dead.
  uint32_t written(uint32_t seg) const { return entries_[seg].written; }
  uint32_t generation(uint32_t seg) const { return entries_[seg].generation; }
  SimTime write_time(uint32_t seg) const { return entries_[seg].write_time; }
  /// Owner of the block at `slot` of `seg`; `kind` is 0 when the slot
  /// holds no live block (a summary block, a dead block, or unwritten).
  const SummaryEntry& owner(uint32_t seg, uint32_t slot) const {
    return owners_[Index(seg, slot)];
  }

  /// The segment writer placed `owner`'s block at `slot` of `seg`.
  /// LFSTX_CHECK-fails if the slot is occupied.
  void AddLive(uint32_t seg, uint32_t slot, const SummaryEntry& owner,
               SimTime now);
  /// The block at `slot` of `seg` died (overwritten, freed or moved).
  /// LFSTX_CHECK-fails if the slot is empty.
  void DecLive(uint32_t seg, uint32_t slot);

  /// Transition clean -> active with empty slots; bumps the generation.
  /// Returns the new generation.
  uint32_t Activate(uint32_t seg);
  /// Active segment filled: becomes dirty.
  void Retire(uint32_t seg);
  /// Cleaner finished: dirty -> clean (live must be 0).
  void MarkClean(uint32_t seg);

  // ---- mount-time rebuild (recovery.cc) ----
  /// Roll-forward replayed an `nblocks`-payload chunk at offset `off` of
  /// `seg`, written in generation `gen` at `time`. A chunk at offset 0
  /// starts a new incarnation of the segment.
  void ReplayChunk(uint32_t seg, uint32_t off, uint32_t nblocks, uint32_t gen,
                   SimTime time);
  /// Empty every slot (the start of RebuildUsage's walk).
  void ClearLive();
  /// The walk found `owner`'s block at `slot` of `seg`. Returns false and
  /// leaves the table alone if the slot is already occupied (two claims of
  /// one block; the fsck reports it).
  bool RestoreLive(uint32_t seg, uint32_t slot, const SummaryEntry& owner);
  void SetState(uint32_t seg, SegState state);

  /// Next clean segment (round-robin from `after`), or error if none.
  Result<uint32_t> PickClean(uint32_t after) const;
  /// The greedy victim (the paper's experiments cleaned greedily): the
  /// dirty segment with the fewest live blocks, the lowest-numbered one on
  /// a tie. Returns error if no dirty segment exists.
  Result<uint32_t> PickVictim() const;

  /// Checkpoint representation: 16 bytes per segment (written count, state,
  /// generation, write time).
  size_t SerializedBytes() const { return nsegments_ * 16; }
  void Serialize(char* out) const;
  /// Restores everything but live counts and owners: every slot is empty
  /// until RebuildUsage refills them.
  void Deserialize(const char* in);

  /// Bumped by every logical mutation of the table (live counts, state
  /// transitions, raw restores). GenStamp<SegmentUsage> assertions and the
  /// `gens` checker use it to detect foreign mutation across regions that
  /// assumed the table was stable (see check/gen_stamp.h).
  uint64_t mutation_gen() const { return mutation_gen_; }

 private:
  struct Entry {
    uint32_t live = 0;
    uint32_t written = 0;
    SegState state = SegState::kClean;
    uint32_t generation = 0;
    SimTime write_time = 0;
  };
  size_t Index(uint32_t seg, uint32_t slot) const {
    return static_cast<size_t>(seg) * segment_blocks_ + slot;
  }

  uint32_t nsegments_;
  uint32_t segment_blocks_;
  uint32_t clean_count_;
  std::vector<Entry> entries_;
  std::vector<SummaryEntry> owners_;  ///< nsegments x segment_blocks
  uint64_t mutation_gen_ = 0;
  uint64_t total_live_ = 0;
  // Telemetry sinks (see AttachTelemetry); null on bare tables.
  SimEnv* env_ = nullptr;
  MetricHistogram* lifetime_hist_ = nullptr;
};

}  // namespace lfstx

#endif  // LFSTX_LFS_SEGMENT_USAGE_H_
