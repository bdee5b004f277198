// The operating system's buffer cache (paper sections 2-4).
//
// Frames are keyed by (file, logical block) in a hash map. The cache is LRU
// with pinning; dirty victims are pushed back to the owning file system
// through a WritebackHandler, because the write path is what distinguishes
// FFS (overwrite in place) from LFS (append to the log).
//
// Embedded-transaction support is the paper's inode extension: besides the
// normal dirty list, a buffer can sit on a *transaction list*
// (MarkTxnDirty). Such buffers are unevictable until the transaction
// commits (moving them to the dirty list) or aborts (invalidating them) —
// implementation restriction 1 of section 4.5.
//
// Both lists are real indexes, kept in step with every flag change and
// every dropped frame: the dirty list is ordered by key, and the
// transaction lists by (transaction, key). A flush, commit or abort
// therefore visits only the frames it returns, in key order, however large
// the cache is. CheckInvariants recounts both against a full scan.
#ifndef LFSTX_CACHE_BUFFER_CACHE_H_
#define LFSTX_CACHE_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "fs/fs_types.h"
#include "sim/sim_env.h"

namespace lfstx {

struct BufferKey {
  FileId file = 0;
  uint64_t lblock = 0;
  bool operator==(const BufferKey&) const = default;
  bool operator<(const BufferKey& o) const {
    return file != o.file ? file < o.file : lblock < o.lblock;
  }
};

/// \brief One cached 4 KiB block.
struct Buffer {
  BufferKey key;
  char data[kBlockSize];
  bool dirty = false;
  bool txn_dirty = false;  ///< on a transaction list, unevictable
  bool prefetched = false;  ///< installed by readahead, never referenced yet
  TxnId txn_owner = kNoTxn;
  int pin_count = 0;
  bool io_in_progress = false;  ///< being loaded or written back
  BlockAddr disk_addr = kInvalidBlock;  ///< where this version lives on disk
  /// Bumped by MarkDirty and MarkTxnDirty. A writer records it when it
  /// captures the contents and marks the buffer clean after its (yielding)
  /// disk write only if it has not moved: a process that modified the
  /// buffer meanwhile keeps it dirty.
  uint64_t mods = 0;

  // Cache-internal bookkeeping.
  std::list<Buffer*>::iterator lru_pos;
  bool in_lru = false;
  std::unique_ptr<WaitQueue> io_wait;
};

/// \brief File-system-side flush hook.
class WritebackHandler {
 public:
  virtual ~WritebackHandler() = default;
  /// Write the buffer's current contents to stable storage and leave it
  /// clean. May block on disk I/O. For LFS this appends to the log and
  /// reassigns buf->disk_addr; for FFS it overwrites in place.
  virtual Status WriteBack(Buffer* buf) = 0;
};

/// \brief LRU buffer cache shared by the whole simulated kernel.
class BufferCache {
 public:
  /// `instance` namespaces the registered metrics: empty registers
  /// "cache.hits", "lfs" registers "cache.lfs.hits", and so on. Rigs that
  /// host more than one file system must pass distinct instances or the
  /// registry's first-wins rule silently drops the second cache's numbers
  /// (the same hazard PR 3 fixed for `txn.*`/`lock.*`).
  BufferCache(SimEnv* env, size_t capacity_blocks, std::string instance = "");
  ~BufferCache();

  void set_writeback(WritebackHandler* handler) { writeback_ = handler; }
  SimEnv* env() const { return env_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return buffers_.size(); }

  /// Pinned, valid buffer for `key`, calling `load(char* dst)` to fill it
  /// on a miss. Concurrent misses of the same block coalesce on one load.
  /// The loader is a template parameter so a hit never builds a closure.
  template <typename Load>
  Result<Buffer*> Get(BufferKey key, Load&& load) {
    bool fresh = false;
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, Frame(key, &fresh));
    if (!fresh) return buf;
    buf->io_in_progress = true;
    return FinishLoad(buf, load(buf->data));
  }

  /// Pinned buffer without loading (caller will overwrite it fully, or the
  /// block is brand new). Contents are zeroed on a miss.
  Result<Buffer*> GetNoLoad(BufferKey key);

  /// Buffer if resident (and pins it), nullptr otherwise. Never does I/O.
  Buffer* Peek(BufferKey key);

  /// True if a frame for `key` exists, even one mid-I/O. Never pins and
  /// never blocks — the readahead extent scan uses it to stop at blocks
  /// that are already cached.
  bool Resident(BufferKey key) const { return buffers_.count(key) != 0; }

  /// Install a clean, unpinned frame holding prefetched contents (clustered
  /// readahead). Returns false without side effects when the key is already
  /// resident (a racing writer or reader owns the truth) or when no frame
  /// can be reclaimed without a write-back — prefetches must never force
  /// dirty eviction. The frame is flagged `prefetched` until its first
  /// reference; frames evicted still flagged count as wasted readahead.
  bool InstallPrefetched(BufferKey key, const char* data, BlockAddr disk_addr);

  /// Record one clustered readahead request that fetched `extra_blocks`
  /// beyond the demand block (called by the file system's read path when it
  /// issues the multi-block disk request).
  void NoteReadahead(uint64_t extra_blocks) {
    stats_.readahead_issued++;
    stats_.readahead_blocks += extra_blocks;
  }

  /// Unpin. Every successful Get/GetNoLoad/Peek must be paired with one.
  void Release(Buffer* buf);

  /// Move to the ordinary dirty list (write-back later / at sync).
  void MarkDirty(Buffer* buf);
  /// Move to `txn`'s transaction list: unevictable, not visible to Sync.
  void MarkTxnDirty(Buffer* buf, TxnId txn);
  /// Called by the file system after it persisted the buffer. A write that
  /// yields must first check that `mods` still holds the value it recorded
  /// when it captured the contents.
  void MarkClean(Buffer* buf);

  /// Return txn's buffers in key order (commit path: caller re-marks them
  /// dirty and flushes). Buffers come back pinned once each.
  std::vector<Buffer*> TakeTxnBuffers(TxnId txn);
  /// Drop txn's buffers entirely (abort path): the on-disk before-images
  /// become the visible versions again.
  void InvalidateTxnBuffers(TxnId txn);

  /// Snapshot of dirty (non-transaction) buffers in key order. Buffers are
  /// returned pinned.
  std::vector<Buffer*> CollectDirty();
  /// Dirty buffers belonging to one file, in block order, pinned.
  std::vector<Buffer*> CollectDirtyFile(FileId file);

  /// Invalidate all buffers of a file (delete/truncate). Pinned or
  /// transaction buffers trip an assertion — callers must quiesce first.
  void DropFile(FileId file, uint64_t from_lblock = 0);

  /// Drop every buffer (unmount path). Asserts none are pinned, dirty, or
  /// transaction-dirty — callers must SyncAll first.
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_evictions = 0;
    uint64_t readahead_issued = 0;  ///< clustered (multi-block) read requests
    uint64_t readahead_blocks = 0;  ///< blocks fetched beyond demand blocks
    uint64_t readahead_hits = 0;    ///< first references to prefetched frames
    uint64_t readahead_wasted = 0;  ///< prefetched frames dropped unreferenced
  };
  const Stats& stats() const { return stats_; }
  size_t dirty_count() const { return dirty_.size(); }

  /// Instantaneous census used by the quiesce-point checkers (CheckBufferCache
  /// and CheckTxn in src/check/): none of these may be nonzero at a true
  /// quiescent point except after explicit pinning by the caller.
  size_t pinned_count() const;
  size_t txn_dirty_count() const { return txn_lists_.size(); }
  size_t io_in_progress_count() const;
  /// Every resident frame, in key order (checkers read them; no pins).
  std::vector<const Buffer*> Frames() const;

  /// Deep structural self-check: LRU list ↔ hash map coherence, pin-count
  /// sanity, and a full recount of the dirty frames, transaction-list
  /// frames and prefetched frames against the indexes and counter that
  /// track them. Returns one message per violated invariant, in key order;
  /// empty means structurally sound. Cheap enough to run after every test
  /// round (O(resident buffers · log)).
  std::vector<std::string> CheckInvariants() const;

  /// Bumped by every logical content-state change: dirty/clean transitions,
  /// transaction-list moves, invalidations, drops. Frame churn that leaves
  /// content state alone (inserts, clean evictions, LRU touches) does not
  /// count. GenStamp<BufferCache> assertions and the `gens` checker use it
  /// to detect foreign mutation across regions that assumed cache contents
  /// were stable (see check/gen_stamp.h).
  uint64_t mutation_gen() const { return mutation_gen_; }

  /// While the counter is nonzero, eviction only reclaims clean frames
  /// (never calls the WritebackHandler). The LFS segment writer and the
  /// cleaner hold this across their critical phases so cache misses inside
  /// a flush cannot recurse into another flush. Nestable.
  void PushNoDirtyEviction() { no_dirty_eviction_++; }
  void PopNoDirtyEviction() { no_dirty_eviction_--; }

 private:
  /// A transaction list entry's key: (owner, block).
  using TxnKey = std::pair<TxnId, BufferKey>;
  struct KeyHash {
    size_t operator()(const BufferKey& k) const {
      return static_cast<size_t>(k.file * 0x9e3779b97f4a7c15ull ^ k.lblock);
    }
  };
  using FrameMap =
      std::unordered_map<BufferKey, std::unique_ptr<Buffer>, KeyHash>;

  Result<Buffer*> Frame(BufferKey key, bool* fresh);
  /// Ends a Get miss's load: wakes waiters, and on failure unpins and drops
  /// the half-built frame.
  Result<Buffer*> FinishLoad(Buffer* buf, Status load_status);
  Status EvictOne();
  /// Reclaim one clean, unpinned frame, preferring never-referenced
  /// prefetches over demand-loaded data. Returns false if every clean
  /// frame is pinned or in flight.
  bool EvictCleanOne();
  void TouchLru(Buffer* buf);
  /// Take `buf` off the LRU list, the dirty and transaction lists and the
  /// prefetched count (a frame dropped still prefetched counts as wasted
  /// readahead), then free it. `it` is the frame's residency-map slot; the
  /// iterator after it is returned.
  FrameMap::iterator DropFrame(FrameMap::iterator it);
  void DropFrame(Buffer* buf) { DropFrame(buffers_.find(buf->key)); }
  /// Flag transitions that keep the dirty and transaction lists in step.
  void SetDirty(Buffer* buf, bool dirty);
  void SetTxnOwner(Buffer* buf, TxnId txn);
  /// First-reference bookkeeping shared by Get/Peek hit paths.
  void NoteReferenced(Buffer* buf) {
    if (buf->prefetched) {
      buf->prefetched = false;
      prefetched_count_--;
      stats_.readahead_hits++;
    }
  }
  std::string MetricName(const char* leaf) const;

  SimEnv* env_;
  size_t capacity_;
  std::string instance_;
  WritebackHandler* writeback_ = nullptr;
  FrameMap buffers_;
  std::list<Buffer*> lru_;  // front = coldest
  std::map<BufferKey, Buffer*> dirty_;   // the dirty list, key order
  std::map<TxnKey, Buffer*> txn_lists_;  // all transaction lists
  size_t prefetched_count_ = 0;  // resident frames still flagged prefetched
  int no_dirty_eviction_ = 0;
  uint64_t mutation_gen_ = 0;
  Stats stats_;
};

}  // namespace lfstx

#endif  // LFSTX_CACHE_BUFFER_CACHE_H_
