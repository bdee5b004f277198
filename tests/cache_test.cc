#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "common/random.h"
#include "disk/sim_disk.h"

namespace lfstx {
namespace {

// Writeback handler that records flushes into the sim disk.
class TestWriteback : public WritebackHandler {
 public:
  TestWriteback(SimDisk* disk, BufferCache* cache)
      : disk_(disk), cache_(cache) {}
  Status WriteBack(Buffer* buf) override {
    flushed++;
    if (buf->disk_addr != kInvalidBlock) {
      LFSTX_RETURN_IF_ERROR(disk_->Write(buf->disk_addr, 1, buf->data));
    }
    cache_->MarkClean(buf);
    return Status::OK();
  }
  int flushed = 0;

 private:
  SimDisk* disk_;
  BufferCache* cache_;
};

struct CacheFixture {
  CacheFixture(size_t capacity = 8)
      : disk(&env, SimDisk::Options{}),
        cache(&env, capacity),
        wb(&disk, &cache) {
    cache.set_writeback(&wb);
  }
  SimEnv env;
  SimDisk disk;
  BufferCache cache;
  TestWriteback wb;
};

TEST(BufferCacheTest, MissLoadsThenHits) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    int loads = 0;
    auto loader = [&](char* dst) {
      loads++;
      memset(dst, 0x5a, kBlockSize);
      return Status::OK();
    };
    auto r1 = f.cache.Get(BufferKey{1, 0}, loader);
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(static_cast<unsigned char>(r1.value()->data[100]), 0x5a);
    f.cache.Release(r1.value());
    auto r2 = f.cache.Get(BufferKey{1, 0}, loader);
    ASSERT_TRUE(r2.ok());
    f.cache.Release(r2.value());
    EXPECT_EQ(loads, 1);
  });
  f.env.Run();
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.cache.stats().misses, 1u);
}

TEST(BufferCacheTest, LruEvictsColdest) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    for (uint64_t i = 0; i < 8; i++) {
      auto r = f.cache.Get(BufferKey{1, i}, load);
      ASSERT_TRUE(r.ok());
      f.cache.Release(r.value());
    }
    // Touch block 0 so block 1 is the coldest.
    f.cache.Release(f.cache.Get(BufferKey{1, 0}, load).value());
    // Insert one more; block 1 should be evicted.
    f.cache.Release(f.cache.Get(BufferKey{1, 100}, load).value());
    EXPECT_NE(f.cache.Peek(BufferKey{1, 0}), nullptr);
    f.cache.Release(f.cache.Peek(BufferKey{1, 0}));
    EXPECT_EQ(f.cache.Peek(BufferKey{1, 1}), nullptr);
  });
  f.env.Run();
  EXPECT_EQ(f.cache.stats().evictions, 1u);
}

TEST(BufferCacheTest, DirtyEvictionWritesBack) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    auto r = f.cache.Get(BufferKey{1, 0}, load);
    ASSERT_TRUE(r.ok());
    r.value()->disk_addr = 500;
    memset(r.value()->data, 0x77, kBlockSize);
    f.cache.MarkDirty(r.value());
    f.cache.Release(r.value());
    // Fill the cache with more *dirty* buffers (eviction prefers clean
    // victims, so only an all-dirty cache forces a write-back).
    for (uint64_t i = 1; i <= 8; i++) {
      auto r2 = f.cache.Get(BufferKey{2, i}, load);
      ASSERT_TRUE(r2.ok());
      r2.value()->disk_addr = 600 + i;
      f.cache.MarkDirty(r2.value());
      f.cache.Release(r2.value());
    }
    EXPECT_GE(f.wb.flushed, 1);
    char out[kBlockSize];
    f.disk.RawRead(500, 1, out);
    EXPECT_EQ(static_cast<unsigned char>(out[0]), 0x77);
  });
  f.env.Run();
}

TEST(BufferCacheTest, PinnedBuffersAreNotEvicted) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    auto pinned = f.cache.Get(BufferKey{9, 9}, load);
    ASSERT_TRUE(pinned.ok());
    for (uint64_t i = 0; i < 20; i++) {
      auto r = f.cache.Get(BufferKey{1, i}, load);
      ASSERT_TRUE(r.ok());
      f.cache.Release(r.value());
    }
    Buffer* still = f.cache.Peek(BufferKey{9, 9});
    EXPECT_NE(still, nullptr);
    f.cache.Release(still);
    f.cache.Release(pinned.value());
  });
  f.env.Run();
}

TEST(BufferCacheTest, TxnBuffersAreUnevictableAndInvisible) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    auto r = f.cache.GetNoLoad(BufferKey{3, 7});
    ASSERT_TRUE(r.ok());
    f.cache.MarkTxnDirty(r.value(), /*txn=*/42);
    f.cache.Release(r.value());
    // Not visible to the syncer's dirty scan.
    EXPECT_TRUE(f.cache.CollectDirty().empty());
    // Survives cache pressure.
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    for (uint64_t i = 0; i < 20; i++) {
      auto r2 = f.cache.Get(BufferKey{1, i}, load);
      ASSERT_TRUE(r2.ok());
      f.cache.Release(r2.value());
    }
    Buffer* still = f.cache.Peek(BufferKey{3, 7});
    ASSERT_NE(still, nullptr);
    EXPECT_TRUE(still->txn_dirty);
    f.cache.Release(still);
  });
  f.env.Run();
}

TEST(BufferCacheTest, CommitPathTakesTxnBuffers) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    for (uint64_t i = 0; i < 3; i++) {
      auto r = f.cache.GetNoLoad(BufferKey{5, i});
      ASSERT_TRUE(r.ok());
      f.cache.MarkTxnDirty(r.value(), 7);
      f.cache.Release(r.value());
    }
    auto r = f.cache.GetNoLoad(BufferKey{5, 50});
    ASSERT_TRUE(r.ok());
    f.cache.MarkTxnDirty(r.value(), 8);  // different transaction
    f.cache.Release(r.value());

    auto taken = f.cache.TakeTxnBuffers(7);
    EXPECT_EQ(taken.size(), 3u);
    for (Buffer* b : taken) {
      f.cache.MarkDirty(b);
      f.cache.Release(b);
    }
    auto dirty = f.cache.CollectDirty();
    EXPECT_EQ(dirty.size(), 3u);
    for (Buffer* b : dirty) f.cache.Release(b);
  });
  f.env.Run();
}

TEST(BufferCacheTest, AbortPathInvalidatesTxnBuffers) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    auto r = f.cache.GetNoLoad(BufferKey{6, 1});
    ASSERT_TRUE(r.ok());
    memset(r.value()->data, 0xee, kBlockSize);
    f.cache.MarkTxnDirty(r.value(), 9);
    f.cache.Release(r.value());
    f.cache.InvalidateTxnBuffers(9);
    EXPECT_EQ(f.cache.Peek(BufferKey{6, 1}), nullptr);
  });
  f.env.Run();
}

TEST(BufferCacheTest, CollectDirtyFileIsScoped) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    for (FileId file : {10, 11}) {
      for (uint64_t i = 0; i < 2; i++) {
        auto r = f.cache.GetNoLoad(BufferKey{file, i});
        ASSERT_TRUE(r.ok());
        f.cache.MarkDirty(r.value());
        f.cache.Release(r.value());
      }
    }
    auto dirty10 = f.cache.CollectDirtyFile(10);
    EXPECT_EQ(dirty10.size(), 2u);
    for (Buffer* b : dirty10) {
      EXPECT_EQ(b->key.file, 10u);
      f.cache.Release(b);
    }
  });
  f.env.Run();
}

TEST(BufferCacheTest, DropFileRemovesBuffers) {
  CacheFixture f;
  f.env.Spawn("p", [&] {
    auto load = [](char* dst) {
      memset(dst, 0, kBlockSize);
      return Status::OK();
    };
    for (uint64_t i = 0; i < 4; i++) {
      auto r = f.cache.Get(BufferKey{20, i}, load);
      ASSERT_TRUE(r.ok());
      f.cache.Release(r.value());
    }
    f.cache.DropFile(20, 2);
    EXPECT_NE(f.cache.Peek(BufferKey{20, 1}), nullptr);
    f.cache.Release(f.cache.Peek(BufferKey{20, 1}));
    EXPECT_EQ(f.cache.Peek(BufferKey{20, 2}), nullptr);
    EXPECT_EQ(f.cache.Peek(BufferKey{20, 3}), nullptr);
  });
  f.env.Run();
}

TEST(BufferCacheTest, ExhaustionReportsNoSpace) {
  CacheFixture f(8);
  f.env.Spawn("p", [&] {
    // Fill the cache with transaction-dirty (unevictable) buffers.
    for (uint64_t i = 0; i < 8; i++) {
      auto r = f.cache.GetNoLoad(BufferKey{30, i});
      ASSERT_TRUE(r.ok());
      f.cache.MarkTxnDirty(r.value(), 1);
      f.cache.Release(r.value());
    }
    auto r = f.cache.GetNoLoad(BufferKey{31, 0});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Code::kNoSpace);
  });
  f.env.Run();
}

// ---- randomized agreement with a full-scan model ---------------------------
// The cache keeps its dirty list and transaction lists as indexes. This
// model keeps neither: every query walks all of its frames in key order,
// and eviction walks the LRU list with the original prefetch-preferring
// rule, exactly as the cache did before the indexes existed. A seeded
// random mix of every operation must leave the two in agreement after
// each step: same query results in the same order, same victims.

struct ModelFrame {
  bool dirty = false;
  bool txn_dirty = false;
  TxnId owner = kNoTxn;
  bool prefetched = false;
  int pins = 0;
};

class CacheModel {
 public:
  explicit CacheModel(size_t capacity) : capacity_(capacity) {}

  bool Resident(BufferKey k) const { return frames_.count(k) != 0; }
  size_t size() const { return frames_.size(); }
  const BufferCache::Stats& stats() const { return stats_; }

  /// Frame(): a hit pins, touches and references; a miss evicts until
  /// there is room and inserts a pinned frame. False means NoSpace.
  bool Frame(BufferKey k, bool* fresh) {
    auto it = frames_.find(k);
    if (it != frames_.end()) {
      it->second.pins++;
      Touch(k);
      Reference(&it->second);
      stats_.hits++;
      *fresh = false;
      return true;
    }
    while (frames_.size() >= capacity_) {
      if (!EvictOne()) return false;
    }
    frames_[k].pins = 1;
    lru_.push_back(k);
    stats_.misses++;
    *fresh = true;
    return true;
  }
  void FailLoad(BufferKey k) {
    ModelFrame& f = frames_.at(k);
    f.pins--;
    if (f.pins == 0 && !f.dirty) Drop(k);
  }
  bool Peek(BufferKey k) {
    auto it = frames_.find(k);
    if (it == frames_.end()) return false;
    it->second.pins++;
    Reference(&it->second);
    return true;
  }
  bool InstallPrefetched(BufferKey k) {
    if (Resident(k)) return false;
    while (frames_.size() >= capacity_) {
      if (!EvictCleanOne()) return false;
    }
    frames_[k].prefetched = true;
    lru_.push_back(k);
    return true;
  }
  void MarkDirty(BufferKey k) {
    ModelFrame& f = frames_.at(k);
    f.dirty = true;
    f.txn_dirty = false;
    f.owner = kNoTxn;
  }
  void MarkTxnDirty(BufferKey k, TxnId txn) {
    ModelFrame& f = frames_.at(k);
    f.dirty = false;
    f.txn_dirty = true;
    f.owner = txn;
  }
  void MarkClean(BufferKey k) {
    ModelFrame& f = frames_.at(k);
    f.dirty = false;
    f.txn_dirty = false;
    f.owner = kNoTxn;
  }

  // The full scans.
  std::vector<BufferKey> CollectDirty() const {
    std::vector<BufferKey> out;
    for (const auto& [k, f] : frames_) {
      if (f.dirty) out.push_back(k);
    }
    return out;
  }
  std::vector<BufferKey> CollectDirtyFile(FileId file) const {
    std::vector<BufferKey> out;
    for (const auto& [k, f] : frames_) {
      if (k.file == file && f.dirty) out.push_back(k);
    }
    return out;
  }
  std::vector<BufferKey> TxnBuffers(TxnId txn) const {
    std::vector<BufferKey> out;
    for (const auto& [k, f] : frames_) {
      if (f.txn_dirty && f.owner == txn) out.push_back(k);
    }
    return out;
  }
  void Unpin(BufferKey k) { frames_.at(k).pins--; }
  /// False (and no change) when a frame to drop is pinned: the cache
  /// would abort.
  bool InvalidateTxn(TxnId txn) {
    std::vector<BufferKey> keys = TxnBuffers(txn);
    for (const BufferKey& k : keys) {
      if (frames_.at(k).pins > 0) return false;
    }
    for (const BufferKey& k : keys) Drop(k);
    return true;
  }
  /// False (and no change) when a frame in range is pinned or on a
  /// transaction list.
  bool DropFile(FileId file, uint64_t from) {
    std::vector<BufferKey> keys;
    for (const auto& [k, f] : frames_) {
      if (k.file != file || k.lblock < from) continue;
      if (f.pins > 0 || f.txn_dirty) return false;
      keys.push_back(k);
    }
    for (const BufferKey& k : keys) Drop(k);
    return true;
  }

  /// The original EvictCleanOne: coldest eligible frame, except that a
  /// prefetched frame in the colder half of the LRU list goes first.
  bool EvictCleanOne() {
    const BufferKey* victim = nullptr;
    const size_t cold_limit = lru_.size() / 2;
    size_t pos = 0;
    for (const BufferKey& k : lru_) {
      const bool cold = pos++ < cold_limit;
      if (!cold && victim != nullptr) break;
      const ModelFrame& f = frames_.at(k);
      if (f.pins > 0 || f.txn_dirty || f.dirty) continue;
      if (f.prefetched && cold) {
        victim = &k;
        break;
      }
      if (victim == nullptr) victim = &k;
    }
    if (victim == nullptr) return false;
    stats_.evictions++;
    Drop(*victim);
    return true;
  }

 private:
  /// EvictOne: a clean victim, else the coldest unpinned dirty frame,
  /// written back (the fixture's handler just marks it clean) and dropped.
  bool EvictOne() {
    if (EvictCleanOne()) return true;
    for (const BufferKey& k : lru_) {
      const ModelFrame& f = frames_.at(k);
      if (f.pins > 0 || f.txn_dirty) continue;
      if (f.dirty) stats_.dirty_evictions++;
      stats_.evictions++;
      Drop(BufferKey(k));
      return true;
    }
    return false;
  }
  void Reference(ModelFrame* f) {
    if (f->prefetched) {
      f->prefetched = false;
      stats_.readahead_hits++;
    }
  }
  void Touch(BufferKey k) {
    lru_.remove(k);
    lru_.push_back(k);
  }
  void Drop(BufferKey k) {
    if (frames_.at(k).prefetched) stats_.readahead_wasted++;
    lru_.remove(k);
    frames_.erase(k);
  }

  size_t capacity_;
  std::map<BufferKey, ModelFrame> frames_;
  std::list<BufferKey> lru_;  // front = coldest
  BufferCache::Stats stats_;
};

std::vector<BufferKey> KeysAndRelease(BufferCache* cache,
                                      const std::vector<Buffer*>& bufs) {
  std::vector<BufferKey> keys;
  for (Buffer* b : bufs) {
    keys.push_back(b->key);
    cache->Release(b);
  }
  return keys;
}

std::string Show(const std::vector<BufferKey>& keys) {
  std::string s;
  for (const BufferKey& k : keys) {
    s += '(';
    s += std::to_string(k.file);
    s += ',';
    s += std::to_string(k.lblock);
    s += ')';
  }
  return s;
}

void RunModelCheck(uint64_t seed) {
  constexpr FileId kFiles = 3;
  constexpr uint64_t kBlocks = 24;
  constexpr TxnId kTxns = 4;
  Random rng(seed);
  const size_t capacity = rng.Range(8, 64);
  SCOPED_TRACE("seed " + std::to_string(seed) + ", capacity " +
               std::to_string(capacity));
  CacheFixture f(capacity);
  CacheModel model(capacity);
  f.env.Spawn("p", [&] {
    std::vector<Buffer*> held;  // pins the test keeps across steps
    auto key = [&] {
      return BufferKey{1 + rng.Uniform(kFiles), rng.Uniform(kBlocks)};
    };
    // Residency: the same frames, so every eviction chose the same victim
    // as the full LRU walk. Returns the first difference, or "".
    auto resident_diff = [&]() -> std::string {
      if (f.cache.size() != model.size()) {
        return std::to_string(f.cache.size()) + " frames, model has " +
               std::to_string(model.size());
      }
      for (FileId file = 1; file <= kFiles + 2; file++) {
        for (uint64_t lb = 0; lb < kBlocks; lb++) {
          if (f.cache.Resident({file, lb}) != model.Resident({file, lb})) {
            return "residency of " + Show({{file, lb}}) + " differs";
          }
        }
      }
      return "";
    };
    auto pinned_result = [&](Buffer* b) {
      if (held.size() < capacity / 3 && rng.Uniform(3) == 0) {
        held.push_back(b);
      } else {
        f.cache.Release(b);
        model.Unpin(b->key);
      }
    };
    for (int step = 0; step < 600; step++) {
      SCOPED_TRACE("step " + std::to_string(step));
      switch (rng.Uniform(12)) {
        case 0:
        case 1: {  // Get, occasionally with a failing load
          BufferKey k = key();
          const bool fail = rng.Uniform(10) == 0;
          bool fresh = false;
          const bool ok = model.Frame(k, &fresh);
          auto r = f.cache.Get(k, [&](char* dst) {
            memset(dst, 0x11, kBlockSize);
            return fail ? Status::IOError("injected") : Status::OK();
          });
          if (ok && fresh && fail) {
            model.FailLoad(k);
            ASSERT_FALSE(r.ok());
          } else {
            ASSERT_EQ(r.ok(), ok) << r.status().ToString();
            if (ok) pinned_result(r.value());
          }
          break;
        }
        case 2: {  // GetNoLoad
          BufferKey k = key();
          bool fresh = false;
          const bool ok = model.Frame(k, &fresh);
          auto r = f.cache.GetNoLoad(k);
          ASSERT_EQ(r.ok(), ok) << r.status().ToString();
          if (ok) pinned_result(r.value());
          break;
        }
        case 3: {  // Peek
          BufferKey k = key();
          Buffer* b = f.cache.Peek(k);
          ASSERT_EQ(b != nullptr, model.Peek(k));
          if (b != nullptr) pinned_result(b);
          break;
        }
        case 4: {  // Release a held pin
          if (held.empty()) break;
          size_t i = rng.Uniform(held.size());
          f.cache.Release(held[i]);
          model.Unpin(held[i]->key);
          held.erase(held.begin() + static_cast<long>(i));
          break;
        }
        case 5:
        case 6: {  // dirty, transaction-dirty or clean a held frame
          if (held.empty()) break;
          Buffer* b = held[rng.Uniform(held.size())];
          const uint64_t what = rng.Uniform(3);
          if (what == 0) {
            model.MarkDirty(b->key);
            f.cache.MarkDirty(b);
          } else if (what == 1) {
            TxnId txn = 1 + rng.Uniform(kTxns);
            model.MarkTxnDirty(b->key, txn);
            f.cache.MarkTxnDirty(b, txn);
          } else {
            model.MarkClean(b->key);
            f.cache.MarkClean(b);
          }
          break;
        }
        case 7: {  // readahead install
          BufferKey k = key();
          char data[kBlockSize];
          memset(data, 0x22, sizeof(data));
          ASSERT_EQ(f.cache.InstallPrefetched(k, data, 1000 + k.lblock),
                    model.InstallPrefetched(k));
          break;
        }
        case 8: {  // commit: take the list, move it to the dirty list
          TxnId txn = 1 + rng.Uniform(kTxns);
          std::vector<BufferKey> want = model.TxnBuffers(txn);
          std::vector<Buffer*> got = f.cache.TakeTxnBuffers(txn);
          ASSERT_EQ(got.size(), want.size());
          const bool commit = rng.Uniform(2) == 0;
          for (Buffer* b : got) {
            if (commit) {
              model.MarkDirty(b->key);
              f.cache.MarkDirty(b);
            }
            f.cache.Release(b);
          }
          break;
        }
        case 9: {  // abort
          TxnId txn = 1 + rng.Uniform(kTxns);
          if (model.InvalidateTxn(txn)) f.cache.InvalidateTxnBuffers(txn);
          break;
        }
        case 10: {  // truncate or delete
          FileId file = 1 + rng.Uniform(kFiles);
          uint64_t from = rng.Uniform(2) == 0 ? 0 : rng.Uniform(kBlocks);
          if (model.DropFile(file, from)) f.cache.DropFile(file, from);
          break;
        }
        case 11: {  // a write burst into the other files forces evictions
          const uint64_t how = rng.Uniform(3);  // leave clean, dirty, txn
          const TxnId txn = 1 + rng.Uniform(kTxns);
          for (uint64_t n = rng.Range(1, capacity / 2); n > 0; n--) {
            BufferKey k{kFiles + 1 + rng.Uniform(2), rng.Uniform(kBlocks)};
            bool fresh = false;
            const bool ok = model.Frame(k, &fresh);
            auto r = f.cache.GetNoLoad(k);
            ASSERT_EQ(r.ok(), ok) << r.status().ToString();
            if (!ok) break;
            if (how == 1) {
              model.MarkDirty(k);
              f.cache.MarkDirty(r.value());
            } else if (how == 2) {
              model.MarkTxnDirty(k, txn);
              f.cache.MarkTxnDirty(r.value(), txn);
            }
            f.cache.Release(r.value());
            model.Unpin(k);
            ASSERT_EQ(resident_diff(), "");
          }
          break;
        }
      }

      ASSERT_EQ(resident_diff(), "");
      ASSERT_EQ(Show(KeysAndRelease(&f.cache, f.cache.CollectDirty())),
                Show(model.CollectDirty()))
          << "CollectDirty()";
      FileId file = 1 + rng.Uniform(kFiles + 2);
      ASSERT_EQ(Show(KeysAndRelease(&f.cache, f.cache.CollectDirtyFile(file))),
                Show(model.CollectDirtyFile(file)))
          << "CollectDirtyFile(" << file << ")";
      TxnId txn = 1 + rng.Uniform(kTxns);
      ASSERT_EQ(Show(KeysAndRelease(&f.cache, f.cache.TakeTxnBuffers(txn))),
                Show(model.TxnBuffers(txn)))
          << "TakeTxnBuffers(" << txn << ")";
      ASSERT_EQ(f.cache.dirty_count(), model.CollectDirty().size());
      const BufferCache::Stats& cs = f.cache.stats();
      const BufferCache::Stats& ms = model.stats();
      ASSERT_EQ(cs.hits, ms.hits);
      ASSERT_EQ(cs.misses, ms.misses);
      ASSERT_EQ(cs.evictions, ms.evictions);
      ASSERT_EQ(cs.dirty_evictions, ms.dirty_evictions);
      ASSERT_EQ(cs.readahead_hits, ms.readahead_hits);
      ASSERT_EQ(cs.readahead_wasted, ms.readahead_wasted);
      std::vector<std::string> problems = f.cache.CheckInvariants();
      ASSERT_TRUE(problems.empty()) << problems.front();
    }
    for (Buffer* b : held) f.cache.Release(b);
  });
  f.env.Run();
}

TEST(BufferCacheTest, IndexesAgreeWithFullScanModel) {
  for (uint64_t seed = 1; seed <= 40; seed++) RunModelCheck(seed);
}

}  // namespace
}  // namespace lfstx
