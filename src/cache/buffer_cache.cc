#include "cache/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

#include "common/check_macros.h"

namespace lfstx {

BufferCache::BufferCache(SimEnv* env, size_t capacity_blocks,
                         std::string instance)
    : env_(env), capacity_(capacity_blocks), instance_(std::move(instance)) {
  assert(capacity_ >= 8);
  buffers_.reserve(capacity_);
  MetricsRegistry* m = env_->metrics();
  auto g = [&](const char* leaf, const char* unit, const char* help,
               std::function<double()> fn) {
    m->AddGauge(this, MetricName(leaf), unit, help, std::move(fn));
  };
  g("hits", "count", "buffer cache hits",
    [this] { return static_cast<double>(stats_.hits); });
  g("misses", "count", "buffer cache misses",
    [this] { return static_cast<double>(stats_.misses); });
  g("evictions", "count", "frames evicted",
    [this] { return static_cast<double>(stats_.evictions); });
  g("dirty_evictions", "count", "evictions that forced a write-back",
    [this] { return static_cast<double>(stats_.dirty_evictions); });
  g("resident", "blocks", "frames currently cached",
    [this] { return static_cast<double>(buffers_.size()); });
  g("dirty", "blocks", "dirty frames right now",
    [this] { return static_cast<double>(dirty_.size()); });
  g("capacity", "blocks", "configured frame count",
    [this] { return static_cast<double>(capacity_); });
  g("readahead.issued", "count", "clustered readahead requests",
    [this] { return static_cast<double>(stats_.readahead_issued); });
  g("readahead.blocks", "blocks", "blocks prefetched beyond demand blocks",
    [this] { return static_cast<double>(stats_.readahead_blocks); });
  g("readahead.hits", "count", "first references to prefetched frames",
    [this] { return static_cast<double>(stats_.readahead_hits); });
  g("readahead.wasted", "count", "prefetched frames dropped unreferenced",
    [this] { return static_cast<double>(stats_.readahead_wasted); });
}

std::string BufferCache::MetricName(const char* leaf) const {
  return instance_.empty() ? std::string("cache.") + leaf
                           : "cache." + instance_ + "." + leaf;
}

BufferCache::~BufferCache() { env_->metrics()->DropOwner(this); }

void BufferCache::TouchLru(Buffer* buf) {
  if (buf->in_lru) {
    lru_.splice(lru_.end(), lru_, buf->lru_pos);
    return;
  }
  lru_.push_back(buf);
  buf->lru_pos = std::prev(lru_.end());
  buf->in_lru = true;
}

void BufferCache::SetDirty(Buffer* buf, bool dirty) {
  if (dirty && !buf->dirty) dirty_.emplace(buf->key, buf);
  if (!dirty && buf->dirty) dirty_.erase(buf->key);
  buf->dirty = dirty;
}

void BufferCache::SetTxnOwner(Buffer* buf, TxnId txn) {
  if (buf->txn_dirty && buf->txn_owner == txn) return;
  if (buf->txn_dirty) txn_lists_.erase(TxnKey{buf->txn_owner, buf->key});
  if (txn != kNoTxn) txn_lists_.emplace(TxnKey{txn, buf->key}, buf);
  buf->txn_dirty = txn != kNoTxn;
  buf->txn_owner = txn;
}

BufferCache::FrameMap::iterator BufferCache::DropFrame(FrameMap::iterator it) {
  Buffer* buf = it->second.get();
  if (buf->in_lru) lru_.erase(buf->lru_pos);
  SetDirty(buf, false);
  SetTxnOwner(buf, kNoTxn);
  if (buf->prefetched) {
    prefetched_count_--;
    stats_.readahead_wasted++;
  }
  return buffers_.erase(it);
}

Result<Buffer*> BufferCache::Frame(BufferKey key, bool* fresh) {
  env_->Consume(env_->costs().buffer_lookup_us);
  for (;;) {
    auto it = buffers_.find(key);
    if (it != buffers_.end()) {
      Buffer* buf = it->second.get();
      if (buf->io_in_progress) {
        // Another process is loading or writing back this very block; wait
        // for it to settle, then retry the lookup (it may have been evicted).
        buf->pin_count++;
        if (buf->io_wait == nullptr) {
          buf->io_wait = std::make_unique<WaitQueue>(env_);
        }
        WaitQueue* wq = buf->io_wait.get();
        WakeReason r = wq->Sleep();
        buf->pin_count--;
        if (r == WakeReason::kStopped) {
          return Status::Busy("simulation stopped during buffer wait");
        }
        continue;
      }
      buf->pin_count++;
      TouchLru(buf);
      *fresh = false;
      stats_.hits++;
      NoteReferenced(buf);
      return buf;
    }
    break;
  }

  while (buffers_.size() >= capacity_) {
    LFSTX_RETURN_IF_ERROR(EvictOne());
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* buf = owned.get();
  buf->key = key;
  memset(buf->data, 0, sizeof(buf->data));
  buf->pin_count = 1;
  buffers_.emplace(key, std::move(owned));
  TouchLru(buf);
  *fresh = true;
  stats_.misses++;
  return buf;
}

bool BufferCache::EvictCleanOne() {
  // Coldest eligible frame wins, except that a never-referenced prefetch in
  // the colder half of the LRU goes first — stale readahead must die before
  // demand-loaded data. The preference deliberately excludes the hot half:
  // a just-installed prefetch run sits there, and preferring it would make
  // each InstallPrefetched of a full cache evict the run's previous frame.
  // With no prefetched frame resident there is nothing to prefer, so the
  // scan stops at the first eligible frame.
  Buffer* victim = nullptr;
  const size_t cold_limit = prefetched_count_ == 0 ? 0 : lru_.size() / 2;
  size_t pos = 0;
  for (Buffer* b : lru_) {
    const bool cold = pos++ < cold_limit;
    if (!cold && victim != nullptr) break;
    if (b->pin_count > 0 || b->txn_dirty || b->io_in_progress || b->dirty) {
      continue;
    }
    if (b->prefetched && cold) {
      victim = b;
      break;
    }
    if (victim == nullptr) victim = b;
  }
  if (victim == nullptr) return false;
  stats_.evictions++;
  DropFrame(victim);
  return true;
}

Status BufferCache::EvictOne() {
  // Pass 1: prefer a clean victim — cheap, and safe even when the eviction
  // happens re-entrantly inside a file system flush.
  if (EvictCleanOne()) return Status::OK();
  if (no_dirty_eviction_ > 0) {
    return Status::NoSpace(
        "buffer cache exhausted during flush: no clean frame available");
  }
  // Pass 2: write back the coldest dirty victim.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Buffer* victim = *it;
    if (victim->pin_count > 0 || victim->txn_dirty || victim->io_in_progress) {
      continue;
    }
    if (victim->dirty) {
      LFSTX_CHECK(writeback_ != nullptr,
                  "dirty eviction with no writeback handler attached");
      LFSTX_TRACE(env_->tracer(), TraceCat::kCache, "dirty_eviction",
                  {"file", victim->key.file}, {"lblock", victim->key.lblock},
                  {"resident", static_cast<uint64_t>(buffers_.size())});
      victim->io_in_progress = true;
      victim->pin_count++;
      Status s = writeback_->WriteBack(victim);
      victim->pin_count--;
      victim->io_in_progress = false;
      if (victim->io_wait != nullptr) victim->io_wait->WakeAll();
      LFSTX_RETURN_IF_ERROR(s);
      stats_.dirty_evictions++;
      // The world may have changed while we were writing; restart the scan.
      if (victim->pin_count > 0 || victim->dirty || victim->txn_dirty) {
        return Status::OK();  // someone re-dirtied or pinned it; try again
      }
    }
    stats_.evictions++;
    DropFrame(victim);
    return Status::OK();
  }
  return Status::NoSpace(
      "buffer cache exhausted: all frames pinned or transaction-dirty");
}

Result<Buffer*> BufferCache::FinishLoad(Buffer* buf, Status load_status) {
  buf->io_in_progress = false;
  if (buf->io_wait != nullptr) buf->io_wait->WakeAll();
  if (!load_status.ok()) {
    buf->pin_count--;
    if (buf->pin_count == 0 && !buf->dirty) DropFrame(buf);
    return load_status;
  }
  return buf;
}

Result<Buffer*> BufferCache::GetNoLoad(BufferKey key) {
  bool fresh = false;
  return Frame(key, &fresh);
}

Buffer* BufferCache::Peek(BufferKey key) {
  auto it = buffers_.find(key);
  if (it == buffers_.end() || it->second->io_in_progress) return nullptr;
  it->second->pin_count++;
  NoteReferenced(it->second.get());
  return it->second.get();
}

bool BufferCache::InstallPrefetched(BufferKey key, const char* data,
                                    BlockAddr disk_addr) {
  if (buffers_.count(key) != 0) return false;
  while (buffers_.size() >= capacity_) {
    if (!EvictCleanOne()) return false;
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* buf = owned.get();
  buf->key = key;
  memcpy(buf->data, data, kBlockSize);
  buf->disk_addr = disk_addr;
  buf->prefetched = true;
  prefetched_count_++;
  buffers_.emplace(key, std::move(owned));
  TouchLru(buf);
  return true;
}

void BufferCache::Release(Buffer* buf) {
  LFSTX_CHECK(buf->pin_count > 0,
              "Release without a matching Get/Peek (pin underflow)");
  buf->pin_count--;
}

void BufferCache::MarkDirty(Buffer* buf) {
  SetDirty(buf, true);
  SetTxnOwner(buf, kNoTxn);
  buf->mods++;
  mutation_gen_++;
}

void BufferCache::MarkTxnDirty(Buffer* buf, TxnId txn) {
  LFSTX_CHECK(txn != kNoTxn,
              "transaction list needs a real owner (buffers marked with "
              "kNoTxn would never commit or abort)");
  SetDirty(buf, false);  // invisible to the syncer until commit
  SetTxnOwner(buf, txn);
  buf->mods++;
  mutation_gen_++;
}

void BufferCache::MarkClean(Buffer* buf) {
  SetDirty(buf, false);
  SetTxnOwner(buf, kNoTxn);
  mutation_gen_++;
}

std::vector<Buffer*> BufferCache::TakeTxnBuffers(TxnId txn) {
  std::vector<Buffer*> out;
  for (auto it = txn_lists_.lower_bound(TxnKey{txn, BufferKey{}});
       it != txn_lists_.end() && it->first.first == txn; ++it) {
    it->second->pin_count++;
    out.push_back(it->second);
  }
  return out;
}

void BufferCache::InvalidateTxnBuffers(TxnId txn) {
  auto it = txn_lists_.lower_bound(TxnKey{txn, BufferKey{}});
  while (it != txn_lists_.end() && it->first.first == txn) {
    Buffer* buf = (it++)->second;  // DropFrame erases buf's entry
    LFSTX_CHECK(buf->pin_count == 0,
                "aborting transaction's buffer is still pinned — a live "
                "reference would survive the invalidation");
    DropFrame(buf);
    mutation_gen_++;
  }
}

std::vector<Buffer*> BufferCache::CollectDirty() {
  std::vector<Buffer*> out;
  for (auto& [key, buf] : dirty_) {
    if (!buf->io_in_progress) {
      buf->pin_count++;
      out.push_back(buf);
    }
  }
  return out;
}

std::vector<Buffer*> BufferCache::CollectDirtyFile(FileId file) {
  std::vector<Buffer*> out;
  for (auto it = dirty_.lower_bound(BufferKey{file, 0});
       it != dirty_.end() && it->first.file == file; ++it) {
    Buffer* buf = it->second;
    if (!buf->io_in_progress) {
      buf->pin_count++;
      out.push_back(buf);
    }
  }
  return out;
}

void BufferCache::DropFile(FileId file, uint64_t from_lblock) {
  // Truncate and delete are rare, so a full pass over the hash map is
  // cheaper than keeping a third, per-file index of every resident frame.
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    Buffer* buf = it->second.get();
    if (buf->key.file != file || buf->key.lblock < from_lblock) {
      ++it;
      continue;
    }
    LFSTX_CHECK(
        buf->pin_count == 0 && !buf->txn_dirty && !buf->io_in_progress,
        "DropFile hit a pinned, transaction, or in-flight buffer — the "
        "caller must quiesce the file first");
    it = DropFrame(it);
    mutation_gen_++;
  }
}

size_t BufferCache::pinned_count() const {
  size_t n = 0;
  for (const auto& [key, buf] : buffers_) {
    if (buf->pin_count > 0) n++;
  }
  return n;
}

size_t BufferCache::io_in_progress_count() const {
  size_t n = 0;
  for (const auto& [key, buf] : buffers_) {
    if (buf->io_in_progress) n++;
  }
  return n;
}

std::vector<const Buffer*> BufferCache::Frames() const {
  std::vector<const Buffer*> out;
  out.reserve(buffers_.size());
  for (const auto& [key, buf] : buffers_) out.push_back(buf.get());
  std::sort(out.begin(), out.end(), [](const Buffer* a, const Buffer* b) {
    return a->key < b->key;
  });
  return out;
}

std::vector<std::string> BufferCache::CheckInvariants() const {
  std::vector<std::string> problems;
  auto problem = [&](std::string p) { problems.push_back(std::move(p)); };
  auto where = [](const BufferKey& k) {
    return "(file " + std::to_string(k.file) + ", lblock " +
           std::to_string(k.lblock) + ")";
  };

  if (buffers_.size() > capacity_) {
    problem("resident " + std::to_string(buffers_.size()) +
            " buffers exceed capacity " + std::to_string(capacity_));
  }
  // Walk the frames in key order so the report never depends on hash
  // order. Every frame the map owns must be on the LRU list exactly once,
  // with a self-consistent back-pointer, and must sit on the dirty list or
  // its transaction's list exactly when its flags say so.
  std::vector<const FrameMap::value_type*> frames;
  frames.reserve(buffers_.size());
  for (const auto& slot : buffers_) frames.push_back(&slot);
  std::sort(frames.begin(), frames.end(), [](const auto* a, const auto* b) {
    return a->first < b->first;
  });
  size_t in_lru = 0;
  size_t dirty = 0;
  size_t txn_dirty = 0;
  size_t prefetched = 0;
  for (const auto* slot : frames) {
    const BufferKey& key = slot->first;
    const Buffer* buf = slot->second.get();
    std::string who = "buffer " + where(key);
    if (!(buf->key == key)) {
      problem(who + " is keyed under a different map slot");
    }
    if (buf->pin_count < 0) {
      problem(who + " has negative pin count " +
              std::to_string(buf->pin_count));
    }
    if (buf->in_lru) {
      in_lru++;
      if (*buf->lru_pos != buf) {
        problem(who + " LRU back-pointer does not point at itself");
      }
    } else {
      problem(who + " is resident but not on the LRU list");
    }
    if (buf->dirty) {
      dirty++;
      auto d = dirty_.find(key);
      if (d == dirty_.end() || d->second != buf) {
        problem(who + " is dirty but not on the dirty list");
      }
    }
    if (buf->txn_dirty) {
      txn_dirty++;
      auto t = txn_lists_.find(TxnKey{buf->txn_owner, key});
      if (t == txn_lists_.end() || t->second != buf) {
        problem(who + " is not on transaction " +
                std::to_string(buf->txn_owner) + "'s list");
      }
    }
    if (buf->prefetched) prefetched++;
    if (buf->dirty && buf->txn_dirty) {
      problem(who + " is on both the dirty and the transaction list");
    }
    if (buf->txn_dirty && buf->txn_owner == kNoTxn) {
      problem(who + " is transaction-dirty but owned by no transaction");
    }
    if (buf->prefetched && (buf->dirty || buf->txn_dirty)) {
      problem(who + " is prefetched yet dirty — every dirtying path must "
                    "reference (and unflag) the frame first");
    }
    if (!buf->txn_dirty && buf->txn_owner != kNoTxn) {
      problem(who + " carries stale transaction owner " +
              std::to_string(buf->txn_owner));
    }
  }
  if (lru_.size() != in_lru || lru_.size() != buffers_.size()) {
    problem("LRU list has " + std::to_string(lru_.size()) +
            " entries, map has " + std::to_string(buffers_.size()));
  }
  for (Buffer* buf : lru_) {
    auto it = buffers_.find(buf->key);
    if (it == buffers_.end() || it->second.get() != buf) {
      problem("LRU entry " + where(buf->key) + " is not resident in the map");
    }
  }
  // Index entries must name resident frames in the matching state; the
  // resident check comes first, so a stale entry is never dereferenced.
  for (const auto& [key, buf] : dirty_) {
    auto it = buffers_.find(key);
    if (it == buffers_.end() || it->second.get() != buf || !buf->dirty) {
      problem("dirty list entry " + where(key) +
              " is not a resident dirty frame");
    }
  }
  for (const auto& [tkey, buf] : txn_lists_) {
    auto it = buffers_.find(tkey.second);
    if (it == buffers_.end() || it->second.get() != buf || !buf->txn_dirty ||
        buf->txn_owner != tkey.first) {
      problem("transaction " + std::to_string(tkey.first) + " list entry " +
              where(tkey.second) + " is not a resident frame it owns");
    }
  }
  if (dirty != dirty_.size()) {
    problem("dirty list holds " + std::to_string(dirty_.size()) +
            " frames, recount says " + std::to_string(dirty));
  }
  if (txn_dirty != txn_lists_.size()) {
    problem("transaction lists hold " + std::to_string(txn_lists_.size()) +
            " frames, recount says " + std::to_string(txn_dirty));
  }
  if (prefetched != prefetched_count_) {
    problem("prefetched count says " + std::to_string(prefetched_count_) +
            ", recount says " + std::to_string(prefetched));
  }
  return problems;
}

void BufferCache::Clear() {
  for (auto& [key, buf] : buffers_) {
    LFSTX_CHECK(buf->pin_count == 0 && !buf->dirty && !buf->txn_dirty,
                "Clear would discard a pinned or unwritten buffer — the "
                "caller must SyncAll first");
    if (buf->prefetched) stats_.readahead_wasted++;
  }
  buffers_.clear();
  lru_.clear();
  dirty_.clear();
  txn_lists_.clear();
  prefetched_count_ = 0;
  mutation_gen_++;
}

}  // namespace lfstx
