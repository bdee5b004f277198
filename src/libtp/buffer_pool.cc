#include "libtp/buffer_pool.h"

#include <cassert>
#include <cstring>

#include "common/check_macros.h"

namespace lfstx {

Lsn DbPage::lsn() const {
  Lsn v;
  memcpy(&v, data, sizeof(v));
  return v;
}

void DbPage::set_lsn(Lsn v) { memcpy(data, &v, sizeof(v)); }

BufferPool::BufferPool(Kernel* kernel, LogManager* log, size_t capacity_pages)
    : kernel_(kernel), log_(log), capacity_(capacity_pages) {
  assert(capacity_ >= 8);
  MetricsRegistry* m = kernel_->env()->metrics();
  m->AddGauge(this, "pool.hits", "count", "user buffer pool hits",
              [this] { return static_cast<double>(stats_.hits); });
  m->AddGauge(this, "pool.misses", "count", "user buffer pool misses",
              [this] { return static_cast<double>(stats_.misses); });
  m->AddGauge(this, "pool.evictions", "count", "pages evicted",
              [this] { return static_cast<double>(stats_.evictions); });
  m->AddGauge(this, "pool.dirty_writebacks", "count",
              "dirty pages written back (steal + WAL rule)",
              [this] { return static_cast<double>(stats_.dirty_writebacks); });
  m->AddGauge(this, "pool.resident", "pages", "pages currently pooled",
              [this] { return static_cast<double>(pages_.size()); });
}

BufferPool::~BufferPool() { kernel_->env()->metrics()->DropOwner(this); }

Result<uint32_t> BufferPool::RegisterFile(const std::string& path,
                                          bool create) {
  // One ref per path: a crash-recovery boot registers the files (in
  // creation order) before running redo, and the Db::Open that follows
  // must adopt that same ref — with its recovered page count — rather
  // than shadow it with a fresh entry sized from the stale on-disk file.
  for (size_t i = 0; i < files_.size(); i++) {
    if (files_[i].path == path) return static_cast<uint32_t>(i);
  }
  FileEntry e;
  e.path = path;
  auto r = kernel_->Open(path);
  if (r.ok()) {
    e.ino = r.value();
  } else if (r.status().IsNotFound() && create) {
    LFSTX_ASSIGN_OR_RETURN(e.ino, kernel_->Create(path));
    // Durable creation (the classic create-then-fsync discipline): WAL
    // redo can only restore page contents into a file that still exists
    // after reboot, so the file's metadata must never lag the first log
    // record that references it.
    LFSTX_RETURN_IF_ERROR(kernel_->Fsync(e.ino));
  } else {
    return r.status();
  }
  FileStat st;
  LFSTX_RETURN_IF_ERROR(kernel_->fs()->StatInode(e.ino, &st));
  e.pages = (st.size + kBlockSize - 1) / kBlockSize;
  files_.push_back(e);
  return static_cast<uint32_t>(files_.size() - 1);
}

Status BufferPool::CloseAll() {
  LFSTX_RETURN_IF_ERROR(FlushAll());
  for (auto& f : files_) {
    if (f.ino != kInvalidInode) {
      LFSTX_RETURN_IF_ERROR(kernel_->Close(f.ino));
      f.ino = kInvalidInode;
    }
  }
  pages_.clear();
  lru_.clear();
  return Status::OK();
}

const std::string& BufferPool::file_path(uint32_t file_ref) const {
  return files_[file_ref].path;
}

void BufferPool::TouchLru(DbPage* page) {
  if (page->in_lru) lru_.erase(page->lru_pos);
  lru_.push_back(page);
  page->lru_pos = std::prev(lru_.end());
  page->in_lru = true;
}

Status BufferPool::WriteBackPage(DbPage* page) {
  // WAL rule: the log must cover the page's last update first.
  if (page->lsn() != 0) {
    LFSTX_RETURN_IF_ERROR(log_->FlushTo(page->lsn()));
  }
  LFSTX_RETURN_IF_ERROR(
      kernel_->Write(files_[page->file_ref].ino,
                     page->pageno * kBlockSize,
                     Slice(page->data, kBlockSize)));
  page->dirty = false;
  stats_.dirty_writebacks++;
  return Status::OK();
}

Status BufferPool::EvictOne() {
  // Every post-write-back path returns without advancing the loop
  // iterator, and the victim is pinned across the only yield, so no
  // live iterator survives a pool mutation.
  for (DbPage* victim : lru_) {  // LFSTX_YIELD_OK(no iterator use after the yield: all paths return)
    if (victim->pins > 0) continue;
    if (victim->dirty) {
      // Pin across the write-back: it yields on log and disk I/O, and a
      // concurrent EvictOne picking the same victim would double-erase it.
      victim->pins++;
      Status s = WriteBackPage(victim);
      Unpin(victim);
      LFSTX_RETURN_IF_ERROR(s);
      if (victim->pins > 0 || victim->dirty) {
        // Re-pinned or re-dirtied while the write-back yielded; report
        // success and let the caller's capacity loop pick a new victim.
        return Status::OK();
      }
    }
    stats_.evictions++;
    lru_.erase(victim->lru_pos);
    pages_.erase(Key{victim->file_ref, victim->pageno});
    return Status::OK();
  }
  return Status::NoSpace("user buffer pool exhausted: all pages pinned");
}

Result<DbPage*> BufferPool::Get(uint32_t file_ref, uint64_t pageno,
                                bool write_intent) {
  SimEnv* env = kernel_->env();
  env->LatchOp();  // acquire the shared-memory pool latch
  DbPage* page = nullptr;
  auto it = pages_.find(Key{file_ref, pageno});
  if (it != pages_.end()) {
    page = it->second.get();
    stats_.hits++;
  } else {
    stats_.misses++;
    while (pages_.size() >= capacity_) {
      Status s = EvictOne();
      if (!s.ok()) {
        env->LatchOp();
        return s;
      }
    }
    auto owned = std::make_unique<DbPage>();
    page = owned.get();
    page->file_ref = file_ref;
    page->pageno = pageno;
    memset(page->data, 0, sizeof(page->data));
    if (pageno < files_[file_ref].pages) {
      auto n = kernel_->Read(files_[file_ref].ino, pageno * kBlockSize,
                             kBlockSize, page->data);
      if (!n.ok()) {
        env->LatchOp();
        return n.status();
      }
    }
    // A concurrent miss may have installed this page while the read
    // yielded, and its caller may hold it pinned: share that frame.
    page = pages_.try_emplace(Key{file_ref, pageno}, std::move(owned))
               .first->second.get();
  }
  page->pins++;
  TouchLru(page);
  if (write_intent && page->snapshot == nullptr) {
    page->snapshot =
        std::make_unique<std::string>(page->data, kBlockSize);
  }
  env->LatchOp();  // release the latch
  return page;
}

void BufferPool::Release(DbPage* page) {
  SimEnv* env = kernel_->env();
  env->LatchOp();
  LFSTX_CHECK(page->pins > 0,
              "Release without a matching GetPage (pin underflow)");
  Unpin(page);
  env->LatchOp();
}

void BufferPool::ReleaseDirty(DbPage* page) {
  SimEnv* env = kernel_->env();
  env->LatchOp();
  LFSTX_CHECK(page->pins > 0,
              "ReleaseDirty without a matching GetPage (pin underflow)");
  page->dirty = true;
  Unpin(page);
  env->LatchOp();
}

void BufferPool::Unpin(DbPage* page) {
  // The pre-image lives exactly as long as the pins: an abort's undo or a
  // restart's redo (LibTp::ApplyImage) changes the bytes without a write
  // pin, and a snapshot kept past it would make the next writer diff, and
  // log its before-image, against bytes the page no longer holds.
  if (--page->pins == 0) page->snapshot.reset();
}

Result<uint64_t> BufferPool::FilePages(uint32_t file_ref) {
  return files_[file_ref].pages;
}

Result<uint64_t> BufferPool::AllocPage(uint32_t file_ref) {
  // LFSTX_YIELD_OK(the increment below reserves this page number before any yield)
  uint64_t pageno = files_[file_ref].pages;
  files_[file_ref].pages++;
  // Materialize the page in the pool; it reaches the file at write-back.
  LFSTX_ASSIGN_OR_RETURN(DbPage * page, Get(file_ref, pageno, false));
  memset(page->data, 0, kBlockSize);
  ReleaseDirty(page);
  return pageno;
}

Status BufferPool::FlushAll() {
  // Snapshot the dirty keys first: write-back yields, and a concurrent
  // Get -> EvictOne can erase pool entries — including the one a live
  // map iterator points at — while this process is parked.
  std::vector<Key> dirty;
  for (auto& [key, page] : pages_) {
    if (page->dirty) dirty.push_back(key);
  }
  for (const Key& key : dirty) {
    auto it = pages_.find(key);
    if (it == pages_.end() || !it->second->dirty) continue;
    LFSTX_RETURN_IF_ERROR(WriteBackPage(it->second.get()));
  }
  return Status::OK();
}

Status BufferPool::FsyncAll() {
  for (const auto& f : files_) {
    if (f.ino != kInvalidInode) {
      LFSTX_RETURN_IF_ERROR(kernel_->Fsync(f.ino));
    }
  }
  return Status::OK();
}

}  // namespace lfstx
