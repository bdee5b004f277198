#include "fs/vfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace lfstx {

namespace {
uint64_t ReadEntry(const char* block, uint32_t idx) {
  uint64_t v;
  memcpy(&v, block + idx * sizeof(uint64_t), sizeof(v));
  return v;
}
void WriteEntry(char* block, uint32_t idx, uint64_t v) {
  memcpy(block + idx * sizeof(uint64_t), &v, sizeof(v));
}

// Address-space split of a logical block number.
struct BlockPath {
  enum Kind { kDirect, kSingle, kDouble } kind;
  uint32_t direct_idx = 0;   // kDirect
  uint32_t entry_idx = 0;    // index within the leaf indirect block
  uint32_t child_idx = 0;    // kDouble: which child of the root
};

BlockPath Classify(uint64_t lb) {
  BlockPath p;
  if (lb < kNumDirect) {
    p.kind = BlockPath::kDirect;
    p.direct_idx = static_cast<uint32_t>(lb);
  } else if (lb < kNumDirect + kPtrsPerBlock) {
    p.kind = BlockPath::kSingle;
    p.entry_idx = static_cast<uint32_t>(lb - kNumDirect);
  } else {
    p.kind = BlockPath::kDouble;
    uint64_t off = lb - kNumDirect - kPtrsPerBlock;
    p.child_idx = static_cast<uint32_t>(off / kPtrsPerBlock);
    p.entry_idx = static_cast<uint32_t>(off % kPtrsPerBlock);
  }
  return p;
}
}  // namespace

FsCore::FsCore(SimEnv* env, SimDisk* disk, BufferCache* cache)
    : env_(env), disk_(disk), cache_(cache) {}

// ---------------------------------------------------------------- inodes --

Inode* FsCore::InstallInode(const DiskInode& d) {
  auto ino = std::make_unique<Inode>();
  ino->d = d;
  Inode* p = ino.get();
  inodes_[d.inum] = std::move(ino);
  return p;
}

Result<Inode*> FsCore::GetInode(InodeNum inum) {
  if (inum == kInvalidInode) return Status::InvalidArgument("invalid inode 0");
  auto it = inodes_.find(inum);
  if (it != inodes_.end()) return it->second.get();
  DiskInode d;
  LFSTX_RETURN_IF_ERROR(LoadInode(inum, &d));
  if (d.file_type() == FileType::kFree) {
    return Status::NotFound("inode " + std::to_string(inum) + " is free");
  }
  return InstallInode(d);
}

std::vector<Inode*> FsCore::DirtyInodes() {
  std::vector<Inode*> out;
  for (auto& [num, ino] : inodes_) {
    if (ino->dirty) out.push_back(ino.get());
  }
  return out;
}

std::vector<Inode*> FsCore::InCoreInodes() const {
  std::vector<Inode*> out;
  out.reserve(inodes_.size());
  for (const auto& [num, ino] : inodes_) out.push_back(ino.get());
  std::sort(out.begin(), out.end(),
            [](Inode* a, Inode* b) { return a->num() < b->num(); });
  return out;
}

Inode* FsCore::FindInCore(InodeNum inum) const {
  auto it = inodes_.find(inum);
  return it == inodes_.end() ? nullptr : it->second.get();
}

void FsCore::ClearInodeTable() { inodes_.clear(); }

bool FsCore::AnyOpenFiles() const {
  for (const auto& [num, ino] : inodes_) {
    if (ino->refcount > 0) return true;
  }
  return false;
}

Status FsCore::InitRoot() {
  LFSTX_ASSIGN_OR_RETURN(InodeNum num, AllocInodeNum());
  if (num != kRootInode) {
    return Status::Internal("root inode must be 1, allocator gave " +
                            std::to_string(num));
  }
  DiskInode d;
  d.inum = kRootInode;
  d.type = static_cast<uint16_t>(FileType::kDirectory);
  d.nlink = 1;
  d.ctime = d.mtime = env_->Now();
  Inode* root = InstallInode(d);
  return NoteInodeDirty(root);
}

// --------------------------------------------------------- block mapping --

Result<Buffer*> FsCore::GetMetaBuffer(Inode* ino, uint64_t meta_lblock,
                                      BlockAddr home) {
  BufferKey key{ino->meta_file_id(), meta_lblock};
  SimDisk* disk = disk_;
  LFSTX_ASSIGN_OR_RETURN(Buffer * buf,
                         cache_->Get(key, [disk, home](char* dst) -> Status {
                           if (home == 0 || home == kInvalidBlock) {
                             return Status::OK();  // sparse
                           }
                           return disk->Read(home, 1, dst);
                         }));
  // Keep the buffer's write-back target current: FFS overwrites the block
  // in place, so a dirtied indirect block must know its on-disk home.
  if (home != 0 && home != kInvalidBlock) buf->disk_addr = home;
  return buf;
}

Result<BlockAddr> FsCore::MapBlock(Inode* ino, uint64_t lblock) {
  if (lblock >= kMaxFileBlocks) {
    return Status::InvalidArgument("file block out of range");
  }
  BlockPath p = Classify(lblock);
  if (p.kind == BlockPath::kDirect) {
    uint64_t a = ino->d.direct[p.direct_idx];
    return a == 0 ? kInvalidBlock : a;
  }

  auto read_leaf = [&](uint64_t meta_lb, BlockAddr home,
                       uint32_t idx) -> Result<BlockAddr> {
    // Avoid materializing cache frames for wholly sparse regions.
    Buffer* peeked = cache_->Peek(BufferKey{ino->meta_file_id(), meta_lb});
    if (peeked == nullptr && (home == 0)) return kInvalidBlock;
    if (peeked != nullptr) cache_->Release(peeked);
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetMetaBuffer(ino, meta_lb, home));
    uint64_t a = ReadEntry(buf->data, idx);
    cache_->Release(buf);
    return a == 0 ? kInvalidBlock : a;
  };

  if (p.kind == BlockPath::kSingle) {
    return read_leaf(kMetaSingleIndirect, ino->d.indirect, p.entry_idx);
  }
  // Double indirect: root entry -> child -> entry.
  LFSTX_ASSIGN_OR_RETURN(
      BlockAddr child_home,
      read_leaf(kMetaDoubleRoot, ino->d.double_indirect, p.child_idx));
  // The child block may exist only in cache (LFS, not yet assigned).
  Buffer* peeked = cache_->Peek(
      BufferKey{ino->meta_file_id(), kMetaDoubleChildBase + p.child_idx});
  if (peeked == nullptr && child_home == kInvalidBlock) return kInvalidBlock;
  if (peeked != nullptr) cache_->Release(peeked);
  LFSTX_ASSIGN_OR_RETURN(
      Buffer * child,
      GetMetaBuffer(ino, kMetaDoubleChildBase + p.child_idx,
                    child_home == kInvalidBlock ? 0 : child_home));
  uint64_t a = ReadEntry(child->data, p.entry_idx);
  cache_->Release(child);
  return a == 0 ? kInvalidBlock : a;
}

Result<BlockAddr> FsCore::SetBlockMapping(Inode* ino, uint64_t lblock,
                                          BlockAddr addr) {
  BlockPath p = Classify(lblock);
  uint64_t stored = (addr == kInvalidBlock) ? 0 : addr;
  if (p.kind == BlockPath::kDirect) {
    uint64_t prev = ino->d.direct[p.direct_idx];
    ino->d.direct[p.direct_idx] = stored;
    LFSTX_RETURN_IF_ERROR(NoteMapDirty(ino));
    return prev == 0 ? kInvalidBlock : prev;
  }
  uint64_t meta_lb;
  uint32_t idx = p.entry_idx;
  BlockAddr home;
  if (p.kind == BlockPath::kSingle) {
    meta_lb = kMetaSingleIndirect;
    home = ino->d.indirect;
  } else {
    meta_lb = kMetaDoubleChildBase + p.child_idx;
    // Child's home comes from the root block.
    LFSTX_ASSIGN_OR_RETURN(Buffer * root,
                           GetMetaBuffer(ino, kMetaDoubleRoot,
                                         ino->d.double_indirect));
    home = ReadEntry(root->data, p.child_idx);
    cache_->Release(root);
  }
  LFSTX_ASSIGN_OR_RETURN(Buffer * leaf, GetMetaBuffer(ino, meta_lb, home));
  uint64_t prev = ReadEntry(leaf->data, idx);
  WriteEntry(leaf->data, idx, stored);
  cache_->MarkDirty(leaf);
  cache_->Release(leaf);
  return prev == 0 ? kInvalidBlock : prev;
}

Result<BlockAddr> FsCore::SetMetaBlockMapping(Inode* ino, uint64_t meta_lblock,
                                              BlockAddr addr) {
  uint64_t stored = (addr == kInvalidBlock) ? 0 : addr;
  uint64_t prev;
  if (meta_lblock == kMetaSingleIndirect) {
    prev = ino->d.indirect;
    ino->d.indirect = stored;
    LFSTX_RETURN_IF_ERROR(NoteMapDirty(ino));
  } else if (meta_lblock == kMetaDoubleRoot) {
    prev = ino->d.double_indirect;
    ino->d.double_indirect = stored;
    LFSTX_RETURN_IF_ERROR(NoteMapDirty(ino));
  } else {
    uint32_t child_idx = static_cast<uint32_t>(meta_lblock -
                                               kMetaDoubleChildBase);
    LFSTX_ASSIGN_OR_RETURN(
        Buffer * root,
        GetMetaBuffer(ino, kMetaDoubleRoot, ino->d.double_indirect));
    prev = ReadEntry(root->data, child_idx);
    WriteEntry(root->data, child_idx, stored);
    cache_->MarkDirty(root);
    cache_->Release(root);
  }
  return prev == 0 ? kInvalidBlock : prev;
}

Result<BlockAddr> FsCore::GetMetaBlockHome(Inode* ino, uint64_t meta_lblock) {
  if (meta_lblock == kMetaSingleIndirect) {
    return ino->d.indirect == 0 ? kInvalidBlock : ino->d.indirect;
  }
  if (meta_lblock == kMetaDoubleRoot) {
    return ino->d.double_indirect == 0 ? kInvalidBlock
                                       : ino->d.double_indirect;
  }
  if (ino->d.double_indirect == 0) return kInvalidBlock;
  uint32_t child_idx =
      static_cast<uint32_t>(meta_lblock - kMetaDoubleChildBase);
  LFSTX_ASSIGN_OR_RETURN(
      Buffer * root,
      GetMetaBuffer(ino, kMetaDoubleRoot, ino->d.double_indirect));
  uint64_t a = ReadEntry(root->data, child_idx);
  cache_->Release(root);
  return a == 0 ? kInvalidBlock : a;
}

Status FsCore::EnsureMapped(Inode* ino, uint64_t lblock) {
  if (lblock >= kMaxFileBlocks) {
    return Status::InvalidArgument("file too large");
  }
  BlockPath p = Classify(lblock);
  if (p.kind == BlockPath::kDirect) {
    if (ino->d.direct[p.direct_idx] == 0) {
      LFSTX_ASSIGN_OR_RETURN(BlockAddr a, AllocBlockAddr(ino));
      if (a != kInvalidBlock) {
        ino->d.direct[p.direct_idx] = a;
      }
      LFSTX_RETURN_IF_ERROR(NoteInodeDirty(ino));
    }
    return Status::OK();
  }

  // Ensure a leaf (and for double-indirect, the root) buffer exists in the
  // cache, allocating on-disk homes eagerly when the FS does that (FFS).
  auto ensure_meta = [&](uint64_t meta_lb, uint64_t* home_field,
                         Buffer** out) -> Status {
    bool fresh_home = false;
    if (*home_field == 0) {
      LFSTX_ASSIGN_OR_RETURN(BlockAddr a, AllocBlockAddr(ino));
      if (a != kInvalidBlock) {
        *home_field = a;
        fresh_home = true;
      }
      LFSTX_RETURN_IF_ERROR(NoteInodeDirty(ino));
    }
    Buffer* peeked =
        cache_->Peek(BufferKey{ino->meta_file_id(), meta_lb});
    if (peeked != nullptr) {
      *out = peeked;
      return Status::OK();
    }
    // Fresh home (or LFS pending): the block has never been written; start
    // from zeroes and keep it dirty so the chain survives in cache.
    if (fresh_home || *home_field == 0) {
      LFSTX_ASSIGN_OR_RETURN(
          Buffer * buf,
          cache_->GetNoLoad(BufferKey{ino->meta_file_id(), meta_lb}));
      buf->disk_addr = (*home_field == 0) ? kInvalidBlock : *home_field;
      cache_->MarkDirty(buf);
      *out = buf;
      return Status::OK();
    }
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf,
                           GetMetaBuffer(ino, meta_lb, *home_field));
    buf->disk_addr = *home_field;
    *out = buf;
    return Status::OK();
  };

  // With the leaf block in hand, allocate the data block's own home when
  // the FS assigns addresses eagerly.
  auto ensure_leaf_entry = [&](Buffer* leaf, uint32_t idx) -> Status {
    if (ReadEntry(leaf->data, idx) == 0) {
      LFSTX_ASSIGN_OR_RETURN(BlockAddr a, AllocBlockAddr(ino));
      if (a != kInvalidBlock) {
        WriteEntry(leaf->data, idx, a);
        cache_->MarkDirty(leaf);
      }
    }
    return Status::OK();
  };

  if (p.kind == BlockPath::kSingle) {
    Buffer* leaf = nullptr;
    LFSTX_RETURN_IF_ERROR(ensure_meta(kMetaSingleIndirect, &ino->d.indirect,
                                      &leaf));
    Status s = ensure_leaf_entry(leaf, p.entry_idx);
    cache_->Release(leaf);
    return s;
  }

  // Double indirect: root, then child. The child's home lives in the root
  // block rather than the inode, so adapt via a temporary field.
  Buffer* root = nullptr;
  LFSTX_RETURN_IF_ERROR(
      ensure_meta(kMetaDoubleRoot, &ino->d.double_indirect, &root));
  uint64_t child_home = ReadEntry(root->data, p.child_idx);
  uint64_t child_home_in = child_home;
  Buffer* child = nullptr;
  Status s = ensure_meta(kMetaDoubleChildBase + p.child_idx, &child_home,
                         &child);
  if (!s.ok()) {
    cache_->Release(root);
    return s;
  }
  if (child_home != child_home_in) {  // FFS allocated a home for the child
    WriteEntry(root->data, p.child_idx, child_home);
    cache_->MarkDirty(root);
  }
  s = ensure_leaf_entry(child, p.entry_idx);
  cache_->Release(child);
  cache_->Release(root);
  return s;
}

// ------------------------------------------------------------- data path --

Result<TxnId> FsCore::MaybeLock(Inode* ino, uint64_t lblock, bool write) {
  // Non-transaction applications "pay only a few instructions in accessing
  // buffers to determine that transaction locks are unnecessary" (sec. 5.2).
  env_->Consume(2);
  if (!ino->d.txn_protected() || hooks_ == nullptr) return kNoTxn;
  return hooks_->OnPageAccess(ino, lblock, write);
}

Result<Buffer*> FsCore::GetDataBuffer(Inode* ino, uint64_t lblock,
                                      Access access) {
  LFSTX_RETURN_IF_ERROR(EnterDataPath(ino));
  // The pre-write mapping is where the block's *old* contents live (or
  // kInvalidBlock when sparse / cached-only).
  LFSTX_ASSIGN_OR_RETURN(BlockAddr old_addr, MapBlock(ino, lblock));
  BlockAddr home = old_addr;
  if (access != Access::kRead) {
    LFSTX_RETURN_IF_ERROR(EnsureMapped(ino, lblock));
    LFSTX_ASSIGN_OR_RETURN(home, MapBlock(ino, lblock));
  }
  BufferKey key{ino->data_file_id(), lblock};
  Buffer* buf = nullptr;
  if (access == Access::kWriteWhole) {
    LFSTX_ASSIGN_OR_RETURN(buf, cache_->GetNoLoad(key));
  } else {
    SimDisk* disk = disk_;
    // Clustered readahead fires only on *sequential* cold reads: the block
    // a sequential reader would touch next, or block 0 (a scan restart).
    // Random access (TPC-B) stays one-block-at-a-time — prefetching 31
    // useless blocks per random read would be far worse than the rotation
    // misses it saves.
    bool sequential =
        access == Access::kRead &&
        (lblock == ino->ra_next_lblock || lblock == 0);
    LFSTX_ASSIGN_OR_RETURN(
        buf, cache_->Get(key, [this, disk, ino, lblock, old_addr,
                               sequential](char* dst) {
          if (old_addr == kInvalidBlock) return Status::OK();  // sparse
          if (sequential) return ReadClustered(ino, lblock, old_addr, dst);
          return disk->Read(old_addr, 1, dst);
        }));
    if (access == Access::kRead) ino->ra_next_lblock = lblock + 1;
  }
  if (home != kInvalidBlock) buf->disk_addr = home;
  return buf;
}

Status FsCore::ReadClustered(Inode* ino, uint64_t lblock, BlockAddr addr,
                             char* dst) {
  // Window: configured size, further bounded so a burst of prefetches can
  // never churn more than a quarter of the cache.
  uint64_t limit = readahead_window_;
  limit = std::min<uint64_t>(limit, cache_->capacity() / 4 + 1);
  limit = std::min<uint64_t>(limit, ExtentLimitBlocks(addr));
  uint64_t eof_blocks = ino->d.size_blocks();
  if (eof_blocks > lblock) {
    limit = std::min<uint64_t>(limit, eof_blocks - lblock);
  }
  // Scan the block map forward while the file stays physically contiguous:
  // stop at a discontinuity, a sparse hole, or a block already in cache
  // (cached blocks may be dirtier than the disk copy).
  uint64_t count = 1;
  while (count < limit) {
    if (cache_->Resident(BufferKey{ino->data_file_id(), lblock + count})) {
      break;
    }
    LFSTX_ASSIGN_OR_RETURN(BlockAddr a, MapBlock(ino, lblock + count));
    if (a != addr + count) break;
    count++;
  }
  if (count == 1) return disk_->Read(addr, 1, dst);

  // One disk request for the whole run: one seek + one rotational settle +
  // `count` track transfers, charged to the caller's disk_read phase.
  std::vector<char> bulk(count * kBlockSize);
  LFSTX_RETURN_IF_ERROR(
      disk_->Read(addr, static_cast<uint32_t>(count), bulk.data()));
  memcpy(dst, bulk.data(), kBlockSize);
  uint64_t installed = 0;
  for (uint64_t i = 1; i < count; i++) {
    // Re-verify the mapping: while the transfer was in flight another
    // process may have overwritten the block (remapping it under LFS),
    // which would make the fetched bytes stale for this logical block.
    LFSTX_ASSIGN_OR_RETURN(BlockAddr a, MapBlock(ino, lblock + i));
    if (a != addr + i) continue;
    if (cache_->InstallPrefetched(BufferKey{ino->data_file_id(), lblock + i},
                                  bulk.data() + i * kBlockSize, a)) {
      installed++;
    }
  }
  cache_->NoteReadahead(installed);
  return Status::OK();
}

Result<size_t> FsCore::Read(InodeNum inum, uint64_t offset, size_t n,
                            char* out) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
  if (ino->d.file_type() != FileType::kRegular) {
    return Status::InvalidArgument("read: not a regular file");
  }
  if (offset >= ino->d.size) return size_t{0};
  n = std::min<uint64_t>(n, ino->d.size - offset);
  size_t done = 0;
  while (done < n) {
    uint64_t pos = offset + done;
    uint64_t lb = pos / kBlockSize;
    uint32_t in_page = static_cast<uint32_t>(pos % kBlockSize);
    size_t chunk = std::min<size_t>(n - done, kBlockSize - in_page);
    LFSTX_ASSIGN_OR_RETURN(TxnId txn, MaybeLock(ino, lb, false));
    (void)txn;
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetDataBuffer(ino, lb, Access::kRead));
    memcpy(out + done, buf->data + in_page, chunk);
    env_->Consume(env_->costs().page_copy_us * chunk / kBlockSize + 1);
    cache_->Release(buf);
    done += chunk;
  }
  return done;
}

Status FsCore::Write(InodeNum inum, uint64_t offset, Slice data) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
  if (ino->d.file_type() != FileType::kRegular) {
    return Status::InvalidArgument("write: not a regular file");
  }
  // wa.logical denominator: what the application asked to store. WAL
  // appends are transaction overhead, not logical payload.
  if (wal_inums_.count(inum) == 0) {
    env_->log_econ()->ChargeLogicalUser(data.size());
  }
  size_t done = 0;
  while (done < data.size()) {
    uint64_t pos = offset + done;
    uint64_t lb = pos / kBlockSize;
    uint32_t in_page = static_cast<uint32_t>(pos % kBlockSize);
    size_t chunk = std::min<size_t>(data.size() - done, kBlockSize - in_page);
    bool whole = (in_page == 0 && chunk == kBlockSize) ||
                 // A page entirely beyond current EOF needs no read-back.
                 (in_page == 0 && pos >= ino->d.size);
    LFSTX_ASSIGN_OR_RETURN(TxnId txn, MaybeLock(ino, lb, true));
    LFSTX_ASSIGN_OR_RETURN(
        Buffer * buf,
        GetDataBuffer(ino, lb, whole ? Access::kWriteWhole : Access::kWritePartial));
    LFSTX_RETURN_IF_ERROR(EnsureMapped(ino, lb));
    {  // refresh the buffer's on-disk home (FFS assigns it just above)
      LFSTX_ASSIGN_OR_RETURN(BlockAddr addr, MapBlock(ino, lb));
      if (addr != kInvalidBlock) buf->disk_addr = addr;
    }
    memcpy(buf->data + in_page, data.data() + done, chunk);
    env_->Consume(env_->costs().page_copy_us * chunk / kBlockSize + 1);
    if (txn != kNoTxn) {
      cache_->MarkTxnDirty(buf, txn);
    } else {
      cache_->MarkDirty(buf);
    }
    cache_->Release(buf);
    done += chunk;
    // High-water write-back, checked per page: one large write() (e.g. a
    // multi-megabyte WAL batch) must not swamp the cache with dirty frames
    // before the file system gets a chance to flush.
    if (cache_->dirty_count() * 4 >= cache_->capacity() * 3) {
      LFSTX_RETURN_IF_ERROR(SyncAll());
    }
  }
  if (offset + data.size() > ino->d.size) {
    ino->d.size = offset + data.size();
    LFSTX_RETURN_IF_ERROR(NoteMapDirty(ino));
  }
  // mtime updates are asynchronous (in-core until the inode reaches disk
  // for some other reason), so overwrite-in-place writes don't drag an
  // inode write onto every fsync.
  ino->d.mtime = env_->Now();
  return Status::OK();
}

Status FsCore::FreeFileBlocks(Inode* ino, uint64_t from_block) {
  // A free is an access like any other: wait out a kernel cleaner that
  // holds the file, then keep every cleaner off it until the free is done.
  LFSTX_RETURN_IF_ERROR(EnterDataPath(ino));
  ino->freeing = true;
  struct FreeingReset {
    Inode* ino;
    ~FreeingReset() { ino->freeing = false; }
  } freeing_reset{ino};
  uint64_t nblocks = ino->d.size_blocks();
  for (uint64_t lb = from_block; lb < nblocks; lb++) {
    LFSTX_ASSIGN_OR_RETURN(BlockAddr a, MapBlock(ino, lb));
    if (a != kInvalidBlock) ReleaseBlockAddr(a);
    if (from_block != 0) {
      LFSTX_RETURN_IF_ERROR(SetBlockMapping(ino, lb, kInvalidBlock).status());
    }
  }
  if (from_block == 0) {
    // Release metadata homes and wipe the inode's pointers wholesale.
    if (ino->d.indirect != 0) ReleaseBlockAddr(ino->d.indirect);
    if (ino->d.double_indirect != 0) {
      LFSTX_ASSIGN_OR_RETURN(
          Buffer * root,
          GetMetaBuffer(ino, kMetaDoubleRoot, ino->d.double_indirect));
      for (uint32_t i = 0; i < kPtrsPerBlock; i++) {
        uint64_t child = ReadEntry(root->data, i);
        if (child != 0) ReleaseBlockAddr(child);
      }
      cache_->Release(root);
      ReleaseBlockAddr(ino->d.double_indirect);
    }
    memset(ino->d.direct, 0, sizeof(ino->d.direct));
    ino->d.indirect = 0;
    ino->d.double_indirect = 0;
  }
  cache_->DropFile(ino->data_file_id(), from_block);
  if (from_block == 0) cache_->DropFile(ino->meta_file_id());
  return Status::OK();
}

Status FsCore::Truncate(InodeNum inum, uint64_t new_size) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
  if (ino->d.file_type() != FileType::kRegular) {
    return Status::InvalidArgument("truncate: not a regular file");
  }
  if (new_size >= ino->d.size) {
    ino->d.size = new_size;  // extend: sparse
  } else {
    uint64_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
    LFSTX_RETURN_IF_ERROR(FreeFileBlocks(ino, keep_blocks));
    // Zero the tail of a partially-kept final block: bytes past the new
    // EOF must read back as zeroes if the file is later extended.
    uint32_t in_page = static_cast<uint32_t>(new_size % kBlockSize);
    if (in_page != 0) {
      LFSTX_ASSIGN_OR_RETURN(
          Buffer * buf,
          GetDataBuffer(ino, new_size / kBlockSize, Access::kWritePartial));
      memset(buf->data + in_page, 0, kBlockSize - in_page);
      cache_->MarkDirty(buf);
      cache_->Release(buf);
    }
    ino->d.size = new_size;
  }
  ino->d.mtime = env_->Now();
  return NoteInodeDirty(ino);
}

Status FsCore::RollBackSize(Inode* ino, uint64_t size) {
  ino->d.size = size;
  return NoteInodeDirty(ino);
}

// ------------------------------------------------------------ directories --

Result<InodeNum> FsCore::FindInDir(Inode* dir, const std::string& name) {
  uint64_t nblocks = dir->d.size_blocks();
  for (uint64_t b = 0; b < nblocks; b++) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetDataBuffer(dir, b, Access::kRead));
    env_->Consume(env_->costs().dirent_scan_us * kDirEntriesPerBlock);
    int slot = FindDirEntry(buf->data, name);
    if (slot >= 0) {
      DirEntry e;
      DecodeDirEntry(buf->data, static_cast<uint32_t>(slot), &e);
      cache_->Release(buf);
      return e.inum;
    }
    cache_->Release(buf);
  }
  return Status::NotFound("no such entry: " + name);
}

Status FsCore::AddDirEntry(Inode* dir, const std::string& name,
                           InodeNum inum) {
  uint64_t nblocks = dir->d.size_blocks();
  for (uint64_t b = 0; b < nblocks; b++) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetDataBuffer(dir, b, Access::kRead));
    env_->Consume(env_->costs().dirent_scan_us * kDirEntriesPerBlock);
    if (FindDirEntry(buf->data, name) >= 0) {
      cache_->Release(buf);
      return Status::AlreadyExists(name + " already exists");
    }
    int free_slot = FindFreeDirSlot(buf->data);
    if (free_slot >= 0) {
      EncodeDirEntry(buf->data, static_cast<uint32_t>(free_slot), inum, name);
      cache_->MarkDirty(buf);
      cache_->Release(buf);
      dir->d.mtime = env_->Now();
      return NoteInodeDirty(dir);
    }
    cache_->Release(buf);
  }
  // Append a fresh directory block.
  LFSTX_ASSIGN_OR_RETURN(Buffer * buf,
                         GetDataBuffer(dir, nblocks, Access::kWriteWhole));
  LFSTX_RETURN_IF_ERROR(EnsureMapped(dir, nblocks));
  memset(buf->data, 0, kBlockSize);
  EncodeDirEntry(buf->data, 0, inum, name);
  cache_->MarkDirty(buf);
  cache_->Release(buf);
  dir->d.size += kBlockSize;
  dir->d.mtime = env_->Now();
  return NoteInodeDirty(dir);
}

Status FsCore::RemoveDirEntry(Inode* dir, const std::string& name) {
  uint64_t nblocks = dir->d.size_blocks();
  for (uint64_t b = 0; b < nblocks; b++) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetDataBuffer(dir, b, Access::kRead));
    env_->Consume(env_->costs().dirent_scan_us * kDirEntriesPerBlock);
    int slot = FindDirEntry(buf->data, name);
    if (slot >= 0) {
      EncodeDirEntry(buf->data, static_cast<uint32_t>(slot), kInvalidInode,
                     "");
      cache_->MarkDirty(buf);
      cache_->Release(buf);
      dir->d.mtime = env_->Now();
      return NoteInodeDirty(dir);
    }
    cache_->Release(buf);
  }
  return Status::NotFound("no such entry: " + name);
}

Result<size_t> FsCore::CountDirEntries(Inode* dir) {
  size_t count = 0;
  uint64_t nblocks = dir->d.size_blocks();
  for (uint64_t b = 0; b < nblocks; b++) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetDataBuffer(dir, b, Access::kRead));
    DirEntry e;
    for (uint32_t s = 0; s < kDirEntriesPerBlock; s++) {
      if (DecodeDirEntry(buf->data, s, &e)) count++;
    }
    env_->Consume(env_->costs().dirent_scan_us * kDirEntriesPerBlock);
    cache_->Release(buf);
  }
  return count;
}

Result<Inode*> FsCore::Resolve(const std::string& path) {
  std::vector<std::string> parts;
  LFSTX_RETURN_IF_ERROR(SplitPath(path, &parts));
  LFSTX_ASSIGN_OR_RETURN(Inode * cur, GetInode(kRootInode));
  for (const auto& part : parts) {
    if (cur->d.file_type() != FileType::kDirectory) {
      return Status::InvalidArgument("not a directory on path: " + path);
    }
    LFSTX_ASSIGN_OR_RETURN(InodeNum next, FindInDir(cur, part));
    LFSTX_ASSIGN_OR_RETURN(cur, GetInode(next));
  }
  return cur;
}

Result<Inode*> FsCore::ResolveParent(const std::string& path,
                                     std::string* name) {
  std::vector<std::string> parts;
  LFSTX_RETURN_IF_ERROR(SplitParent(path, &parts, name));
  LFSTX_ASSIGN_OR_RETURN(Inode * cur, GetInode(kRootInode));
  for (const auto& part : parts) {
    if (cur->d.file_type() != FileType::kDirectory) {
      return Status::InvalidArgument("not a directory on path: " + path);
    }
    LFSTX_ASSIGN_OR_RETURN(InodeNum next, FindInDir(cur, part));
    LFSTX_ASSIGN_OR_RETURN(cur, GetInode(next));
  }
  if (cur->d.file_type() != FileType::kDirectory) {
    return Status::InvalidArgument("parent is not a directory: " + path);
  }
  return cur;
}

Status FsCore::Mkdir(const std::string& path) {
  std::string name;
  LFSTX_ASSIGN_OR_RETURN(Inode * parent, ResolveParent(path, &name));
  if (FindInDir(parent, name).ok()) {
    return Status::AlreadyExists(path + " already exists");
  }
  LFSTX_ASSIGN_OR_RETURN(InodeNum num, AllocInodeNum());
  DiskInode d;
  d.inum = num;
  d.type = static_cast<uint16_t>(FileType::kDirectory);
  d.nlink = 1;
  d.ctime = d.mtime = env_->Now();
  Inode* ino = InstallInode(d);
  LFSTX_RETURN_IF_ERROR(NoteInodeDirty(ino));
  return AddDirEntry(parent, name, num);
}

Result<InodeNum> FsCore::Create(const std::string& path) {
  std::string name;
  LFSTX_ASSIGN_OR_RETURN(Inode * parent, ResolveParent(path, &name));
  if (FindInDir(parent, name).ok()) {
    return Status::AlreadyExists(path + " already exists");
  }
  LFSTX_ASSIGN_OR_RETURN(InodeNum num, AllocInodeNum());
  DiskInode d;
  d.inum = num;
  d.type = static_cast<uint16_t>(FileType::kRegular);
  d.nlink = 1;
  d.ctime = d.mtime = env_->Now();
  Inode* ino = InstallInode(d);
  ino->refcount = 1;  // created open
  LFSTX_RETURN_IF_ERROR(NoteInodeDirty(ino));
  LFSTX_RETURN_IF_ERROR(AddDirEntry(parent, name, num));
  return num;
}

Result<InodeNum> FsCore::Open(const std::string& path) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, Resolve(path));
  ino->refcount++;
  return ino->num();
}

Status FsCore::Close(InodeNum inum) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
  if (ino->refcount <= 0) return Status::InvalidArgument("file not open");
  ino->refcount--;
  return Status::OK();
}

Result<InodeNum> FsCore::LookupPath(const std::string& path) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, Resolve(path));
  return ino->num();
}

Status FsCore::Remove(const std::string& path) {
  std::string name;
  LFSTX_ASSIGN_OR_RETURN(Inode * parent, ResolveParent(path, &name));
  LFSTX_ASSIGN_OR_RETURN(InodeNum num, FindInDir(parent, name));
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(num));
  if (ino->refcount > 0) {
    return Status::Busy("file is open: " + path);
  }
  if (ino->d.file_type() == FileType::kDirectory) {
    LFSTX_ASSIGN_OR_RETURN(size_t n, CountDirEntries(ino));
    if (n > 0) return Status::Busy("directory not empty: " + path);
  }
  LFSTX_RETURN_IF_ERROR(RemoveDirEntry(parent, name));
  if (--ino->d.nlink == 0) {
    LFSTX_RETURN_IF_ERROR(FreeFileBlocks(ino, 0));
    LFSTX_RETURN_IF_ERROR(ReleaseInodeNum(ino));
    inodes_.erase(num);
  }
  return Status::OK();
}

Status FsCore::ReadDir(const std::string& path, std::vector<DirEntry>* out) {
  out->clear();
  LFSTX_ASSIGN_OR_RETURN(Inode * dir, Resolve(path));
  if (dir->d.file_type() != FileType::kDirectory) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  uint64_t nblocks = dir->d.size_blocks();
  for (uint64_t b = 0; b < nblocks; b++) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetDataBuffer(dir, b, Access::kRead));
    env_->Consume(env_->costs().dirent_scan_us * kDirEntriesPerBlock);
    DirEntry e;
    for (uint32_t s = 0; s < kDirEntriesPerBlock; s++) {
      if (DecodeDirEntry(buf->data, s, &e)) out->push_back(e);
    }
    cache_->Release(buf);
  }
  return Status::OK();
}

Status FsCore::StatInode(InodeNum inum, FileStat* out) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
  out->inum = ino->num();
  out->type = ino->d.file_type();
  out->size = ino->d.size;
  out->nlink = ino->d.nlink;
  out->txn_protected = ino->d.txn_protected();
  out->mtime = ino->d.mtime;
  return Status::OK();
}

Status FsCore::Stat(const std::string& path, FileStat* out) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, Resolve(path));
  return StatInode(ino->num(), out);
}

Status FsCore::SetTxnProtected(const std::string& path, bool on) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, Resolve(path));
  if (on) {
    ino->d.flags |= kInodeFlagTxnProtected;
  } else {
    ino->d.flags &= static_cast<uint16_t>(~kInodeFlagTxnProtected);
  }
  return NoteInodeDirty(ino);
}

}  // namespace lfstx
