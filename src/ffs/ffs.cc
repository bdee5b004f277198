#include "ffs/ffs.h"

#include <cassert>
#include <cstring>

namespace lfstx {

namespace {
/// Spacing of first blocks of distinct files, approximating FFS
/// cylinder-group spreading.
constexpr uint64_t kFileSpreadBlocks = 64;

struct Layout {
  uint64_t total_blocks;
  uint32_t bitmap_blocks;
  uint64_t bitmap_start;
  uint64_t itable_start;
  uint32_t itable_blocks;
  uint64_t data_start;
};

Layout ComputeLayout(uint64_t total_blocks, uint32_t max_inodes) {
  Layout l;
  l.total_blocks = total_blocks;
  l.bitmap_start = 1;
  l.bitmap_blocks =
      static_cast<uint32_t>((total_blocks / 8 + kBlockSize - 1) / kBlockSize);
  l.itable_start = l.bitmap_start + l.bitmap_blocks;
  l.itable_blocks = (max_inodes + kInodesPerBlock - 1) / kInodesPerBlock;
  l.data_start = l.itable_start + l.itable_blocks;
  return l;
}
}  // namespace

Ffs::Ffs(SimEnv* env, SimDisk* disk, BufferCache* cache)
    : Ffs(env, disk, cache, Options{}) {}

Ffs::Ffs(SimEnv* env, SimDisk* disk, BufferCache* cache, Options options)
    : FsCore(env, disk, cache),
      options_(options),
      bitmap_(ComputeLayout(disk->num_blocks(), options.max_inodes).data_start,
              disk->num_blocks() -
                  ComputeLayout(disk->num_blocks(), options.max_inodes)
                      .data_start) {
  Layout l = ComputeLayout(disk->num_blocks(), options_.max_inodes);
  sb_.max_inodes = options_.max_inodes;
  sb_.total_blocks = l.total_blocks;
  sb_.bitmap_start = l.bitmap_start;
  sb_.bitmap_blocks = l.bitmap_blocks;
  sb_.itable_start = l.itable_start;
  sb_.itable_blocks = l.itable_blocks;
  sb_.data_start = l.data_start;
  file_rotor_ = sb_.data_start;

  env_->metrics()->AddGauge(
      this, "ffs.free_blocks", "blocks", "unallocated data blocks",
      [this] { return static_cast<double>(bitmap_.free_count()); });
  env_->metrics()->AddGauge(
      this, "ffs.sync_batches", "count", "batched write-back waves",
      [this] { return static_cast<double>(sync_batches_); });
  env_->metrics()->AddGauge(
      this, "ffs.sync_blocks", "blocks", "blocks pushed by write-back waves",
      [this] { return static_cast<double>(sync_blocks_); });
}

Ffs::~Ffs() { env_->metrics()->DropOwner(this); }

// ------------------------------------------------------------- lifecycle --

Status Ffs::Format() {
  // Formatting is untimed setup: it uses raw access, like a mkfs run before
  // the measured experiment begins.
  char block[kBlockSize] = {0};
  memcpy(block, &sb_, sizeof(sb_));
  disk_->RawWrite(0, 1, block);
  std::vector<char> zeros(static_cast<size_t>(sb_.itable_blocks) * kBlockSize,
                          0);
  disk_->RawWrite(sb_.itable_start, sb_.itable_blocks, zeros.data());
  std::vector<char> bm(static_cast<size_t>(sb_.bitmap_blocks) * kBlockSize);
  bitmap_.Serialize(bm.data());
  disk_->RawWrite(sb_.bitmap_start, sb_.bitmap_blocks, bm.data());

  inode_used_.assign(sb_.max_inodes + 1, false);
  inode_used_[kInvalidInode] = true;
  mounted_ = true;
  LFSTX_RETURN_IF_ERROR(InitRoot());
  return SyncAll();
}

Status Ffs::Mount() {
  if (mounted_) return Status::OK();
  char block[kBlockSize];
  disk_->RawRead(0, 1, block);
  Superblock sb;
  memcpy(&sb, block, sizeof(sb));
  if (sb.magic != kMagic) return Status::Corruption("bad FFS superblock");
  sb_ = sb;
  std::vector<char> bm(static_cast<size_t>(sb_.bitmap_blocks) * kBlockSize);
  disk_->RawRead(sb_.bitmap_start, sb_.bitmap_blocks, bm.data());
  bitmap_.Deserialize(bm.data());
  // Rebuild the in-memory inode allocation map from the table.
  inode_used_.assign(sb_.max_inodes + 1, false);
  inode_used_[kInvalidInode] = true;
  std::vector<char> itable(static_cast<size_t>(sb_.itable_blocks) *
                           kBlockSize);
  disk_->RawRead(sb_.itable_start, sb_.itable_blocks, itable.data());
  for (InodeNum i = 1; i <= sb_.max_inodes; i++) {
    DiskInode d;
    uint32_t bi = (i - 1) / kInodesPerBlock;
    DecodeInode(itable.data() + static_cast<size_t>(bi) * kBlockSize,
                (i - 1) % kInodesPerBlock, &d);
    if (d.file_type() != FileType::kFree) inode_used_[i] = true;
  }
  mounted_ = true;
  return Status::OK();
}

Status Ffs::Unmount() {
  if (!mounted_) return Status::OK();
  if (AnyOpenFiles()) return Status::Busy("open files at unmount");
  LFSTX_RETURN_IF_ERROR(SyncAll());
  ClearInodeTable();
  mounted_ = false;
  return Status::OK();
}

// ----------------------------------------------------------------- inodes --

BlockAddr Ffs::ItableBlockOf(InodeNum inum) const {
  return sb_.itable_start + (inum - 1) / kInodesPerBlock;
}

uint32_t Ffs::ItableSlotOf(InodeNum inum) const {
  return (inum - 1) % kInodesPerBlock;
}

Result<Buffer*> Ffs::GetItableBuffer(InodeNum inum) {
  BlockAddr home = ItableBlockOf(inum);
  SimDisk* disk = disk_;
  LFSTX_ASSIGN_OR_RETURN(
      Buffer * buf,
      cache_->Get(BufferKey{kMetaFileId, home},
                  [disk, home](char* dst) { return disk->Read(home, 1, dst); }));
  buf->disk_addr = home;
  return buf;
}

Status Ffs::LoadInode(InodeNum inum, DiskInode* out) {
  if (inum == kInvalidInode || inum > sb_.max_inodes) {
    return Status::InvalidArgument("inode number out of range");
  }
  LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetItableBuffer(inum));
  DecodeInode(buf->data, ItableSlotOf(inum), out);
  cache_->Release(buf);
  return Status::OK();
}

Result<InodeNum> Ffs::AllocInodeNum() {
  for (InodeNum i = 1; i <= sb_.max_inodes; i++) {
    if (!inode_used_[i]) {
      inode_used_[i] = true;
      return i;
    }
  }
  return Status::NoSpace("out of inodes");
}

Status Ffs::ReleaseInodeNum(Inode* ino) {
  LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetItableBuffer(ino->num()));
  DiskInode free;
  free.inum = ino->num();
  EncodeInode(free, buf->data, ItableSlotOf(ino->num()));
  cache_->MarkDirty(buf);
  cache_->Release(buf);
  inode_used_[ino->num()] = false;
  alloc_hint_.erase(ino->num());
  return Status::OK();
}

Status Ffs::NoteInodeDirty(Inode* ino) {
  ino->dirty = true;
  return Status::OK();
}

Status Ffs::FlushDirtyInodes() {
  for (Inode* ino : DirtyInodes()) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetItableBuffer(ino->num()));
    EncodeInode(ino->d, buf->data, ItableSlotOf(ino->num()));
    cache_->MarkDirty(buf);
    cache_->Release(buf);
    ino->dirty = false;
  }
  return Status::OK();
}

// ----------------------------------------------------------------- blocks --

Result<BlockAddr> Ffs::AllocBlockAddr(Inode* ino) {
  BlockAddr hint;
  auto it = alloc_hint_.find(ino->num());
  if (it != alloc_hint_.end()) {
    hint = it->second + 1;
  } else {
    // First block of this file: spread files across the data region the way
    // FFS cylinder groups do, so independent files don't interleave.
    hint = file_rotor_;
    uint64_t span = sb_.total_blocks - sb_.data_start;
    file_rotor_ = sb_.data_start +
                  (file_rotor_ - sb_.data_start + kFileSpreadBlocks) % span;
  }
  LFSTX_ASSIGN_OR_RETURN(BlockAddr addr, bitmap_.Alloc(hint));
  alloc_hint_[ino->num()] = addr;
  bitmap_dirty_ = true;
  return addr;
}

void Ffs::ReleaseBlockAddr(BlockAddr addr) {
  bitmap_.Free(addr);
  bitmap_dirty_ = true;
}

// ------------------------------------------------------------ write paths --

Status Ffs::WriteBack(Buffer* buf) {
  if (buf->disk_addr == kInvalidBlock) {
    return Status::Internal("FFS buffer has no on-disk home at write-back");
  }
  env_->log_econ()->ChargeBlocks(IsWalFile(buf->key.file) ? LogByteCat::kWal
                                                          : LogByteCat::kFfs,
                                 1);
  uint64_t mods = buf->mods;
  LFSTX_RETURN_IF_ERROR(disk_->Write(buf->disk_addr, 1, buf->data));
  // A process that modified the buffer during the write keeps it dirty.
  if (buf->mods == mods) cache_->MarkClean(buf);
  return Status::OK();
}

Status Ffs::WriteBatch(std::vector<Buffer*> bufs) {
  if (bufs.empty()) return Status::OK();
  sync_batches_++;
  sync_blocks_ += bufs.size();
  LFSTX_TRACE(env_->tracer(), TraceCat::kSync, "ffs_write_batch",
              {"blocks", static_cast<uint64_t>(bufs.size())});
  for (Buffer* buf : bufs) {
    if (buf->disk_addr == kInvalidBlock) {
      for (Buffer* b : bufs) cache_->Release(b);
      return Status::Internal("FFS buffer has no on-disk home at sync");
    }
  }
  IoEvent ev(env_);
  size_t remaining = bufs.size();
  for (Buffer* buf : bufs) {
    env_->log_econ()->ChargeBlocks(IsWalFile(buf->key.file)
                                       ? LogByteCat::kWal
                                       : LogByteCat::kFfs,
                                   1);
    disk_->SubmitWrite(buf->disk_addr, 1, buf->data, [&remaining, &ev] {
      if (--remaining == 0) ev.Fire();
    });
    cache_->MarkClean(buf);  // contents captured at submit
    cache_->Release(buf);
  }
  ProfPhaseScope prof_phase(env_->profiler(), Phase::kDiskWrite);
  if (!ev.Wait()) return Status::Busy("simulation stopped during sync");
  return Status::OK();
}

Status Ffs::WriteBitmap() {
  std::vector<char> bm(static_cast<size_t>(sb_.bitmap_blocks) * kBlockSize);
  bitmap_.Serialize(bm.data());
  env_->log_econ()->ChargeBlocks(LogByteCat::kFfs, sb_.bitmap_blocks);
  LFSTX_RETURN_IF_ERROR(disk_->Write(sb_.bitmap_start, sb_.bitmap_blocks,
                                     bm.data()));
  bitmap_dirty_ = false;
  return Status::OK();
}

Status Ffs::SyncAll() {
  LFSTX_RETURN_IF_ERROR(FlushDirtyInodes());
  if (bitmap_dirty_) LFSTX_RETURN_IF_ERROR(WriteBitmap());
  return WriteBatch(cache_->CollectDirty());
}

Status Ffs::SyncFile(InodeNum inum) {
  LFSTX_ASSIGN_OR_RETURN(Inode * ino, GetInode(inum));
  // Batch the file's dirty blocks into one wave of writes: contiguous
  // blocks (a log flush) then stream back-to-back instead of missing a
  // platter rotation between one-at-a-time writes.
  std::vector<Buffer*> dirty = cache_->CollectDirtyFile(ino->data_file_id());
  for (Buffer* b : cache_->CollectDirtyFile(ino->meta_file_id())) {
    dirty.push_back(b);
  }
  LFSTX_RETURN_IF_ERROR(WriteBatch(std::move(dirty)));
  if (ino->dirty) {
    LFSTX_ASSIGN_OR_RETURN(Buffer * buf, GetItableBuffer(inum));
    EncodeInode(ino->d, buf->data, ItableSlotOf(inum));
    ino->dirty = false;
    Status s = WriteBack(buf);
    cache_->Release(buf);
    LFSTX_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

}  // namespace lfstx
