#include "db/db.h"

#include <cstring>

#include "db/btree.h"
#include "db/recno.h"

namespace lfstx {

// ------------------------------------------------------------- LibTp side --

Result<uint32_t> LibTpBackend::OpenFile(const std::string& path,
                                        bool create) {
  return tp_->pool()->RegisterFile(path, create);
}

Result<uint64_t> LibTpBackend::FilePages(uint32_t file_ref) {
  return tp_->pool()->FilePages(file_ref);
}

Result<uint64_t> LibTpBackend::AllocPage(uint32_t file_ref) {
  return tp_->pool()->AllocPage(file_ref);
}

Result<PageRef> LibTpBackend::GetPage(uint32_t file_ref, uint64_t pageno,
                                      TxnId txn, LockMode mode) {
  LFSTX_ASSIGN_OR_RETURN(DbPage * page,
                         tp_->GetPage(txn, file_ref, pageno, mode));
  PageRef ref;
  ref.data = page->data;
  ref.file_ref = file_ref;
  ref.pageno = pageno;
  ref.impl = page;
  return ref;
}

Status LibTpBackend::PutPage(TxnId txn, PageRef* ref, bool dirty) {
  DbPage* page = static_cast<DbPage*>(ref->impl);
  ref->impl = nullptr;
  ref->data = nullptr;
  if (dirty) {
    return tp_->PutPageDirty(txn, page);
  }
  tp_->PutPage(page);
  return Status::OK();
}

void LibTpBackend::EarlyUnlock(TxnId txn, uint32_t file_ref,
                               uint64_t pageno) {
  tp_->UnlockPage(txn, file_ref, pageno);
}

// ---------------------------------------------------------- Embedded side --

Result<uint32_t> EmbeddedBackend::OpenFile(const std::string& path,
                                           bool create) {
  FileEntry e;
  e.path = path;
  auto r = kernel_->Open(path);
  if (r.ok()) {
    e.ino = r.value();
  } else if (r.status().IsNotFound() && create) {
    LFSTX_ASSIGN_OR_RETURN(e.ino, kernel_->Create(path));
    // Transaction protection is a file attribute (section 4).
    LFSTX_RETURN_IF_ERROR(kernel_->SetTxnProtected(path, true));
  } else {
    return r.status();
  }
  FileStat st;
  LFSTX_RETURN_IF_ERROR(kernel_->fs()->StatInode(e.ino, &st));
  e.pages = (st.size + kBlockSize - 1) / kBlockSize;
  files_.push_back(e);
  return static_cast<uint32_t>(files_.size() - 1);
}

Result<uint64_t> EmbeddedBackend::FilePages(uint32_t file_ref) {
  return files_[file_ref].pages;
}

Result<uint64_t> EmbeddedBackend::AllocPage(uint32_t file_ref) {
  FileEntry& e = files_[file_ref];
  uint64_t pageno = e.pages;
  char zeros[kBlockSize] = {0};
  LFSTX_RETURN_IF_ERROR(kernel_->Write(e.ino, pageno * kBlockSize,
                                       Slice(zeros, kBlockSize)));
  e.pages++;
  return pageno;
}

Result<PageRef> EmbeddedBackend::GetPage(uint32_t file_ref, uint64_t pageno,
                                         TxnId txn, LockMode mode) {
  (void)txn;
  (void)mode;  // the kernel locks inside the read()/write() path
  auto buf = std::make_unique<char[]>(kBlockSize);  // value-initialized
  if (pageno < files_[file_ref].pages) {
    auto n = kernel_->Read(files_[file_ref].ino, pageno * kBlockSize,
                           kBlockSize, buf.get());
    LFSTX_RETURN_IF_ERROR(n.status());
  }
  PageRef ref;
  ref.file_ref = file_ref;
  ref.pageno = pageno;
  ref.impl = buf.release();  // PutPage re-wraps and frees
  ref.data = static_cast<char*>(ref.impl);
  return ref;
}

Status EmbeddedBackend::PutPage(TxnId txn, PageRef* ref, bool dirty) {
  (void)txn;
  std::unique_ptr<char[]> owned(static_cast<char*>(ref->impl));
  Status s;
  if (dirty) {
    s = kernel_->Write(files_[ref->file_ref].ino, ref->pageno * kBlockSize,
                       Slice(ref->data, kBlockSize));
  }
  ref->impl = nullptr;
  ref->data = nullptr;
  return s;
}

void EmbeddedBackend::EarlyUnlock(TxnId txn, uint32_t file_ref,
                                  uint64_t pageno) {
  // Restriction 2: the kernel's locking is strictly two-phase; there is no
  // early-release interface.
  (void)txn;
  (void)file_ref;
  (void)pageno;
}

Result<TxnId> EmbeddedBackend::Begin() {
  LFSTX_RETURN_IF_ERROR(kernel_->TxnBegin());
  return kernel_->txn_manager()->CurrentTxn();
}

Status EmbeddedBackend::Commit(TxnId txn) {
  (void)txn;
  return kernel_->TxnCommit();
}

Status EmbeddedBackend::Abort(TxnId txn) {
  (void)txn;
  return kernel_->TxnAbort();
}

// -------------------------------------------------------------- Db::Open --

Result<std::unique_ptr<Db>> Db::Open(DbBackend* backend,
                                     const std::string& path,
                                     const Options& options) {
  switch (options.type) {
    case DbType::kBtree:
      return Btree::Open(backend, path, options);
    case DbType::kRecno:
      return Recno::Open(backend, path, options);
  }
  return Status::InvalidArgument("unknown db type");
}

Status Db::Get(TxnId, Slice, std::string*) {
  return Status::NotSupported("Get not supported by this access method");
}
Status Db::Put(TxnId, Slice, Slice) {
  return Status::NotSupported("Put not supported by this access method");
}
Status Db::Delete(TxnId, Slice) {
  return Status::NotSupported("Delete not supported by this access method");
}
Status Db::Scan(TxnId, const std::function<bool(Slice, Slice)>&) {
  return Status::NotSupported("Scan not supported by this access method");
}
Result<uint64_t> Db::Append(TxnId, Slice) {
  return Status::NotSupported("Append not supported by this access method");
}
Status Db::GetRecord(TxnId, uint64_t, std::string*) {
  return Status::NotSupported("GetRecord not supported by this access method");
}
Result<uint64_t> Db::RecordCount(TxnId) {
  return Status::NotSupported(
      "RecordCount not supported by this access method");
}

}  // namespace lfstx
