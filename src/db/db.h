// The 4.4BSD db(3)-style record interface (paper section 3: "the record-
// oriented subroutine interface provided by the 4.4BSD database access
// routines to read and write B-Tree, hashed, or fixed-length records").
// The B-tree and fixed-length (recno) methods are here: they are the two
// the paper's TPC-B opens.
//
// Access methods are written once against DbBackend and run on either
// transaction architecture:
//  * LibTpBackend  — user-level: LIBTP locks, user buffer pool, WAL.
//  * EmbeddedBackend — kernel: plain read()/write() system calls on
//    transaction-protected files; locking, buffering and commit semantics
//    all happen inside the kernel.
#ifndef LFSTX_DB_DB_H_
#define LFSTX_DB_DB_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "embedded/kernel_txn.h"
#include "libtp/txn_manager.h"

namespace lfstx {

/// \brief A pinned database page, backend-agnostic.
struct PageRef {
  char* data = nullptr;
  uint32_t file_ref = 0;
  uint64_t pageno = 0;
  void* impl = nullptr;  ///< backend-private
};

/// \brief Storage + transaction services the access methods build on.
class DbBackend {
 public:
  virtual ~DbBackend() = default;

  virtual Result<uint32_t> OpenFile(const std::string& path, bool create) = 0;
  virtual Result<uint64_t> FilePages(uint32_t file_ref) = 0;
  virtual Result<uint64_t> AllocPage(uint32_t file_ref) = 0;

  /// Pin a page with the given lock mode (two-phase unless released early).
  virtual Result<PageRef> GetPage(uint32_t file_ref, uint64_t pageno,
                                  TxnId txn, LockMode mode) = 0;
  /// Unpin; `dirty` publishes the modification transactionally.
  virtual Status PutPage(TxnId txn, PageRef* ref, bool dirty) = 0;
  /// Release a page lock before commit (B-tree interior descent). May be a
  /// no-op (the embedded kernel is strictly two-phase — restriction 2).
  virtual void EarlyUnlock(TxnId txn, uint32_t file_ref, uint64_t pageno) = 0;

  virtual Result<TxnId> Begin() = 0;
  virtual Status Commit(TxnId txn) = 0;
  virtual Status Abort(TxnId txn) = 0;

  virtual SimEnv* env() const = 0;
};

/// \brief User-level architecture backend (Figure 2).
class LibTpBackend : public DbBackend {
 public:
  explicit LibTpBackend(LibTp* tp) : tp_(tp) {}

  Result<uint32_t> OpenFile(const std::string& path, bool create) override;
  Result<uint64_t> FilePages(uint32_t file_ref) override;
  Result<uint64_t> AllocPage(uint32_t file_ref) override;
  Result<PageRef> GetPage(uint32_t file_ref, uint64_t pageno, TxnId txn,
                          LockMode mode) override;
  Status PutPage(TxnId txn, PageRef* ref, bool dirty) override;
  void EarlyUnlock(TxnId txn, uint32_t file_ref, uint64_t pageno) override;
  Result<TxnId> Begin() override { return tp_->Begin(); }
  Status Commit(TxnId txn) override { return tp_->Commit(txn); }
  Status Abort(TxnId txn) override { return tp_->Abort(txn); }
  SimEnv* env() const override { return tp_->kernel()->env(); }

 private:
  LibTp* tp_;
};

/// \brief Embedded architecture backend (Figure 3): every page access is a
/// read()/write() system call against a transaction-protected file.
class EmbeddedBackend : public DbBackend {
 public:
  explicit EmbeddedBackend(Kernel* kernel) : kernel_(kernel) {}

  Result<uint32_t> OpenFile(const std::string& path, bool create) override;
  Result<uint64_t> FilePages(uint32_t file_ref) override;
  Result<uint64_t> AllocPage(uint32_t file_ref) override;
  Result<PageRef> GetPage(uint32_t file_ref, uint64_t pageno, TxnId txn,
                          LockMode mode) override;
  Status PutPage(TxnId txn, PageRef* ref, bool dirty) override;
  void EarlyUnlock(TxnId txn, uint32_t file_ref, uint64_t pageno) override;
  Result<TxnId> Begin() override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  SimEnv* env() const override { return kernel_->env(); }

 private:
  struct FileEntry {
    std::string path;
    InodeNum ino = kInvalidInode;
    uint64_t pages = 0;
  };
  Kernel* kernel_;
  std::vector<FileEntry> files_;
};

enum class DbType { kBtree, kRecno };

/// \brief Record-oriented database handle.
class Db {
 public:
  struct Options {
    DbType type = DbType::kBtree;
    bool create = true;
    uint32_t record_size = 64;  ///< recno only
  };

  static Result<std::unique_ptr<Db>> Open(DbBackend* backend,
                                          const std::string& path,
                                          const Options& options);
  virtual ~Db() = default;

  // Keyed access (B-tree).
  virtual Status Get(TxnId txn, Slice key, std::string* val);
  virtual Status Put(TxnId txn, Slice key, Slice val);
  virtual Status Delete(TxnId txn, Slice key);
  /// Full scan in key order (B-tree). The callback returns false to stop
  /// early.
  virtual Status Scan(TxnId txn,
                      const std::function<bool(Slice, Slice)>& fn);

  // Fixed-length record access (recno).
  virtual Result<uint64_t> Append(TxnId txn, Slice record);
  virtual Status GetRecord(TxnId txn, uint64_t recno, std::string* out);
  virtual Result<uint64_t> RecordCount(TxnId txn);

 protected:
  Db(DbBackend* backend, uint32_t file_ref)
      : backend_(backend), file_ref_(file_ref) {}

  DbBackend* backend_;
  uint32_t file_ref_;
};

}  // namespace lfstx

#endif  // LFSTX_DB_DB_H_
