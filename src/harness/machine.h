// Machine assembly: puts a simulated DECstation together (env + disk +
// buffer cache + file system + daemons) and provides the Kernel facade that
// applications make "system calls" against (each call charges the cost
// model's syscall overhead, which is exactly the overhead the paper's
// user-vs-kernel comparison hinges on).
#ifndef LFSTX_HARNESS_MACHINE_H_
#define LFSTX_HARNESS_MACHINE_H_

#include <memory>
#include <string>

#include "cache/buffer_cache.h"
#include "check/online_fsck.h"
#include "disk/sim_disk.h"
#include "ffs/ffs.h"
#include "ffs/syncer.h"
#include "fs/vfs.h"
#include "lfs/cleaner.h"
#include "lfs/lfs.h"
#include "sim/sampler.h"
#include "sim/sim_env.h"

namespace lfstx {

class EmbeddedTxnManager;

/// \brief System-call boundary. Wraps the file system; every call charges
/// one syscall of CPU before doing the work.
class Kernel {
 public:
  Kernel(SimEnv* env, FileSystem* fs) : env_(env), fs_(fs) {}

  SimEnv* env() const { return env_; }
  FileSystem* fs() const { return fs_; }

  Result<InodeNum> Open(const std::string& path);
  Result<InodeNum> Create(const std::string& path);
  Status Close(InodeNum ino);
  Status Mkdir(const std::string& path);
  Status Remove(const std::string& path);
  Result<size_t> Read(InodeNum ino, uint64_t off, size_t n, char* out);
  Status Write(InodeNum ino, uint64_t off, Slice data);
  Status Truncate(InodeNum ino, uint64_t size);
  Status Fsync(InodeNum ino);
  Status Sync();
  Status Stat(const std::string& path, FileStat* out);
  Status ReadDir(const std::string& path, std::vector<DirEntry>* out);
  Status SetTxnProtected(const std::string& path, bool on);

  /// Embedded transaction system calls (section 4.3). Fail with
  /// kNotSupported unless an EmbeddedTxnManager is attached.
  Status TxnBegin();
  Status TxnCommit();
  Status TxnAbort();

  void AttachTxnManager(EmbeddedTxnManager* mgr) { txn_mgr_ = mgr; }
  EmbeddedTxnManager* txn_manager() const { return txn_mgr_; }

 private:
  SimEnv* env_;
  FileSystem* fs_;
  EmbeddedTxnManager* txn_mgr_ = nullptr;
};

/// Which file system a machine boots with.
enum class FsKind { kReadOptimized, kLfs };

/// \brief A fully assembled simulated machine.
struct Machine {
  struct Options {
    FsKind fs = FsKind::kLfs;
    /// Kernel buffer cache size in 4 KiB blocks (default 8 MB; the
    /// DECstation had 32 MB total).
    size_t cache_blocks = 2048;
    /// Clustered-readahead window in blocks (0 or 1 disables). Applied to
    /// whichever file system boots, so LFS-vs-FFS comparisons stay
    /// apples-to-apples.
    uint32_t readahead_blocks = kDefaultReadaheadBlocks;
    /// Execution backend for the machine's scheduler: user-space fibers
    /// (default; a simulated context switch is a function call) or one OS
    /// thread per simulated process (the slow differential-testing
    /// oracle). Backends never change simulation results — SIMULATOR.md
    /// states the contract and the CI jobs that enforce it. Initialized
    /// from LFSTX_SIM_BACKEND; benches override via --sim-backend.
    SimBackend sim_backend = DefaultSimBackend();
    CostModel costs;
    SimDisk::Options disk;
    Lfs::Options lfs;
    bool start_syncer = true;        ///< 30 s update daemon
    SimTime sync_interval = 30 * kSecond;
    bool start_cleaner = true;       ///< LFS only
    Cleaner::Options cleaner;
    /// LFS only: online consistency-audit daemon (fsck.* metrics).
    bool start_fsck = false;
    OnlineFsck::Options fsck;
    bool format = true;              ///< format (true) or mount existing
    /// Comma-separated trace categories to enable ("disk,txn", "all").
    /// Empty = consult the LFSTX_TRACE environment variable instead.
    std::string trace_categories;
    /// Trace output path. Empty = consult LFSTX_TRACE_FILE, and fall back
    /// to stderr when that is unset too.
    std::string trace_path;
    /// Metrics sampling interval (virtual time). Nonzero starts a
    /// MetricsSampler that emits metric_sample delta events every interval
    /// and force-enables the metrics trace category. Zero = consult
    /// LFSTX_SAMPLE_MS (milliseconds), off when that is unset too.
    SimTime sample_interval = 0;
  };

  std::unique_ptr<SimEnv> env;
  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<FileSystem> fs;
  std::unique_ptr<Syncer> syncer;
  std::unique_ptr<Cleaner> cleaner;
  std::unique_ptr<OnlineFsck> fsck;  ///< when start_fsck
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<MetricsSampler> sampler;  ///< when sample_interval > 0

  Lfs* lfs() const;  ///< null when running the read-optimized FS

  /// Build and (from inside the first spawned process) format/mount.
  /// The returned machine is ready once `Boot` has run inside a process;
  /// see BootInProcess below.
  static std::unique_ptr<Machine> Build(const Options& options);

  /// Format or mount the file system. Must run inside a simulated process.
  Status Boot(const Options& options);
};

}  // namespace lfstx

#endif  // LFSTX_HARNESS_MACHINE_H_
