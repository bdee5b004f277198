#include "harness/machine.h"

#include <cstdio>
#include <cstdlib>

#include "embedded/kernel_txn.h"

namespace lfstx {

Result<InodeNum> Kernel::Open(const std::string& path) {
  env_->Syscall();
  return fs_->Open(path);
}

Result<InodeNum> Kernel::Create(const std::string& path) {
  env_->Syscall();
  return fs_->Create(path);
}

Status Kernel::Close(InodeNum ino) {
  env_->Syscall();
  return fs_->Close(ino);
}

Status Kernel::Mkdir(const std::string& path) {
  env_->Syscall();
  return fs_->Mkdir(path);
}

Status Kernel::Remove(const std::string& path) {
  env_->Syscall();
  return fs_->Remove(path);
}

Result<size_t> Kernel::Read(InodeNum ino, uint64_t off, size_t n, char* out) {
  env_->Syscall();
  return fs_->Read(ino, off, n, out);
}

Status Kernel::Write(InodeNum ino, uint64_t off, Slice data) {
  env_->Syscall();
  return fs_->Write(ino, off, data);
}

Status Kernel::Truncate(InodeNum ino, uint64_t size) {
  env_->Syscall();
  return fs_->Truncate(ino, size);
}

Status Kernel::Fsync(InodeNum ino) {
  env_->Syscall();
  return fs_->SyncFile(ino);
}

Status Kernel::Sync() {
  env_->Syscall();
  return fs_->SyncAll();
}

Status Kernel::Stat(const std::string& path, FileStat* out) {
  env_->Syscall();
  return fs_->Stat(path, out);
}

Status Kernel::ReadDir(const std::string& path, std::vector<DirEntry>* out) {
  env_->Syscall();
  return fs_->ReadDir(path, out);
}

Status Kernel::SetTxnProtected(const std::string& path, bool on) {
  env_->Syscall();
  return fs_->SetTxnProtected(path, on);
}

Status Kernel::TxnBegin() {
  env_->Syscall();
  if (txn_mgr_ == nullptr) {
    return Status::NotSupported("no embedded transaction manager");
  }
  return txn_mgr_->TxnBegin();
}

Status Kernel::TxnCommit() {
  env_->Syscall();
  if (txn_mgr_ == nullptr) {
    return Status::NotSupported("no embedded transaction manager");
  }
  return txn_mgr_->TxnCommit();
}

Status Kernel::TxnAbort() {
  env_->Syscall();
  if (txn_mgr_ == nullptr) {
    return Status::NotSupported("no embedded transaction manager");
  }
  return txn_mgr_->TxnAbort();
}

Lfs* Machine::lfs() const { return dynamic_cast<Lfs*>(fs.get()); }

std::unique_ptr<Machine> Machine::Build(const Options& options) {
  auto m = std::make_unique<Machine>();
  m->env = std::make_unique<SimEnv>(options.costs, options.sim_backend);
  // Tracing: explicit options win, then LFSTX_TRACE / LFSTX_TRACE_FILE.
  std::string spec = options.trace_categories;
  if (spec.empty()) {
    if (const char* e = getenv("LFSTX_TRACE")) spec = e;
  }
  Tracer* tracer = m->env->tracer();
  if (!spec.empty()) {
    Status s = tracer->EnableSpec(spec);
    if (!s.ok()) {
      fprintf(stderr, "lfstx: bad trace spec %s: %s\n", spec.c_str(),
              s.message().c_str());
    }
  }
  // The sampler's metrics category counts like a spec's: with either on,
  // the events go to the trace file.
  SimTime interval = options.sample_interval;
  if (interval == 0) {
    if (auto ms = EnvNumber("LFSTX_SAMPLE_MS")) interval = *ms * kMillisecond;
  }
  if (interval > 0) tracer->Enable(TraceCat::kMetrics);
  std::string path = options.trace_path;
  if (path.empty()) {
    if (const char* e = getenv("LFSTX_TRACE_FILE")) path = e;
  }
  if (tracer->mask() != 0 && !path.empty()) {
    Status s = tracer->OpenFile(path);
    if (!s.ok()) {
      fprintf(stderr, "lfstx: cannot open trace file %s: %s\n",
              path.c_str(), s.message().c_str());
    }
  }
  // Flight recorder: when nobody is watching the trace stream, keep the
  // last 64 events per category in memory so an LFSTX_CHECK failure still
  // has context to print. An active trace spec disables it (the real sink
  // already has everything); LFSTX_FLIGHT overrides the depth, 0 disabling.
  uint64_t flight = spec.empty() ? 64 : 0;
  if (auto n = EnvNumber("LFSTX_FLIGHT")) flight = *n;
  if (flight > 0) {
    m->env->tracer()->EnableFlightRecorder(static_cast<size_t>(flight));
  }
  m->disk = std::make_unique<SimDisk>(m->env.get(), options.disk);
  // Instance-named cache metrics (cache.lfs.* / cache.ffs.*): a rig hosting
  // both file systems would otherwise lose one cache's counters to the
  // registry's first-wins rule.
  m->cache = std::make_unique<BufferCache>(
      m->env.get(), options.cache_blocks,
      options.fs == FsKind::kLfs ? "lfs" : "ffs");
  if (options.fs == FsKind::kLfs) {
    auto lfs = std::make_unique<Lfs>(m->env.get(), m->disk.get(),
                                     m->cache.get(), options.lfs);
    lfs->set_readahead_window(options.readahead_blocks);
    if (options.start_cleaner) {
      m->cleaner = std::make_unique<Cleaner>(m->env.get(), lfs.get(),
                                             options.cleaner);
    }
    if (options.start_fsck) {
      m->fsck = std::make_unique<OnlineFsck>(m->env.get(), lfs.get(),
                                             m->disk.get(), options.fsck);
    }
    m->fs = std::move(lfs);
  } else {
    auto ffs =
        std::make_unique<Ffs>(m->env.get(), m->disk.get(), m->cache.get());
    ffs->set_readahead_window(options.readahead_blocks);
    m->fs = std::move(ffs);
  }
  m->cache->set_writeback(m->fs.get());
  if (options.start_syncer) {
    m->syncer = std::make_unique<Syncer>(m->env.get(), m->fs.get(),
                                         options.sync_interval);
  }
  m->kernel = std::make_unique<Kernel>(m->env.get(), m->fs.get());
  // Metrics sampler: started last so the first tick sees every component's
  // gauges and histograms registered.
  if (interval > 0) {
    m->sampler = std::make_unique<MetricsSampler>(m->env.get(), interval);
  }
  return m;
}

Status Machine::Boot(const Options& options) {
  return options.format ? fs->Format() : fs->Mount();
}

}  // namespace lfstx
