#include "libtp/log_manager.h"

#include <algorithm>
#include <cstring>

namespace lfstx {

namespace {
// 32-byte header at the front of the log file: LSNs and epochs survive
// in-place truncation of the preallocated region. checkpoint_lsn /
// low_water_lsn bound recovery's scan; files written before the fields
// existed carry zeros there, which recovery clamps to the base — full
// scan, same answer.
struct LogFileHeader {
  uint32_t magic;
  uint32_t epoch;
  uint64_t base_lsn;
  uint64_t checkpoint_lsn;  ///< LSN of the last checkpoint record
  uint64_t low_water_lsn;   ///< replay may start here (see SetCheckpointLwm)
};
static_assert(sizeof(LogFileHeader) == 32);
constexpr uint32_t kLogFileMagic = 0x4C474844;  // "LGHD"
// Records are bounded by two page images plus the header: ReadRecord
// reads this many bytes at a record's LSN.
constexpr size_t kMaxRecordBytes = 2 * kBlockSize + 256;
}  // namespace

LogManager::LogManager(Kernel* kernel) : LogManager(kernel, Options{}) {}

LogManager::LogManager(Kernel* kernel, Options options)
    : kernel_(kernel), options_(options), flushed_(kernel->env()) {
  MetricsRegistry* m = kernel_->env()->metrics();
  blame_hist_ = m->GetHistogram(
      "blame.log.leader_us", "us",
      "commit log-flush wait absorbed by another commit's fsync");
  m->AddGauge(this, "log.records", "count", "WAL records appended",
              [this] { return static_cast<double>(stats_.records); });
  m->AddGauge(this, "log.flushes", "count", "fsync batches",
              [this] { return static_cast<double>(stats_.flushes); });
  m->AddGauge(this, "log.bytes_appended", "bytes", "WAL bytes appended",
              [this] { return static_cast<double>(stats_.bytes_appended); });
  m->AddGauge(this, "log.retained_bytes", "bytes",
              "log bytes not yet truncated",
              [this] { return static_cast<double>(next_lsn_ - base_lsn_); });
}

LogManager::~LogManager() { kernel_->env()->metrics()->DropOwner(this); }

Status LogManager::Open(const std::string& path) {
  auto r = kernel_->Open(path);
  if (r.ok()) {
    log_ino_ = r.value();
    // Provenance annotation only (no simulated syscall): WAL blocks are
    // charged to logecon.bytes.wal, not user data.
    kernel_->fs()->MarkWalFile(log_ino_);
    LogFileHeader h;
    auto n = kernel_->Read(log_ino_, 0, sizeof(h),
                           reinterpret_cast<char*>(&h));
    LFSTX_RETURN_IF_ERROR(n.status());
    if (n.value() != sizeof(h) || h.magic != kLogFileMagic) {
      return Status::Corruption("bad log file header");
    }
    base_lsn_ = h.base_lsn;
    epoch_ = h.epoch;
    checkpoint_lsn_ = h.checkpoint_lsn;
    low_water_lsn_ = h.low_water_lsn;
    // The file is preallocated, so its size says nothing about the tail:
    // scan forward from the base until the records stop making sense.
    Reader reader(this, base_lsn_, /*tail_base=*/kNullLsn);
    for (;;) {
      auto rec = reader.Next();
      if (rec.ok()) continue;
      if (!rec.status().IsCorruption()) return rec.status();
      break;
    }
    next_lsn_ = durable_lsn_ = tail_base_ = reader.lsn();
    return Status::OK();
  }
  if (!r.status().IsNotFound()) return r.status();
  LFSTX_ASSIGN_OR_RETURN(log_ino_, kernel_->Create(path));
  kernel_->fs()->MarkWalFile(log_ino_);  // tag before the header/prealloc writes
  LogFileHeader h{};
  h.magic = kLogFileMagic;
  h.base_lsn = 0;
  h.epoch = 0;
  LFSTX_RETURN_IF_ERROR(kernel_->Write(
      log_ino_, 0, Slice(reinterpret_cast<const char*>(&h), sizeof(h))));
  if (options_.preallocate_bytes > 0) {
    // Reserve a contiguous region up front ("keep the log on its own
    // preallocated area"): appends then never grow the file, so the fsync
    // path writes only the data blocks.
    std::string zeros(64 * 1024, '\0');
    for (uint64_t off = sizeof(h); off < options_.preallocate_bytes;
         off += zeros.size()) {
      LFSTX_RETURN_IF_ERROR(kernel_->Write(log_ino_, off, zeros));
    }
  }
  LFSTX_RETURN_IF_ERROR(kernel_->Fsync(log_ino_));
  base_lsn_ = next_lsn_ = durable_lsn_ = tail_base_ = 0;
  checkpoint_lsn_ = low_water_lsn_ = 0;
  epoch_ = 0;
  return Status::OK();
}

Status LogManager::Truncate() {
  if (!tail_.empty()) {
    LFSTX_RETURN_IF_ERROR(FlushTo(next_lsn_ - 1));
  }
  base_lsn_ = next_lsn_;
  tail_base_ = next_lsn_;
  checkpoint_lsn_ = next_lsn_;
  low_water_lsn_ = next_lsn_;
  epoch_++;
  LFSTX_TRACE(kernel_->env()->tracer(), TraceCat::kLog, "log_truncate",
              {"base_lsn", base_lsn_}, {"epoch", epoch_});
  if (options_.preallocate_bytes == 0) {
    // No reserved region: physically release the old records.
    LFSTX_RETURN_IF_ERROR(kernel_->Truncate(log_ino_, sizeof(LogFileHeader)));
  }
  // Otherwise the region is reused in place; the bumped epoch makes any
  // stale record bytes beyond the new tail unreplayable.
  return WriteHeader();
}

Status LogManager::WriteHeader() {
  LogFileHeader h{};
  h.magic = kLogFileMagic;
  h.base_lsn = base_lsn_;
  h.epoch = epoch_;
  h.checkpoint_lsn = checkpoint_lsn_;
  h.low_water_lsn = low_water_lsn_;
  LFSTX_RETURN_IF_ERROR(kernel_->Write(
      log_ino_, 0, Slice(reinterpret_cast<const char*>(&h), sizeof(h))));
  return kernel_->Fsync(log_ino_);
}

Status LogManager::SetCheckpointLwm(Lsn checkpoint_lsn, Lsn low_water) {
  checkpoint_lsn_ = checkpoint_lsn;
  low_water_lsn_ = std::max(low_water, base_lsn_);
  LFSTX_TRACE(kernel_->env()->tracer(), TraceCat::kLog, "log_lwm",
              {"checkpoint_lsn", checkpoint_lsn_},
              {"low_water_lsn", low_water_lsn_});
  return WriteHeader();
}

Status LogManager::Close() {
  if (log_ino_ == kInvalidInode) return Status::OK();
  LFSTX_RETURN_IF_ERROR(FlushTo(next_lsn_ == 0 ? 0 : next_lsn_ - 1));
  Status s = kernel_->Close(log_ino_);
  log_ino_ = kInvalidInode;
  return s;
}

Result<Lsn> LogManager::Append(const LogRecord& rec) {
  Lsn lsn = next_lsn_;
  LogRecord stamped = rec;
  stamped.epoch = epoch_;
  stamped.AppendTo(&tail_);
  next_lsn_ = tail_base_ + tail_.size();
  stats_.records++;
  stats_.bytes_appended += stamped.EncodedSize();
  kernel_->env()->Consume(kernel_->env()->costs().log_record_us);
  return lsn;
}

Status LogManager::FlushTo(Lsn lsn, TxnId txn) {
  SimEnv* env = kernel_->env();
  if (next_lsn_ == 0) return Status::OK();  // nothing ever appended
  // Everything until the WAL is durable — the log write + fsync (disk I/O
  // included, see Profiler::Effective), or piggybacking on another
  // commit's flush — is log-flush wait.
  ProfPhaseScope prof_phase(env->profiler(), Phase::kLogWait);
  lsn = std::min(lsn, next_lsn_ - 1);
  while (durable_lsn_ < lsn + 1) {
    if (flusher_active_) {
      // Piggyback on the in-flight flush; one wait_edge per sleep blames
      // the transaction leading it (kNoTxn leaders — checkpoint or buffer
      // pool flushes — emit no edge; that wait stays span self-time).
      TxnId leader = flusher_txn_;  // LFSTX_YIELD_OK(captures who to blame for the sleep we are about to take)
      SimTime since = env->Now();
      uint64_t log_us0 = env->profiler()->PhaseTotal(Phase::kLogWait);
      pending_commits_++;
      WakeReason r = flushed_.Sleep();
      pending_commits_--;
      uint64_t edge_us =
          env->profiler()->PhaseTotal(Phase::kLogWait) - log_us0;
      if (edge_us > 0 && leader != kNoTxn && leader != txn) {
        blame_hist_->Add(edge_us);
        LFSTX_TRACE(env->tracer(), TraceCat::kBlame, "wait_edge",
                    {"kind", "log"}, {"src", "leader"}, {"waiter", txn},
                    {"holder", leader}, {"since", since},
                    {"waited_us", edge_us});
      }
      if (r == WakeReason::kStopped) {
        return Status::Busy("simulation stopped during log flush");
      }
      continue;
    }
    flusher_active_ = true;
    flusher_txn_ = txn;
    std::string batch;
    batch.swap(tail_);
    Lsn base = tail_base_;
    tail_base_ += batch.size();
    Status s = Status::OK();
    if (!batch.empty()) {
      uint64_t file_off = sizeof(LogFileHeader) + (base - base_lsn_);
      s = kernel_->Write(log_ino_, file_off, batch);
      if (s.ok()) s = kernel_->Fsync(log_ino_);
      stats_.flushes++;
      LFSTX_TRACE(env->tracer(), TraceCat::kLog, "log_flush",
                  {"bytes", static_cast<uint64_t>(batch.size())},
                  {"base_lsn", base},
                  {"piggybacked", pending_commits_}, {"ok", s.ok()});
    }
    if (s.ok()) durable_lsn_ = tail_base_;
    flusher_active_ = false;
    flushed_.WakeAll();
    LFSTX_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Result<LogRecord> LogManager::ReadRecord(Lsn lsn) {
  size_t consumed = 0;
  if (lsn >= tail_base_) {
    size_t off = lsn - tail_base_;
    if (off >= tail_.size()) return Status::InvalidArgument("LSN beyond log");
    return LogRecord::Decode(tail_.data() + off, tail_.size() - off,
                             &consumed);
  }
  if (lsn < base_lsn_) {
    return Status::InvalidArgument("LSN precedes the truncation point");
  }
  char buf[kMaxRecordBytes];
  uint64_t file_off = sizeof(LogFileHeader) + (lsn - base_lsn_);
  auto n = kernel_->Read(log_ino_, file_off, sizeof(buf), buf);
  LFSTX_RETURN_IF_ERROR(n.status());
  auto rec = LogRecord::Decode(buf, n.value(), &consumed);
  if (rec.ok() && rec.value().epoch != epoch_) {
    return Status::Corruption("log record from a previous epoch");
  }
  return rec;
}

Status LogManager::ScanAll(
    const std::function<Status(Lsn, const LogRecord&)>& fn) {
  return ScanFrom(base_lsn_, fn);
}

Status LogManager::ScanFrom(
    Lsn from, const std::function<Status(Lsn, const LogRecord&)>& fn) {
  Lsn end = tail_base_ + tail_.size();
  Reader reader = ReadFrom(from);
  while (reader.lsn() < end) {
    Lsn lsn = reader.lsn();
    auto r = reader.Next();
    if (!r.ok()) {
      if (r.status().IsCorruption()) break;  // torn tail: normal end
      return r.status();
    }
    LFSTX_RETURN_IF_ERROR(fn(lsn, r.value()));
  }
  return Status::OK();
}

LogManager::Reader LogManager::ReadFrom(Lsn from) {
  return Reader(this, std::max(from, base_lsn_), tail_base_);
}

Result<LogRecord> LogManager::Reader::Next() {
  if (lsn_ >= tail_base_) {
    auto rec = log_->ReadRecord(lsn_);  // the user-space tail: no I/O
    if (rec.ok()) lsn_ += rec.value().EncodedSize();
    return rec;
  }
  LFSTX_RETURN_IF_ERROR(Fill());
  size_t off = lsn_ - buf_lsn_;
  size_t consumed = 0;
  auto rec = LogRecord::Decode(buf_.data() + off,
                               std::min(buf_.size() - off, kMaxRecordBytes),
                               &consumed);
  if (rec.ok() && rec.value().epoch != log_->epoch_) {
    return Status::Corruption("log record from a previous epoch");
  }
  if (rec.ok()) lsn_ += consumed;
  return rec;
}

Status LogManager::Reader::Fill() {
  if (eof_ || buf_lsn_ + buf_.size() - lsn_ >= kMaxRecordBytes) {
    return Status::OK();
  }
  buf_.erase(0, lsn_ - buf_lsn_);
  buf_lsn_ = lsn_;
  while (!eof_ && buf_.size() < kMaxRecordBytes) {
    // Up to the next block boundary of the file, so each read() copies
    // out of one cached block.
    uint64_t file_off =
        sizeof(LogFileHeader) + (buf_lsn_ + buf_.size() - log_->base_lsn_);
    size_t want = kBlockSize - file_off % kBlockSize;
    char chunk[kBlockSize];
    auto n = log_->kernel_->Read(log_->log_ino_, file_off, want, chunk);
    LFSTX_RETURN_IF_ERROR(n.status());
    buf_.append(chunk, n.value());
    eof_ = n.value() < want;
  }
  return Status::OK();
}

}  // namespace lfstx
