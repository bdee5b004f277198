#include "disk/sim_disk.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace lfstx {

namespace {
const char kZeroBlock[kBlockSize] = {0};
}  // namespace

SimDisk::SimDisk(SimEnv* env, Options options)
    : env_(env),
      model_(options.geometry, options.timing) {
  MetricsRegistry* m = env_->metrics();
  latency_hist_ = m->GetHistogram("disk.request_latency_us", "us",
                                  "submit-to-completion latency per request");
  for (int i = 0; i < kNumIoCauses; i++) {
    blame_hist_[i] = m->GetHistogram(
        std::string("blame.disk.") + IoCauseName(static_cast<IoCause>(i)) +
            "_us",
        "us",
        "queue wait blamed on the in-service request with this cause tag");
  }
  auto g = [&](const char* name, const char* unit, const char* help,
               std::function<double()> fn) {
    m->AddGauge(this, name, unit, help, std::move(fn));
  };
  g("disk.reads", "count", "read requests submitted",
    [this] { return static_cast<double>(stats_.reads); });
  g("disk.clustered_reads", "count", "multi-block read requests",
    [this] { return static_cast<double>(stats_.clustered_reads); });
  g("disk.writes", "count", "write requests submitted",
    [this] { return static_cast<double>(stats_.writes); });
  g("disk.blocks_read", "blocks", "blocks read",
    [this] { return static_cast<double>(stats_.blocks_read); });
  g("disk.blocks_written", "blocks", "blocks written",
    [this] { return static_cast<double>(stats_.blocks_written); });
  g("disk.crash_torn_blocks", "blocks",
    "write blocks dropped by an injected crash",
    [this] { return static_cast<double>(stats_.crash_torn_blocks); });
  g("disk.max_queue_depth", "requests", "deepest queue observed",
    [this] { return static_cast<double>(stats_.max_queue_depth); });
  g("disk.queue_depth", "requests", "requests queued right now",
    [this] { return static_cast<double>(queue_.size()); });
  g("disk.seeks", "count", "requests that moved the arm",
    [this] { return static_cast<double>(model_.stats().seeks); });
  g("disk.seek_us", "us", "time spent seeking",
    [this] { return static_cast<double>(model_.stats().seek_us); });
  g("disk.rotation_us", "us", "time spent in rotational delay",
    [this] { return static_cast<double>(model_.stats().rotation_us); });
  g("disk.transfer_us", "us", "time spent transferring data",
    [this] { return static_cast<double>(model_.stats().transfer_us); });
  g("disk.busy_us", "us", "total time the disk was servicing requests",
    [this] { return static_cast<double>(model_.stats().busy_us); });
}

SimDisk::~SimDisk() { env_->metrics()->DropOwner(this); }

void SimDisk::SubmitRead(BlockAddr block, uint32_t nblocks, char* out,
                         std::function<void()> done) {
  auto req = std::make_unique<DiskRequest>();
  req->kind = DiskRequest::Kind::kRead;
  req->block = block;
  req->nblocks = nblocks;
  req->out = out;
  req->done = std::move(done);
  Submit(std::move(req));
}

void SimDisk::SubmitWrite(BlockAddr block, uint32_t nblocks, const char* data,
                          std::function<void()> done) {
  auto req = std::make_unique<DiskRequest>();
  req->kind = DiskRequest::Kind::kWrite;
  req->block = block;
  req->nblocks = nblocks;
  req->data.assign(data, static_cast<size_t>(nblocks) * kBlockSize);
  req->done = std::move(done);
  Submit(std::move(req));
}

void SimDisk::Submit(std::unique_ptr<DiskRequest> req) {
  req->seq = next_seq_++;
  req->submit_time = env_->Now();
  req->cause = env_->profiler()->CurrentCause();
  req->txn = env_->profiler()->CurrentSpanTxn();
  if (busy_) {
    // Queued behind whoever is on the platter right now: that request is
    // the blame target for this one's wait (stamped now, emitted as a
    // wait_edge when service finally starts).
    req->queued = true;
    req->ahead_cause = cur_cause_;
    req->ahead_seq = cur_seq_;
    req->ahead_txn = cur_txn_;
  }
  if (req->kind == DiskRequest::Kind::kRead) {
    stats_.reads++;
    if (req->nblocks > 1) stats_.clustered_reads++;
    stats_.blocks_read += req->nblocks;
  } else {
    stats_.writes++;
    stats_.blocks_written += req->nblocks;
    // Submit-time twin of the stats counter: io_begin only fires when
    // service starts, so a write still queued when the simulation stops
    // would be counted by blocks_written (and charged by LogEcon) yet
    // invisible in the trace — the byte-conservation check needs an event
    // that matches the counter exactly.
    LFSTX_TRACE(env_->tracer(), TraceCat::kDisk, "io_submit", {"op", "write"},
                {"block", req->block}, {"nblocks", req->nblocks},
                {"cause", IoCauseName(req->cause)});
  }
  if (busy_) {
    queue_.Push(std::move(req));
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  } else {
    StartService(std::move(req));
  }
}

void SimDisk::StartService(std::unique_ptr<DiskRequest> req) {
  busy_ = true;
  cur_cause_ = req->cause;
  cur_seq_ = req->seq;
  cur_txn_ = req->txn;
  req->wait_us = env_->Now() - req->submit_time;
  if (req->queued && req->wait_us > 0) {
    blame_hist_[static_cast<int>(req->ahead_cause)]->Add(req->wait_us);
    LFSTX_TRACE(env_->tracer(), TraceCat::kBlame, "wait_edge",
                {"kind", "disk"}, {"src", IoCauseName(req->ahead_cause)},
                {"waiter", req->txn}, {"ahead_txn", req->ahead_txn},
                {"ahead_seq", req->ahead_seq}, {"block", req->block},
                {"since", req->submit_time}, {"waited_us", req->wait_us});
  }
  LFSTX_TRACE(env_->tracer(), TraceCat::kDisk, "io_begin",
              {"op", req->kind == DiskRequest::Kind::kRead ? "read" : "write"},
              {"block", req->block}, {"nblocks", req->nblocks},
              {"cause", IoCauseName(req->cause)}, {"wait_us", req->wait_us},
              {"queued", static_cast<uint64_t>(queue_.size())});
  SimTime service = model_.Service(env_->Now(), req->block, req->nblocks);
  // Shared, not released: a simulation that stops with this request on
  // the platter drops the timer uncalled, and must free the request too.
  std::shared_ptr<DiskRequest> owned = std::move(req);
  env_->After(service, [this, owned, service] {
    Complete(owned.get());
    latency_hist_->Add(env_->Now() - owned->submit_time);
    env_->profiler()->ChargeDiskRequest(
        owned->cause, owned->kind == DiskRequest::Kind::kWrite,
        owned->wait_us, service);
    LFSTX_TRACE(
        env_->tracer(), TraceCat::kDisk, "io_end",
        {"op", owned->kind == DiskRequest::Kind::kRead ? "read" : "write"},
        {"block", owned->block}, {"nblocks", owned->nblocks},
        {"cause", IoCauseName(owned->cause)}, {"service_us", service},
        {"latency_us", env_->Now() - owned->submit_time});
    auto next = queue_.PopNext(model_.current_cylinder(), model_.geometry());
    if (next != nullptr) {
      StartService(std::move(next));
    } else {
      busy_ = false;
    }
  });
}

void SimDisk::Complete(DiskRequest* req) {
  if (req->kind == DiskRequest::Kind::kRead) {
    for (uint32_t i = 0; i < req->nblocks; i++) {
      memcpy(req->out + static_cast<size_t>(i) * kBlockSize,
             BlockData(req->block + i), kBlockSize);
    }
  } else {
    for (uint32_t i = 0; i < req->nblocks; i++) {
      if (crashed_) {
        if (persist_budget_ == 0) {
          // Power is gone: drop the tail of the request.
          stats_.crash_torn_blocks += req->nblocks - i;
          break;
        }
        persist_budget_--;
      }
      PersistBlock(req->block + i,
                   req->data.data() + static_cast<size_t>(i) * kBlockSize);
    }
  }
  if (req->done) req->done();
}

Status SimDisk::Read(BlockAddr block, uint32_t nblocks, char* out) {
  if (block + nblocks > num_blocks()) {
    return Status::InvalidArgument("read beyond end of disk");
  }
  IoEvent ev(env_);
  SubmitRead(block, nblocks, out, [&ev] { ev.Fire(); });
  ProfPhaseScope ph(env_->profiler(), Phase::kDiskRead);
  if (!ev.Wait()) return Status::Busy("simulation stopped during read");
  return Status::OK();
}

Status SimDisk::Write(BlockAddr block, uint32_t nblocks, const char* data) {
  if (block + nblocks > num_blocks()) {
    return Status::InvalidArgument("write beyond end of disk");
  }
  IoEvent ev(env_);
  SubmitWrite(block, nblocks, data, [&ev] { ev.Fire(); });
  ProfPhaseScope ph(env_->profiler(), Phase::kDiskWrite);
  if (!ev.Wait()) return Status::Busy("simulation stopped during write");
  return Status::OK();
}

void SimDisk::PersistBlock(BlockAddr b, const char* src) {
  auto& slot = store_[b];
  if (slot == nullptr) slot = std::make_unique<Block>();
  memcpy(slot->data(), src, kBlockSize);
  if (trace_sink_ != nullptr) {
    trace_sink_->emplace_back();
    trace_sink_->back().addr = b;
    memcpy(trace_sink_->back().data.data(), src, kBlockSize);
  }
}

void SimDisk::CopyContentsFrom(const SimDisk& other) {
  store_.clear();
  for (const auto& [addr, block] : other.store_) {
    store_[addr] = std::make_unique<Block>(*block);
  }
}

const char* SimDisk::BlockData(BlockAddr b) const {
  auto it = store_.find(b);
  return it == store_.end() ? kZeroBlock : it->second->data();
}

void SimDisk::RawRead(BlockAddr block, uint32_t nblocks, char* out) const {
  for (uint32_t i = 0; i < nblocks; i++) {
    memcpy(out + static_cast<size_t>(i) * kBlockSize, BlockData(block + i),
           kBlockSize);
  }
}

void SimDisk::RawWrite(BlockAddr block, uint32_t nblocks, const char* data) {
  for (uint32_t i = 0; i < nblocks; i++) {
    PersistBlock(block + i, data + static_cast<size_t>(i) * kBlockSize);
  }
}

}  // namespace lfstx
