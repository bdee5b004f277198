#include "lfs/segment_usage.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/check_macros.h"
#include "sim/sim_env.h"

namespace lfstx {

SegmentUsage::SegmentUsage(uint32_t nsegments, uint32_t segment_blocks)
    : nsegments_(nsegments),
      segment_blocks_(segment_blocks),
      clean_count_(nsegments),
      entries_(nsegments),
      owners_(static_cast<size_t>(nsegments) * segment_blocks) {}

void SegmentUsage::AttachTelemetry(SimEnv* env) {
  env_ = env;
  lifetime_hist_ = env->metrics()->GetHistogram(
      "lfs.segment_lifetime_us", "us",
      "virtual age of a segment from last write to cleaned");
}

void SegmentUsage::AddLive(uint32_t seg, uint32_t slot,
                           const SummaryEntry& owner, SimTime now) {
  bool placed = RestoreLive(seg, slot, owner);
  LFSTX_CHECK(placed,
              "placing a block in an occupied slot — the owner table lost "
              "a death, or the writer reused a live address");
  entries_[seg].written++;
  entries_[seg].write_time = now;
}

void SegmentUsage::DecLive(uint32_t seg, uint32_t slot) {
  assert(seg < nsegments_ && slot < segment_blocks_);
  SummaryEntry& o = owners_[Index(seg, slot)];
  LFSTX_CHECK(o.kind != 0,
              "a block died in an empty slot — the owner table is no "
              "longer exact, and the cleaner trusts it");
  o = SummaryEntry{};
  entries_[seg].live--;
  total_live_--;
  mutation_gen_++;
}

uint32_t SegmentUsage::Activate(uint32_t seg) {
  LFSTX_CHECK(entries_[seg].state == SegState::kClean,
              "activating a non-clean segment would overwrite live data");
  LFSTX_CHECK(entries_[seg].live == 0,
              "a clean segment still owns live blocks");
  entries_[seg].state = SegState::kActive;
  entries_[seg].generation++;
  entries_[seg].written = 0;
  clean_count_--;
  mutation_gen_++;
  if (env_ != nullptr) {
    LFSTX_TRACE(env_->tracer(), TraceCat::kLogEcon, "seg_activate",
                {"seg", seg}, {"gen", entries_[seg].generation});
  }
  return entries_[seg].generation;
}

void SegmentUsage::Retire(uint32_t seg) {
  assert(entries_[seg].state == SegState::kActive);
  entries_[seg].state = SegState::kDirty;
  mutation_gen_++;
  if (env_ != nullptr) {
    LFSTX_TRACE(env_->tracer(), TraceCat::kLogEcon, "seg_sealed",
                {"seg", seg}, {"live", entries_[seg].live},
                {"gen", entries_[seg].generation});
  }
}

void SegmentUsage::MarkClean(uint32_t seg) {
  LFSTX_CHECK(entries_[seg].state == SegState::kDirty,
              "only a retired (dirty) segment can be marked clean");
  LFSTX_CHECK(entries_[seg].live == 0,
              "marking a segment clean while it still holds live blocks "
              "would let the segment writer destroy them");
  entries_[seg].state = SegState::kClean;
  clean_count_++;
  mutation_gen_++;
  if (env_ != nullptr) {
    SimTime lifetime = env_->Now() - entries_[seg].write_time;
    lifetime_hist_->Add(lifetime);
    LFSTX_TRACE(env_->tracer(), TraceCat::kLogEcon, "seg_cleaned",
                {"seg", seg}, {"gen", entries_[seg].generation},
                {"lifetime_us", lifetime});
  }
}

void SegmentUsage::ReplayChunk(uint32_t seg, uint32_t off, uint32_t nblocks,
                               uint32_t gen, SimTime time) {
  Entry& e = entries_[seg];
  if (off == 0) {
    e.generation = gen;
    e.written = 0;
    e.write_time = time;
  }
  e.written += nblocks;
  mutation_gen_++;
}

void SegmentUsage::ClearLive() {
  for (auto& e : entries_) e.live = 0;
  std::fill(owners_.begin(), owners_.end(), SummaryEntry{});
  total_live_ = 0;
  mutation_gen_++;
}

bool SegmentUsage::RestoreLive(uint32_t seg, uint32_t slot,
                               const SummaryEntry& owner) {
  assert(seg < nsegments_ && slot < segment_blocks_ && owner.kind != 0);
  SummaryEntry& o = owners_[Index(seg, slot)];
  if (o.kind != 0) return false;
  o = owner;
  entries_[seg].live++;
  total_live_++;
  mutation_gen_++;
  return true;
}

void SegmentUsage::SetState(uint32_t seg, SegState state) {
  if (entries_[seg].state == SegState::kClean && state != SegState::kClean) {
    clean_count_--;
  } else if (entries_[seg].state != SegState::kClean &&
             state == SegState::kClean) {
    clean_count_++;
  }
  entries_[seg].state = state;
  mutation_gen_++;
}

Result<uint32_t> SegmentUsage::PickClean(uint32_t after) const {
  for (uint32_t k = 1; k <= nsegments_; k++) {
    uint32_t seg = (after + k) % nsegments_;
    if (entries_[seg].state == SegState::kClean) return seg;
  }
  return Status::NoSpace("no clean segments (cleaner has fallen behind)");
}

Result<uint32_t> SegmentUsage::PickVictim() const {
  bool found = false;
  uint32_t best = 0;
  for (uint32_t seg = 0; seg < nsegments_; seg++) {
    if (entries_[seg].state != SegState::kDirty) continue;
    if (!found || entries_[seg].live < entries_[best].live) {
      found = true;
      best = seg;
    }
  }
  if (!found) return Status::NoSpace("no dirty segment to clean");
  return best;
}

void SegmentUsage::Serialize(char* out) const {
  memset(out, 0, SerializedBytes());
  for (uint32_t i = 0; i < nsegments_; i++) {
    const Entry& e = entries_[i];
    char* p = out + static_cast<size_t>(i) * 16;
    memcpy(p, &e.written, 4);
    uint8_t st = static_cast<uint8_t>(e.state);
    memcpy(p + 4, &st, 1);
    memcpy(p + 5, &e.generation, 4);
    // write_time truncated to 56 bits is far beyond any simulation length.
    uint64_t wt = e.write_time;
    memcpy(p + 9, &wt, 7);
  }
}

void SegmentUsage::Deserialize(const char* in) {
  mutation_gen_++;
  clean_count_ = 0;
  total_live_ = 0;
  std::fill(owners_.begin(), owners_.end(), SummaryEntry{});
  for (uint32_t i = 0; i < nsegments_; i++) {
    const char* p = in + static_cast<size_t>(i) * 16;
    Entry e;
    memcpy(&e.written, p, 4);
    uint8_t st;
    memcpy(&st, p + 4, 1);
    e.state = static_cast<SegState>(st);
    memcpy(&e.generation, p + 5, 4);
    uint64_t wt = 0;
    memcpy(&wt, p + 9, 7);
    e.write_time = wt;
    // A crash can leave the previously-active segment marked active; it is
    // simply dirty now (roll-forward decides how much of it is real).
    if (e.state == SegState::kActive) e.state = SegState::kDirty;
    entries_[i] = e;
    if (e.state == SegState::kClean) clean_count_++;
  }
}

}  // namespace lfstx
