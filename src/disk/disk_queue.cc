#include "disk/disk_queue.h"

namespace lfstx {

void DiskQueue::Push(std::unique_ptr<DiskRequest> req) {
  pending_.push_back(std::move(req));
}

std::unique_ptr<DiskRequest> DiskQueue::PopNext(uint32_t current_cylinder,
                                                const DiskGeometry& geometry) {
  if (pending_.empty()) return nullptr;

  // C-LOOK: closest cylinder >= current; if none, wrap to the lowest.
  bool have_ahead = false;
  uint32_t best_ahead = 0, best_wrap = 0;
  size_t ahead_i = 0, wrap_i = 0;
  for (size_t i = 0; i < pending_.size(); i++) {
    uint32_t cyl = geometry.CylinderOf(pending_[i]->block);
    if (cyl >= current_cylinder) {
      if (!have_ahead || cyl < best_ahead ||
          (cyl == best_ahead && pending_[i]->seq < pending_[ahead_i]->seq)) {
        have_ahead = true;
        best_ahead = cyl;
        ahead_i = i;
      }
    }
    if (i == 0 || cyl < best_wrap ||
        (cyl == best_wrap && pending_[i]->seq < pending_[wrap_i]->seq)) {
      best_wrap = cyl;
      wrap_i = i;
    }
  }
  size_t pick = have_ahead ? ahead_i : wrap_i;

  auto req = std::move(pending_[pick]);
  pending_.erase(pending_.begin() + static_cast<long>(pick));
  return req;
}

}  // namespace lfstx
