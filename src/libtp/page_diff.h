// Which bytes of a database page an update changed — the part LIBTP logs
// ("only the updated bytes need be written", paper section 4.3).
#ifndef LFSTX_LIBTP_PAGE_DIFF_H_
#define LFSTX_LIBTP_PAGE_DIFF_H_

#include <cstdint>

namespace lfstx {

/// Byte range [lo, hi) of a page.
struct PageRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// The changed bytes of a page, as at most two ranges in page order.
struct PageDiff {
  int count = 0;
  PageRange ranges[2];
};

/// Diff two kBlockSize page images, ignoring the LSN field (the first 8
/// bytes). The changes span [first changed byte, last changed byte]. Slotted
/// pages mutate at both ends (slot directory up front, cells packed from the
/// back), so that span is split around its longest unchanged run when the
/// run is at least 128 bytes; on a tie the earliest run wins.
PageDiff DiffPage(const char* before, const char* after);

}  // namespace lfstx

#endif  // LFSTX_LIBTP_PAGE_DIFF_H_
