// Database page layout shared by the access methods.
//
// Every page starts with a 32-byte header whose first 8 bytes are the page
// LSN (maintained by the user-level transaction system; simply zero under
// the embedded manager, which needs no logging). B-tree pages are slotted:
// a growing slot directory after the header and cells packed from the end.
#ifndef LFSTX_DB_PAGE_H_
#define LFSTX_DB_PAGE_H_

#include <cstdint>

#include "common/slice.h"
#include "common/status.h"
#include "disk/disk_model.h"

namespace lfstx {

enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,         ///< page 0 of every database file
  kBtreeInternal = 2,
  kBtreeLeaf = 3,
  kRecno = 4,
};

/// \brief Common 32-byte page header.
struct PageHeader {
  uint64_t lsn = 0;    ///< stored LSN (record LSN + 1; 0 = never logged)
  uint16_t type = 0;
  uint16_t nslots = 0;
  uint16_t cell_start = kBlockSize;  ///< lowest cell offset
  uint16_t flags = 0;
  uint64_t next = 0;  ///< leaf right-sibling / overflow chain / record count
  uint64_t aux = 0;   ///< meta: root page | record size
};
static_assert(sizeof(PageHeader) == 32);

PageHeader* Header(char* page);
const PageHeader* Header(const char* page);
void InitPage(char* page, PageType type);

/// Slotted-cell operations for B-tree pages.
namespace slotted {

uint16_t SlotCount(const char* page);
Slice CellKey(const char* page, int idx);
Slice CellVal(const char* page, int idx);

/// Bytes still insertable (accounting for the slot entry).
size_t FreeSpace(const char* page);
bool HasRoom(const char* page, size_t klen, size_t vlen);

/// First slot whose key >= `key` (== SlotCount when none).
int LowerBound(const char* page, Slice key);
/// Exact-match slot or -1.
int Find(const char* page, Slice key);

/// Insert a cell at slot `idx` (shifting later slots). Compacts
/// fragmented space if needed; fails with kNoSpace when truly full.
Status InsertCell(char* page, int idx, Slice key, Slice val);
void DeleteCell(char* page, int idx);
/// Replace the value of cell `idx` (any size, via delete + insert).
Status ReplaceVal(char* page, int idx, Slice val);

/// Defragment in place.
void Compact(char* page);

}  // namespace slotted

}  // namespace lfstx

#endif  // LFSTX_DB_PAGE_H_
