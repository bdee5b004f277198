// Deep consistency checker for the log-structured file system — the kind
// of tool a real release ships. Walks the checkpoint, inode map, every
// inode and its block map (Lfs::WalkBlockMaps: on disk, or in core for a
// file whose fsync or commit deferred its metadata), and cross-checks:
//   * every mapped block address lands inside the segment area;
//   * no two mappings claim the same disk block;
//   * the segment usage table's live counts match a full recount, and its
//     owner slots name exactly the blocks the recount finds, slot by slot;
//   * the chain from the last checkpoint's redo point to the log head is
//     intact, and no segment holding a chunk of it is clean;
//   * every imap entry points at a block that really contains that inode
//     at the recorded version;
//   * directory entries reference live inodes;
//   * every inode the imap maps is named by a directory entry reachable
//     from the root (no orphans: a lost free would leak its blocks).
//
// Registered as the "lfs" checker in check/registry.cc; callable directly
// when only an Lfs is at hand. Counters: files, directories, mapped_blocks.
#ifndef LFSTX_LFS_FSCK_H_
#define LFSTX_LFS_FSCK_H_

#include "check/report.h"
#include "lfs/lfs.h"

namespace lfstx {

/// Run the checker against a *mounted, quiescent* file system (all dirty
/// state flushed but a deferred file's indirect blocks and inode, which
/// it reads in core; typically right after Mount or SyncAll +
/// Checkpoint).
Result<CheckReport> CheckLfs(Lfs* fs);

}  // namespace lfstx

#endif  // LFSTX_LFS_FSCK_H_
