#include "lfs/fsck.h"

#include <cstring>
#include <map>
#include <set>
#include <string>

#include "fs/directory.h"
#include "harness/table.h"

namespace lfstx {

namespace {
/// One block's owner: "block 12 of #5", "inode map block 0", "none".
std::string DescribeOwner(const SummaryEntry& o) {
  switch (static_cast<BlockKind>(o.kind)) {
    case BlockKind::kData:
      return Fmt("block %llu of #%u", (unsigned long long)o.lblock, o.inum);
    case BlockKind::kIndirect:
      if (o.lblock == kMetaSingleIndirect) {
        return Fmt("indirect block of #%u", o.inum);
      }
      if (o.lblock == kMetaDoubleRoot) {
        return Fmt("double-indirect root of #%u", o.inum);
      }
      return Fmt("double-indirect child %llu of #%u",
                 (unsigned long long)(o.lblock - kMetaDoubleChildBase),
                 o.inum);
    case BlockKind::kInode:
      return Fmt("inode block of #%u", o.inum);
    case BlockKind::kImap:
      return Fmt("inode map block %llu", (unsigned long long)o.lblock);
  }
  return o.kind == 0 ? "none" : Fmt("kind %u", o.kind);
}
}  // namespace

Result<CheckReport> CheckLfs(Lfs* fs) {
  CheckReport report;
  report.checker = "lfs";
  uint64_t files = 0, directories = 0, mapped_blocks = 0;
  SimDisk* disk = fs->disk();
  const InodeMap& imap = fs->imap();
  const SegmentUsage& usage = fs->usage();
  const uint64_t total_blocks = disk->num_blocks();

  std::vector<uint32_t> live(fs->nsegments(), 0);
  const uint32_t seg_blocks = fs->segment_blocks();
  const uint64_t seg_start = fs->seg_start();
  const uint64_t seg_end =
      seg_start + static_cast<uint64_t>(fs->nsegments()) * seg_blocks;
  auto seg_of = [&](BlockAddr a) {
    return static_cast<uint32_t>((a - seg_start) / seg_blocks);
  };
  // The owner each claim implies, numbered as the segment writer numbers
  // its summaries, per segment-area block.
  std::vector<SummaryEntry> recount(seg_end - seg_start);

  auto claim = [&](InodeNum inum, BlockKind kind, BlockAddr a,
                   uint64_t lblock) {
    SummaryEntry who{static_cast<uint32_t>(kind), inum, lblock};
    if (a < seg_start || a >= seg_end || a >= total_blocks) {
      report.Problem(Fmt("%s points outside the segment area (block %llu)",
                         DescribeOwner(who).c_str(), (unsigned long long)a));
      return;
    }
    SummaryEntry& slot = recount[a - seg_start];
    if (slot.kind != 0) {
      report.Problem(Fmt("block %llu claimed by both %s and %s",
                         (unsigned long long)a, DescribeOwner(slot).c_str(),
                         DescribeOwner(who).c_str()));
      return;
    }
    slot = who;
    live[seg_of(a)]++;
    mapped_blocks++;
  };

  std::map<BlockAddr, uint32_t> inode_block_claims;
  std::set<InodeNum> live_inums;
  uint64_t nblocks = 0;  // EOF of the inode whose map is being walked
  fs->WalkBlockMaps(
      [&](InodeNum inum, BlockAddr addr, const DiskInode* d) {
        live_inums.insert(inum);
        // Inode blocks are shared; claim each once.
        if (inode_block_claims[addr]++ == 0) {
          claim(inum, BlockKind::kInode, addr, 0);
        }
        if (d == nullptr) {
          report.Problem(Fmt("imap entry #%u points at a block without that "
                             "inode", inum));
          return;
        }
        const ImapEntry& e = imap.Get(inum);
        if (d->version != e.version) {
          report.Problem(Fmt("inode #%u version %u != imap version %u", inum,
                             d->version, e.version));
        }
        if (d->file_type() == FileType::kDirectory) {
          directories++;
        } else {
          files++;
        }
        nblocks = d->size_blocks();
      },
      [&](InodeNum inum, BlockKind kind, BlockAddr a, uint64_t lblock) {
        if (kind == BlockKind::kData && lblock >= nblocks) {
          report.Problem(Fmt("inode #%u maps block %llu beyond EOF", inum,
                             (unsigned long long)lblock));
        }
        claim(inum, kind, a, lblock);
      });

  // Directory entries must reference live inodes (walk from the root),
  // and every live inode must be named by one of them.
  char block[kBlockSize];
  std::vector<InodeNum> stack{kRootInode};
  std::set<InodeNum> visited;
  std::set<InodeNum> named{kRootInode};
  while (!stack.empty()) {
    InodeNum dnum = stack.back();
    stack.pop_back();
    if (!visited.insert(dnum).second) continue;
    auto dino = fs->GetInode(dnum);
    if (!dino.ok()) {
      report.Problem(Fmt("directory #%u unreadable: %s", dnum,
                         dino.status().ToString().c_str()));
      continue;
    }
    uint64_t nb = dino.value()->d.size_blocks();
    for (uint64_t b = 0; b < nb; b++) {
      auto addr = fs->MapBlock(dino.value(), b);
      if (!addr.ok() || addr.value() == kInvalidBlock) continue;
      disk->RawRead(addr.value(), 1, block);
      DirEntry entry;
      for (uint32_t s = 0; s < kDirEntriesPerBlock; s++) {
        if (!DecodeDirEntry(block, s, &entry)) continue;
        if (!live_inums.count(entry.inum)) {
          report.Problem(Fmt("directory #%u entry '%s' -> dead inode #%u",
                             dnum, entry.name.c_str(), entry.inum));
          continue;
        }
        named.insert(entry.inum);
        auto child = fs->GetInode(entry.inum);
        if (child.ok() &&
            child.value()->d.file_type() == FileType::kDirectory) {
          stack.push_back(entry.inum);
        }
      }
    }
  }

  // An orphan is a lost free: the file's blocks stay live forever.
  for (InodeNum inum : live_inums) {
    if (!named.count(inum)) {
      report.Problem(Fmt("inode #%u is mapped but no directory reachable "
                         "from the root names it (orphan)", inum));
    }
  }

  // Usage-table cross-check.
  for (uint32_t seg = 0; seg < fs->nsegments(); seg++) {
    if (usage.state(seg) == SegState::kClean && live[seg] != 0) {
      report.Problem(Fmt("segment %u is marked clean but has %u live blocks",
                         seg, live[seg]));
    }
    if (usage.state(seg) != SegState::kClean &&
        usage.live(seg) != live[seg]) {
      report.Problem(Fmt("segment %u usage says %u live, recount says %u",
                         seg, usage.live(seg), live[seg]));
    }
  }

  // The log a recovery from the last capture reads, from its redo point to
  // the head: a clean segment there could be reused under it.
  uint32_t reported = kNoSegment;
  uint64_t broken = fs->WalkCaptureSpan(
      fs->next_write_seq(), [&](uint64_t seq, BlockAddr a) {
        uint32_t seg = seg_of(a);
        if (usage.state(seg) == SegState::kClean && seg != reported) {
          report.Problem(Fmt("segment %u is clean but holds chunk %llu, "
                             "which a recovery from the last checkpoint "
                             "(redo point %llu) reads",
                             seg, (unsigned long long)seq,
                             (unsigned long long)fs->last_capture().redo_seq));
          reported = seg;
        }
      });
  if (broken != fs->next_write_seq()) {
    report.Problem(Fmt("chunk %llu, which a recovery from the last "
                       "checkpoint reads, is not where the chain leads",
                       (unsigned long long)broken));
  }

  // Owner-table cross-check, slot by slot in both directions. An inode
  // block's summary names the first inode packed in it, which may since
  // have moved, so inode blocks compare by kind only.
  auto same_owner = [](const SummaryEntry& a, const SummaryEntry& b) {
    if (a.kind != b.kind) return false;
    return a.kind == static_cast<uint32_t>(BlockKind::kInode) ||
           (a.inum == b.inum && a.lblock == b.lblock);
  };
  for (uint32_t seg = 0; seg < fs->nsegments(); seg++) {
    for (uint32_t slot = 0; slot < seg_blocks; slot++) {
      const SummaryEntry& table = usage.owner(seg, slot);
      const SummaryEntry& found =
          recount[static_cast<size_t>(seg) * seg_blocks + slot];
      if (!same_owner(table, found)) {
        report.Problem(Fmt("segment %u slot %u: usage table owner %s, "
                           "recount owner %s",
                           seg, slot, DescribeOwner(table).c_str(),
                           DescribeOwner(found).c_str()));
      }
    }
  }

  report.Counter("files") = files;
  report.Counter("directories") = directories;
  report.Counter("mapped_blocks") = mapped_blocks;
  return report;
}

}  // namespace lfstx
