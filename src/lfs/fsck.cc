#include "lfs/fsck.h"

#include <cstring>
#include <map>
#include <set>

#include "fs/directory.h"
#include "harness/table.h"

namespace lfstx {

Result<CheckReport> CheckLfs(Lfs* fs) {
  CheckReport report;
  report.checker = "lfs";
  uint64_t files = 0, directories = 0, mapped_blocks = 0;
  SimDisk* disk = fs->disk();
  const InodeMap& imap = fs->imap();
  const SegmentUsage& usage = fs->usage();
  const uint64_t total_blocks = disk->num_blocks();

  std::map<BlockAddr, std::string> owner;  // block -> who claims it
  std::vector<uint32_t> live(fs->nsegments(), 0);
  const uint64_t seg_start = fs->seg_start();
  const uint64_t seg_end =
      seg_start + static_cast<uint64_t>(fs->nsegments()) *
                      fs->segment_blocks();
  auto seg_of = [&](BlockAddr a) {
    return static_cast<uint32_t>((a - seg_start) / fs->segment_blocks());
  };

  auto claim = [&](BlockAddr a, const std::string& who) {
    if (a < seg_start || a >= seg_end || a >= total_blocks) {
      report.Problem(Fmt("%s points outside the segment area (block %llu)",
                         who.c_str(), (unsigned long long)a));
      return;
    }
    auto [it, fresh] = owner.emplace(a, who);
    if (!fresh) {
      report.Problem(Fmt("block %llu claimed by both %s and %s",
                         (unsigned long long)a, it->second.c_str(),
                         who.c_str()));
      return;
    }
    live[seg_of(a)]++;
    mapped_blocks++;
  };

  std::map<BlockAddr, uint32_t> inode_block_claims;
  std::set<InodeNum> live_inums;
  char block[kBlockSize];
  char leaf[kBlockSize];

  for (InodeNum inum = 1; inum <= imap.max_inodes(); inum++) {
    const ImapEntry& e = imap.Get(inum);
    if (e.inode_addr == 0) continue;
    live_inums.insert(inum);
    // Inode blocks are shared; claim each once.
    if (inode_block_claims[e.inode_addr]++ == 0) {
      claim(e.inode_addr, Fmt("inode block of #%u", inum));
    }
    disk->RawRead(e.inode_addr, 1, block);
    DiskInode d;
    bool found = false;
    for (uint32_t slot = 0; slot < kInodesPerBlock && !found; slot++) {
      DecodeInode(block, slot, &d);
      if (d.inum == inum && d.file_type() != FileType::kFree) found = true;
    }
    if (!found) {
      report.Problem(Fmt("imap entry #%u points at a block without that "
                         "inode", inum));
      continue;
    }
    if (d.version != e.version) {
      report.Problem(Fmt("inode #%u version %u != imap version %u", inum,
                         d.version, e.version));
    }
    if (d.file_type() == FileType::kDirectory) {
      directories++;
    } else {
      files++;
    }

    uint64_t nblocks = d.size_blocks();
    auto claim_data = [&](BlockAddr a, uint64_t lb) {
      claim(a, Fmt("inode #%u block %llu", inum, (unsigned long long)lb));
    };
    for (uint32_t i = 0; i < kNumDirect; i++) {
      if (d.direct[i] != 0) {
        if (i >= nblocks) {
          report.Problem(Fmt("inode #%u maps block %u beyond EOF", inum, i));
        }
        claim_data(d.direct[i], i);
      }
    }
    auto walk_leaf = [&](BlockAddr leaf_addr, uint64_t first_lb,
                         const char* what) {
      claim(leaf_addr, Fmt("inode #%u %s", inum, what));
      disk->RawRead(leaf_addr, 1, leaf);
      for (uint32_t i = 0; i < kPtrsPerBlock; i++) {
        uint64_t a;
        memcpy(&a, leaf + i * 8, 8);
        if (a != 0) {
          uint64_t lb = first_lb + i;
          if (lb >= nblocks) {
            report.Problem(Fmt("inode #%u maps block %llu beyond EOF", inum,
                               (unsigned long long)lb));
          }
          claim_data(a, lb);
        }
      }
    };
    if (d.indirect != 0) {
      walk_leaf(d.indirect, kNumDirect, "indirect block");
    }
    if (d.double_indirect != 0) {
      claim(d.double_indirect, Fmt("inode #%u double-indirect root", inum));
      char root[kBlockSize];
      disk->RawRead(d.double_indirect, 1, root);
      for (uint32_t c = 0; c < kPtrsPerBlock; c++) {
        uint64_t a;
        memcpy(&a, root + c * 8, 8);
        if (a != 0) {
          walk_leaf(a, kNumDirect + kPtrsPerBlock +
                           static_cast<uint64_t>(c) * kPtrsPerBlock,
                    Fmt("double-indirect child %u", c).c_str());
        }
      }
    }
  }

  // Inode map blocks are live too.
  for (BlockAddr a : imap.block_addrs()) {
    if (a != 0) claim(a, "inode map block");
  }

  // Directory entries must reference live inodes (walk from the root),
  // and every live inode must be named by one of them.
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

  report.Counter("files") = files;
  report.Counter("directories") = directories;
  report.Counter("mapped_blocks") = mapped_blocks;
  return report;
}

}  // namespace lfstx
