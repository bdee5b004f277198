#include <gtest/gtest.h>

#include <cstring>

#include "ffs/ffs.h"
#include "ffs/syncer.h"

namespace lfstx {
namespace {

struct FfsFixture {
  explicit FfsFixture(size_t cache_blocks = 512)
      : disk(&env, SimDisk::Options{}),
        cache(&env, cache_blocks),
        fs(&env, &disk, &cache) {
    cache.set_writeback(&fs);
  }
  SimEnv env;
  SimDisk disk;
  BufferCache cache;
  Ffs fs;
};

void RunIn(SimEnv* env, std::function<void()> fn) {
  env->Spawn("test", std::move(fn));
  env->Run();
}

TEST(FfsTest, FormatCreatesRoot) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    FileStat st;
    ASSERT_TRUE(f.fs.Stat("/", &st).ok());
    EXPECT_EQ(st.inum, kRootInode);
    EXPECT_EQ(st.type, FileType::kDirectory);
  });
}

TEST(FfsTest, CreateWriteReadSmallFile) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    auto r = f.fs.Create("/hello.txt");
    ASSERT_TRUE(r.ok());
    InodeNum ino = r.value();
    ASSERT_TRUE(f.fs.Write(ino, 0, Slice("hello, log world")).ok());
    char buf[64] = {0};
    auto n = f.fs.Read(ino, 0, sizeof(buf), buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 16u);
    EXPECT_EQ(std::string(buf, 16), "hello, log world");
    ASSERT_TRUE(f.fs.Close(ino).ok());
  });
}

TEST(FfsTest, ReadAtOffsetAndPastEof) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/f").value();
    ASSERT_TRUE(f.fs.Write(ino, 0, Slice("abcdefgh")).ok());
    char buf[16] = {0};
    EXPECT_EQ(f.fs.Read(ino, 4, 16, buf).value(), 4u);
    EXPECT_EQ(std::string(buf, 4), "efgh");
    EXPECT_EQ(f.fs.Read(ino, 100, 16, buf).value(), 0u);
  });
}

TEST(FfsTest, LargeFileThroughIndirectBlocks) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/big").value();
    // 600 blocks spans direct (12), single indirect (512), and double.
    const uint64_t kBlocks = 600;
    std::string page(kBlockSize, 0);
    for (uint64_t b = 0; b < kBlocks; b++) {
      memset(page.data(), static_cast<int>('A' + b % 26), kBlockSize);
      ASSERT_TRUE(f.fs.Write(ino, b * kBlockSize, page).ok()) << b;
    }
    ASSERT_TRUE(f.fs.SyncAll().ok());
    char out[kBlockSize];
    for (uint64_t b : {0ull, 11ull, 12ull, 523ull, 524ull, 599ull}) {
      ASSERT_EQ(f.fs.Read(ino, b * kBlockSize, kBlockSize, out).value(),
                kBlockSize);
      EXPECT_EQ(out[0], static_cast<char>('A' + b % 26)) << b;
      EXPECT_EQ(out[kBlockSize - 1], static_cast<char>('A' + b % 26)) << b;
    }
  });
}

TEST(FfsTest, PersistsAcrossRemount) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 512);
      Ffs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      InodeNum ino = fs.Create("/persist.dat").value();
      ASSERT_TRUE(fs.Write(ino, 0, Slice("survives remount")).ok());
      ASSERT_TRUE(fs.Close(ino).ok());
      ASSERT_TRUE(fs.Unmount().ok());
    }
    {
      BufferCache cache(&env, 512);
      Ffs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Mount().ok());
      auto r = fs.Open("/persist.dat");
      ASSERT_TRUE(r.ok());
      char buf[64] = {0};
      EXPECT_EQ(fs.Read(r.value(), 0, 64, buf).value(), 16u);
      EXPECT_EQ(std::string(buf, 16), "survives remount");
      ASSERT_TRUE(fs.Close(r.value()).ok());
      ASSERT_TRUE(fs.Unmount().ok());
    }
  });
  env.Run();
}

TEST(FfsTest, MountRejectsAnotherInodeCount) {
  SimEnv env;
  SimDisk disk(&env, SimDisk::Options{});
  env.Spawn("test", [&] {
    {
      BufferCache cache(&env, 512);
      Ffs fs(&env, &disk, &cache);
      cache.set_writeback(&fs);
      ASSERT_TRUE(fs.Format().ok());
      ASSERT_TRUE(fs.Unmount().ok());
    }
    // The superblock's inode count follows its magic.
    char block[kBlockSize];
    disk.RawRead(0, 1, block);
    const uint32_t other = kMaxInodes / 2;
    memcpy(block + sizeof(uint32_t), &other, sizeof(other));
    disk.RawWrite(0, 1, block);
    BufferCache cache(&env, 512);
    Ffs fs(&env, &disk, &cache);
    cache.set_writeback(&fs);
    Status st = fs.Mount();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(st.message(), "FFS superblock holds 2048 inodes, not 4096");
  });
  env.Run();
}

TEST(FfsTest, DirectoriesNestAndList) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    ASSERT_TRUE(f.fs.Mkdir("/a").ok());
    ASSERT_TRUE(f.fs.Mkdir("/a/b").ok());
    ASSERT_TRUE(f.fs.Close(f.fs.Create("/a/b/c.txt").value()).ok());
    ASSERT_TRUE(f.fs.Close(f.fs.Create("/a/d.txt").value()).ok());
    std::vector<DirEntry> entries;
    ASSERT_TRUE(f.fs.ReadDir("/a", &entries).ok());
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].name, "b");
    EXPECT_EQ(entries[1].name, "d.txt");
    EXPECT_EQ(f.fs.Mkdir("/a").code(), Code::kAlreadyExists);
    EXPECT_EQ(f.fs.Create("/a/d.txt").status().code(), Code::kAlreadyExists);
    EXPECT_EQ(f.fs.Open("/nope").status().code(), Code::kNotFound);
  });
}

TEST(FfsTest, ManyFilesInOneDirectory) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    // More files than fit in one directory block (64 entries).
    for (int i = 0; i < 150; i++) {
      auto r = f.fs.Create("/file" + std::to_string(i));
      ASSERT_TRUE(r.ok()) << i;
      ASSERT_TRUE(f.fs.Close(r.value()).ok());
    }
    std::vector<DirEntry> entries;
    ASSERT_TRUE(f.fs.ReadDir("/", &entries).ok());
    EXPECT_EQ(entries.size(), 150u);
    EXPECT_EQ(f.fs.LookupPath("/file149").value(), entries.back().inum);
  });
}

TEST(FfsTest, RemoveFreesSpace) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    uint64_t free0 = f.fs.free_blocks();
    InodeNum ino = f.fs.Create("/victim").value();
    std::string page(kBlockSize * 20, 'z');
    ASSERT_TRUE(f.fs.Write(ino, 0, page).ok());
    ASSERT_TRUE(f.fs.Close(ino).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    EXPECT_LT(f.fs.free_blocks(), free0);
    ASSERT_TRUE(f.fs.Remove("/victim").ok());
    EXPECT_GE(f.fs.free_blocks() + 1, free0);  // dir block may remain
    EXPECT_EQ(f.fs.Open("/victim").status().code(), Code::kNotFound);
  });
}

TEST(FfsTest, RemoveOpenFileIsRejected) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/busy").value();
    EXPECT_EQ(f.fs.Remove("/busy").code(), Code::kBusy);
    ASSERT_TRUE(f.fs.Close(ino).ok());
    EXPECT_TRUE(f.fs.Remove("/busy").ok());
  });
}

TEST(FfsTest, RemoveNonEmptyDirIsRejected) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    ASSERT_TRUE(f.fs.Mkdir("/d").ok());
    ASSERT_TRUE(f.fs.Close(f.fs.Create("/d/x").value()).ok());
    EXPECT_EQ(f.fs.Remove("/d").code(), Code::kBusy);
    ASSERT_TRUE(f.fs.Remove("/d/x").ok());
    EXPECT_TRUE(f.fs.Remove("/d").ok());
  });
}

TEST(FfsTest, TruncateToZeroAndRewrite) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/t").value();
    std::string big(10 * kBlockSize, 'q');
    ASSERT_TRUE(f.fs.Write(ino, 0, big).ok());
    ASSERT_TRUE(f.fs.SyncAll().ok());
    ASSERT_TRUE(f.fs.Truncate(ino, 0).ok());
    FileStat st;
    ASSERT_TRUE(f.fs.StatInode(ino, &st).ok());
    EXPECT_EQ(st.size, 0u);
    ASSERT_TRUE(f.fs.Write(ino, 0, Slice("fresh")).ok());
    char buf[8] = {0};
    EXPECT_EQ(f.fs.Read(ino, 0, 8, buf).value(), 5u);
    EXPECT_EQ(std::string(buf, 5), "fresh");
  });
}

TEST(FfsTest, SequentialFilesGetContiguousBlocks) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/seq").value();
    std::string page(kBlockSize, 's');
    for (int b = 0; b < 10; b++) {
      ASSERT_TRUE(f.fs.Write(ino, static_cast<uint64_t>(b) * kBlockSize,
                             page).ok());
    }
    ASSERT_TRUE(f.fs.SyncAll().ok());
    // Sequential read of the file should pay almost no seeks.
    f.disk.ResetStats();
    f.cache.Clear();
    char out[kBlockSize];
    for (int b = 0; b < 10; b++) {
      ASSERT_TRUE(
          f.fs.Read(ino, static_cast<uint64_t>(b) * kBlockSize, kBlockSize,
                    out).ok());
    }
    EXPECT_LE(f.disk.model_stats().seeks, 3u);
  });
}

TEST(FfsTest, SyncerFlushesInBackground) {
  FfsFixture f;
  Syncer syncer(&f.env, &f.fs, 30 * kSecond);
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/bg").value();
    ASSERT_TRUE(f.fs.Write(ino, 0, Slice("dirty data")).ok());
    EXPECT_GT(f.cache.dirty_count(), 0u);
    f.env.SleepFor(31 * kSecond);
    EXPECT_EQ(f.cache.dirty_count(), 0u);
  });
  EXPECT_GE(syncer.rounds(), 1u);
}

TEST(FfsTest, TxnProtectedFlagPersists) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    ASSERT_TRUE(f.fs.Close(f.fs.Create("/prot").value()).ok());
    ASSERT_TRUE(f.fs.SetTxnProtected("/prot", true).ok());
    FileStat st;
    ASSERT_TRUE(f.fs.Stat("/prot", &st).ok());
    EXPECT_TRUE(st.txn_protected);
    ASSERT_TRUE(f.fs.SetTxnProtected("/prot", false).ok());
    ASSERT_TRUE(f.fs.Stat("/prot", &st).ok());
    EXPECT_FALSE(st.txn_protected);
  });
}

TEST(FfsTest, SparseFileReadsZeroes) {
  FfsFixture f;
  RunIn(&f.env, [&] {
    ASSERT_TRUE(f.fs.Format().ok());
    InodeNum ino = f.fs.Create("/sparse").value();
    ASSERT_TRUE(f.fs.Write(ino, 100 * kBlockSize, Slice("end")).ok());
    char buf[16];
    memset(buf, 0xff, sizeof(buf));
    EXPECT_EQ(f.fs.Read(ino, 50 * kBlockSize, 16, buf).value(), 16u);
    for (char c : buf) EXPECT_EQ(c, 0);
  });
}

}  // namespace
}  // namespace lfstx
