#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace lfstx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(Code::kInternal); c++) {
    EXPECT_STRNE(CodeName(static_cast<Code>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk on fire"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kIOError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto p = r.take();
  EXPECT_EQ(*p, 7);
}

Status Helper(bool fail) {
  if (fail) return Status::Busy("nope");
  return Status::OK();
}
Status Caller(bool fail) {
  LFSTX_RETURN_IF_ERROR(Helper(fail));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Caller(false).ok());
  EXPECT_EQ(Caller(true).code(), Code::kBusy);
}

TEST(SliceTest, CompareAndEquality) {
  Slice a("abc"), b("abd"), c("abc"), d("ab");
  EXPECT_LT(a.compare(b), 0);
  EXPECT_GT(b.compare(a), 0);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_GT(a.compare(d), 0);
  EXPECT_TRUE(a.starts_with(d));
  EXPECT_FALSE(d.starts_with(a));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  // Empty input.
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const char* msg = "log structured file system";
  size_t n = strlen(msg);
  uint32_t whole = crc32c::Value(msg, n);
  uint32_t part = crc32c::Extend(crc32c::Value(msg, 10), msg + 10, n - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

// RFC 3720 (iSCSI) appendix B.4 test vectors.
TEST(Crc32cTest, Rfc3720Vectors) {
  std::string zeros(32, '\0'), ones(32, '\xff'), up(32, '\0'), down(32, '\0');
  for (int i = 0; i < 32; i++) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  for (auto* extend : {crc32c::Extend, crc32c::ExtendPortable}) {
    EXPECT_EQ(extend(0, zeros.data(), 32), 0x8a9136aau);
    EXPECT_EQ(extend(0, ones.data(), 32), 0x62a8ab43u);
    EXPECT_EQ(extend(0, up.data(), 32), 0x46dd794eu);
    EXPECT_EQ(extend(0, down.data(), 32), 0x113fdb5cu);
  }
}

std::string RandomBytes(Random* r, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(r->Uniform(256));
  return s;
}

// The dispatched Extend (the CRC instruction on hosts that have one) and
// the byte-table fallback agree on every short length at every alignment,
// so the 8-byte main loop and the byte tail line up.
TEST(Crc32cTest, PathsAgreeOnEveryLengthAndAlignment) {
  Random r(3720);
  std::string buf = RandomBytes(&r, 300 + 8);
  for (size_t start = 0; start < 8; start++) {
    for (size_t n = 0; n <= 300; n++) {
      const char* p = buf.data() + start;
      uint32_t seed = static_cast<uint32_t>(r.Next());
      ASSERT_EQ(crc32c::Extend(seed, p, n), crc32c::ExtendPortable(seed, p, n))
          << start << "+" << n;
    }
  }
}

TEST(Crc32cTest, PathsAgreeOnLargeBuffers) {
  Random r(64);
  for (int i = 0; i < 4; i++) {
    std::string buf = RandomBytes(&r, 64 * 1024);
    EXPECT_EQ(crc32c::Extend(0, buf.data(), buf.size()),
              crc32c::ExtendPortable(0, buf.data(), buf.size()));
  }
}

TEST(Crc32cTest, ExtendComposesAtEverySplit) {
  Random r(9);
  std::string buf = RandomBytes(&r, 300);
  const uint32_t seed = 0x12345678u;
  uint32_t whole = crc32c::ExtendPortable(seed, buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split++) {
    const char* b = buf.data() + split;
    size_t nb = buf.size() - split;
    ASSERT_EQ(crc32c::Extend(crc32c::Extend(seed, buf.data(), split), b, nb),
              whole)
        << split;
  }
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(10), 10u);
    uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random r(42);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; i++) seen.insert(r.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(1);
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RandomTest, SkewedIsHot) {
  Random r(99);
  const uint64_t n = 10000;
  int hot = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; i++) {
    if (r.Skewed(n) < n / 5) hot++;
  }
  // 80% should land in the first 20%.
  EXPECT_GT(hot, trials * 7 / 10);
}

TEST(RandomTest, ExponentialMean) {
  Random r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) sum += r.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

}  // namespace
}  // namespace lfstx
