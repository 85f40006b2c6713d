// Unit tests for the wire codec every binary format is built on: the
// Writer/Reader round trip and each bounds rule the Reader owns (budget
// lengths, O(1) count rejection, checked int64, the tensor-shape rule,
// sticky failure, trailing bytes). Runs under the `fuzz` label, so the
// ASan+UBSan job covers it.
#include "base/wire.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdea::wire {
namespace {

constexpr uint64_t kAllOnes = ~uint64_t{0};

TEST(WireTest, RoundTrip) {
  std::string buf = "MAGC";
  Writer w(&buf);
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0xdeadbeefcafef00dULL);
  w.F64(-0.0625);
  w.Str32("short");
  w.Str64(std::string("pay\0load", 8));
  const std::vector<float> floats = {0.5f, -1.25f, 3.0f, 0.0f, 7.5f, 1e-3f};
  w.Shape({2, 3});
  w.Floats(floats.data(), floats.size());

  Reader r(buf);
  EXPECT_TRUE(r.Magic("MAGC"));
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.F64(), -0.0625);
  EXPECT_EQ(r.Str32(), "short");
  EXPECT_EQ(r.Str64(), std::string("pay\0load", 8));
  uint64_t elements = 0;
  EXPECT_EQ(r.Shape(&elements), (std::vector<int64_t>{2, 3}));
  ASSERT_EQ(elements, 6u);
  std::vector<float> back(elements);
  r.Floats(back.data(), elements);
  EXPECT_EQ(back, floats);
  EXPECT_TRUE(r.End("round trip").ok());
}

TEST(WireTest, AllOnesCountRejectedInConstantTime) {
  std::string buf;
  Writer w(&buf);
  w.U64(kAllOnes);
  w.Str64("one real entry");
  const auto t0 = std::chrono::steady_clock::now();
  Reader r(buf);
  EXPECT_EQ(r.Count(8), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));

  // The same bound for a u32 count, and the boundary itself: 3 entries of
  // 8 bytes fit in 24 bytes, 4 do not.
  std::string buf32;
  Writer(&buf32).U32(0xFFFFFFFFu);
  Reader r32(buf32);
  EXPECT_EQ(r32.Count32(4), 0u);
  EXPECT_FALSE(r32.ok());

  for (const auto& [count, ok] : {std::pair<uint64_t, bool>{3, true},
                                  std::pair<uint64_t, bool>{4, false}}) {
    std::string b;
    Writer bw(&b);
    bw.U64(count);
    bw.Bytes(std::string(24, 'z'));
    Reader br(b);
    EXPECT_EQ(br.Count(8), ok ? count : 0u) << count;
    EXPECT_EQ(br.ok(), ok) << count;
  }
}

TEST(WireTest, StringLengthIsCheckedAgainstTheBudget) {
  // The length field is followed by exactly `tail` bytes; a length equal
  // to remaining() is accepted, anything more (including all-ones, which
  // would wrap `pos + len`) is rejected.
  const std::string tail = "abcdef";
  for (const uint64_t len :
       {uint64_t{tail.size()}, uint64_t{tail.size() + 1}, kAllOnes}) {
    std::string buf;
    Writer w(&buf);
    w.U64(len);
    w.Bytes(tail);
    Reader r(buf);
    const std::string s = r.Str64();
    EXPECT_EQ(r.ok(), len == tail.size()) << len;
    EXPECT_EQ(s, len == tail.size() ? tail : "") << len;
  }
  std::string buf32;
  Writer w32(&buf32);
  w32.U32(0xFFFFFFFFu);
  w32.Bytes(tail);
  Reader r32(buf32);
  EXPECT_EQ(r32.Str32(), "");
  EXPECT_FALSE(r32.ok());
}

TEST(WireTest, FailedReaderStaysFailed) {
  std::string buf;
  Writer w(&buf);
  w.U32(7);
  w.Str64("every later field is valid");
  // A u64 read of the 4-byte prefix fails; the valid fields after it must
  // not resurrect the reader.
  Reader r(std::string_view(buf).substr(0, 4));
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_EQ(r.Count(1), 0u);
  EXPECT_EQ(r.Str64(), "");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.Check("section").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.End("section").code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, CheckedInt64) {
  std::string buf;
  Writer w(&buf);
  w.U64(uint64_t{1} << 62);
  w.U64(uint64_t{1} << 63);
  Reader r(buf);
  EXPECT_EQ(r.I64(), int64_t{1} << 62);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.I64(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, ShapeRejectsNegativeDimsAndOverflowingProducts) {
  const std::vector<std::vector<uint64_t>> evil = {
      {uint64_t{1} << 63},                       // Negative as int64.
      {uint64_t{1} << 32, uint64_t{1} << 32},    // Product wraps int64.
      {kAllOnes, 0},                             // Bad dim before a zero.
      {2, 2},                                    // Needs 16 bytes, has 12.
  };
  for (const std::vector<uint64_t>& dims : evil) {
    std::string buf;
    Writer w(&buf);
    w.U64(dims.size());
    for (uint64_t d : dims) w.U64(d);
    w.Bytes(std::string(12, '\0'));
    Reader r(buf);
    uint64_t elements = 99;
    EXPECT_TRUE(r.Shape(&elements).empty());
    EXPECT_EQ(elements, 0u);
    EXPECT_FALSE(r.ok());
  }
  // A rank above kMaxRank is refused before any dim is read.
  std::string deep;
  Writer(&deep).U64(kMaxRank + 1);
  Reader rd(deep);
  uint64_t elements = 0;
  rd.Shape(&elements);
  EXPECT_FALSE(rd.ok());

  // Elements() applies the same rule to dims read one by one.
  const std::string twelve(12, '\0');
  EXPECT_EQ(Reader(twelve).Elements({3, 1}), 3u);
  EXPECT_EQ(Reader(twelve).Elements({0, uint64_t{1} << 62}), 0u);
  Reader neg(twelve);
  neg.Elements({0, uint64_t{1} << 63});
  EXPECT_FALSE(neg.ok());
  Reader wrap(twelve);
  wrap.Elements({uint64_t{1} << 32, uint64_t{1} << 32});
  EXPECT_FALSE(wrap.ok());
}

TEST(WireTest, EndRejectsTrailingBytes) {
  std::string buf;
  Writer(&buf).U64(5);
  Reader exact(buf);
  exact.U64();
  EXPECT_TRUE(exact.End("blob").ok());

  buf.push_back('\0');
  Reader trailing(buf);
  trailing.U64();
  const Status s = trailing.End("blob");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(trailing.ok());
}

TEST(WireTest, ReadsANonOwningView) {
  // A slice in the middle of a larger buffer, as an mmap'd region or a
  // length-prefixed sub-blob would be: reads stop at the slice's end even
  // though the bytes after it are readable.
  std::string backing = "xxxx";
  Writer w(&backing);
  w.U64(11);
  w.U64(22);
  const std::string_view slice = std::string_view(backing).substr(4, 8);
  Reader r(slice);
  EXPECT_EQ(r.U64(), 11u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());

  // Bytes() hands back a view into the same storage, not a copy.
  Reader v(backing);
  v.Bytes(4);
  const std::string_view eight = v.Bytes(8);
  EXPECT_EQ(eight.data(), backing.data() + 4);
  uint64_t first = 0;
  std::memcpy(&first, eight.data(), 8);
  EXPECT_EQ(first, LoadU64(reinterpret_cast<const uint8_t*>(eight.data())));
  EXPECT_EQ(first, 11u);
}

}  // namespace
}  // namespace sdea::wire
