// Fuzz regression suite for the SDEAINC1 update-log decoder: arbitrary
// bytes either decode ok() or reject with InvalidArgument — never crash,
// hang, or allocate unboundedly (the count fields are budget-checked
// against the remaining suffix). Runs under ASan+UBSan in CI via the
// `fuzz` ctest label.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "incr/update_log.h"
#include "testing/fuzz.h"

namespace sdea::incr {
namespace {

std::string ValidBlob() {
  UpdateBatch a;
  a.kg1.new_entities = {"alice", "bob"};
  a.kg1.relational = {{"alice", "knows", "bob"}};
  a.kg1.attributes = {{"alice", "bio", "some longer value text"}};
  a.kg2.new_entities = {"alicia"};
  a.kg2.relational = {{"alicia", "conoce", "roberto"}};
  UpdateBatch b;
  b.kg2.attributes = {{"roberto", "bio", "v2"}};
  return EncodeUpdateLog({a, b});
}

sdea::testing::DecodeFn Decoder() {
  return [](const std::string& blob) {
    return DecodeUpdateLog(blob).status();
  };
}

TEST(IncrLogFuzzTest, ValidBlobDecodes) {
  EXPECT_TRUE(DecodeUpdateLog(ValidBlob()).ok());
  EXPECT_EQ(DecodeUpdateLog(ValidBlob() + '\0').status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrLogFuzzTest, TruncationAtEveryOffset) {
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckTruncationRobustness(
      ValidBlob(), Decoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  // Every strict prefix must reject: the trailing-bytes check means no
  // prefix of a valid log is itself a valid log.
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(IncrLogFuzzTest, SeededMutations) {
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      ValidBlob(), Decoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  EXPECT_GT(stats.rejected, 0);
}

TEST(IncrLogFuzzTest, EvilCountsRejectWithoutAllocating) {
  const std::string good = ValidBlob();
  // Layout after the 8-byte magic: u64 batch count, then per batch the
  // kg1 update (u64 entity count first). Splatting adversarial counts must
  // bounce off the remaining-bytes budget before any resize.
  const std::vector<uint64_t> evil = {~0ull, 1ull << 62, 1ull << 33,
                                      static_cast<uint64_t>(good.size())};
  for (const size_t offset : {size_t{8}, size_t{16}}) {
    for (const uint64_t value : evil) {
      std::string blob = good;
      std::memcpy(blob.data() + offset, &value, 8);
      auto decoded = DecodeUpdateLog(blob);
      ASSERT_FALSE(decoded.ok()) << "offset " << offset << " value " << value;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // A string length overrunning the suffix (the first entity name's length
  // field sits right after the two counts).
  std::string blob = good;
  const uint64_t huge = ~0ull - 4;
  std::memcpy(blob.data() + 24, &huge, 8);
  auto decoded = DecodeUpdateLog(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sdea::incr
