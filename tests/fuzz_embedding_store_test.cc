// Fuzz regression suite for the SDEAEMB1 embedding-store decoder:
// truncation at every offset, thousands of seeded mutations, and the
// crafted count/dim headers that used to throw length_error from a huge
// reserve, wrap `count * dim`, or hand the Tensor constructor a negative
// dimension and abort (count == 0 with an evil dim was a separate path to
// the same abort).
#include "core/embedding_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "testing/fuzz.h"

namespace sdea::core {
namespace {

EmbeddingStore SampleStore() {
  Tensor emb({4, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1});
  auto store = EmbeddingStore::Create(
      {"alpha", "beta", "gamma", "delta"}, std::move(emb));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

sdea::testing::DecodeFn Decoder() {
  return [](const std::string& blob) {
    return EmbeddingStore::Decode(blob).status();
  };
}

TEST(EmbeddingStoreFuzzTest, ValidBlobDecodes) {
  const EmbeddingStore store = SampleStore();
  const std::string blob = store.Encode();
  auto decoded = EmbeddingStore::Decode(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), store.size());
  EXPECT_EQ(decoded->dim(), store.dim());
  EXPECT_EQ(decoded->names(), store.names());
  EXPECT_EQ(EmbeddingStore::Decode(blob + '\0').status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EmbeddingStoreFuzzTest, TruncationAtEveryOffset) {
  const std::string blob = SampleStore().Encode();
  sdea::testing::FuzzStats stats;
  const Status verdict =
      sdea::testing::CheckTruncationRobustness(blob, Decoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, static_cast<int64_t>(blob.size()));
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(EmbeddingStoreFuzzTest, SeededMutations) {
  const std::string blob = SampleStore().Encode();
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      blob, Decoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  EXPECT_GT(stats.rejected, 0);
}

TEST(EmbeddingStoreFuzzTest, EvilCountAndDimRejectInConstantTime) {
  const std::string good = SampleStore().Encode();
  // Layout: 8-byte magic, u64 count, u64 dim.
  const std::vector<std::pair<uint64_t, uint64_t>> evil_headers = {
      {~uint64_t{0}, 3},
      {4, ~uint64_t{0}},
      {0, uint64_t{1} << 63},          // count==0 path to a negative dim.
      {uint64_t{1} << 32, uint64_t{1} << 32},  // Product wraps int64.
  };
  for (const auto& [count, dim] : evil_headers) {
    std::string blob = good;
    std::memcpy(blob.data() + 8, &count, 8);
    std::memcpy(blob.data() + 16, &dim, 8);
    auto decoded = EmbeddingStore::Decode(blob);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace sdea::core
