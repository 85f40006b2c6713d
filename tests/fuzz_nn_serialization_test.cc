// Fuzz regression suite for the SDEACKP1 parameter-blob decoder and the
// Adam optimizer-state decoder: truncation at every offset, thousands of
// seeded mutations, and the crafted entry counts / tensor dims that used
// to overflow `pos + len`, wrap `elements * dim`, or reach the Tensor
// constructor with a negative dimension and abort.
#include "nn/serialization.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/wire.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "testing/fuzz.h"

namespace sdea::nn {
namespace {

// DeserializeParameters mutates the module, so the fuzz decode closure
// rebuilds a fresh target each case from the same seed; decode outcomes
// stay independent of case order.
sdea::testing::DecodeFn ParamsDecoder() {
  return [](const std::string& blob) {
    Rng rng(11);
    Mlp target("m", {4, 8, 2}, Activation::kRelu, &rng);
    return DeserializeParameters(&target, blob);
  };
}

std::string SampleParamsBlob() {
  Rng rng(11);
  Mlp module("m", {4, 8, 2}, Activation::kRelu, &rng);
  return SerializeParameters(&module);
}

TEST(NnSerializationFuzzTest, ValidBlobDecodes) {
  const std::string blob = SampleParamsBlob();
  const Status s = ParamsDecoder()(blob);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ParamsDecoder()(blob + '\0').code(),
            StatusCode::kInvalidArgument);
}

TEST(NnSerializationFuzzTest, TruncationAtEveryOffset) {
  const std::string blob = SampleParamsBlob();
  sdea::testing::FuzzStats stats;
  const Status verdict =
      sdea::testing::CheckTruncationRobustness(blob, ParamsDecoder(), &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, static_cast<int64_t>(blob.size()));
  EXPECT_EQ(stats.rejected, stats.cases);
}

TEST(NnSerializationFuzzTest, SeededMutations) {
  const std::string blob = SampleParamsBlob();
  sdea::testing::FuzzOptions options;
  options.iterations = 5000;
  sdea::testing::FuzzStats stats;
  const Status verdict = sdea::testing::CheckMutationRobustness(
      blob, ParamsDecoder(), options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(stats.cases, options.iterations);
  EXPECT_GT(stats.rejected, 0);
}

TEST(NnSerializationFuzzTest, HugeEntryCountRejectsInConstantTime) {
  std::string blob = SampleParamsBlob();
  // The entry count is the u64 right after the 8-byte magic.
  const uint64_t evil = ~uint64_t{0};
  std::memcpy(blob.data() + 8, &evil, 8);
  const Status s = ParamsDecoder()(blob);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NnSerializationFuzzTest, EvilTensorDimRejectsNotAborts) {
  // Hand-built one-entry blobs whose shape would overflow: a single dim of
  // 2^63 (the u64→int64 cast used to produce a negative dimension and trip
  // the SDEA_CHECK in the Tensor constructor), and 2^32 x 2^32, whose
  // product wraps int64. Both must be refused, never reach Tensor.
  for (const std::vector<uint64_t>& dims :
       {std::vector<uint64_t>{uint64_t{1} << 63},
        std::vector<uint64_t>{uint64_t{1} << 32, uint64_t{1} << 32}}) {
    std::string blob = "SDEACKP1";
    wire::Writer w(&blob);
    w.U64(1);  // entries
    w.Str64("w");
    w.U64(dims.size());  // rank
    for (uint64_t d : dims) w.U64(d);
    EXPECT_EQ(ParamsDecoder()(blob).code(), StatusCode::kInvalidArgument);
  }
}

// ---- Adam optimizer state ------------------------------------------------

TEST(NnSerializationFuzzTest, AdamStateSeededMutations) {
  Rng rng(12);
  Mlp module("m", {4, 6, 2}, Activation::kRelu, &rng);
  Adam adam(module.Parameters(), 0.01f);
  adam.Step();  // Materialize the moment slots.
  std::string blob;
  adam.SerializeState(&blob);

  auto decode = [](const std::string& b) {
    Rng r(12);
    Mlp m("m", {4, 6, 2}, Activation::kRelu, &r);
    Adam a(m.Parameters(), 0.01f);
    return a.DeserializeState(b);
  };
  EXPECT_TRUE(decode(blob).ok());
  EXPECT_EQ(decode(blob + '\0').code(), StatusCode::kInvalidArgument);

  sdea::testing::FuzzOptions options;
  options.iterations = 2000;
  sdea::testing::FuzzStats stats;
  Status verdict = sdea::testing::CheckMutationRobustness(blob, decode,
                                                          options, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  verdict = sdea::testing::CheckTruncationRobustness(blob, decode, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

}  // namespace
}  // namespace sdea::nn
