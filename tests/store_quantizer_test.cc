// Codebook training, encoding, and ADC scoring: the quantization error
// bounds the satellite tests document, bitwise determinism across thread
// counts (golden FNV over the codebook bytes), and the blob round trip.
#include "store/quantizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/threadpool.h"
#include "store/adc.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace sdea::store {
namespace {

using tmath::KernelMode;
using tmath::SimdLevel;

// Pins the kernel mode and SIMD level for one scope.
class ScopedVariant {
 public:
  ScopedVariant(KernelMode mode, SimdLevel level)
      : saved_mode_(tmath::ActiveKernelMode()),
        saved_level_(tmath::ActiveSimdLevel()) {
    tmath::SetKernelMode(mode);
    tmath::SetSimdLevel(level);
  }
  ~ScopedVariant() {
    tmath::SetKernelMode(saved_mode_);
    tmath::SetSimdLevel(saved_level_);
  }

 private:
  KernelMode saved_mode_;
  SimdLevel saved_level_;
};

Tensor RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Tensor t({n, d});
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  tmath::L2NormalizeRowsInPlace(&t);
  return t;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(QuantizerTest, Int8AdcScoreTracksExactDot) {
  const int64_t n = 200, d = 64;
  const Tensor rows = RandomRows(n, d, 11);
  const Codebook cb = Codebook::TrainInt8(rows);
  ASSERT_EQ(cb.code_bytes(), d);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);

  const Tensor q = RandomRows(1, d, 99);
  std::vector<float> q_scaled(static_cast<size_t>(d));
  Int8PrepareQuery(q.data(), cb.scales().data(), d, q_scaled.data());
  std::vector<float> adc(static_cast<size_t>(n));
  AdcScanInt8(codes.data(), n, d, q_scaled.data(), adc.data());

  // The documented int8 tolerance: each component is off by at most half
  // an LSB (scale/2 <= 1/254 for unit rows), so the dot with a unit query
  // is off by at most sum_j |q_j| * scale_j / 2 <= sqrt(d)/254.
  const double tol = std::sqrt(static_cast<double>(d)) / 254.0;
  for (int64_t i = 0; i < n; ++i) {
    const float exact = tmath::kernels::ScoreDot(
        q.data(), rows.data() + i * d, d);
    EXPECT_NEAR(adc[static_cast<size_t>(i)], exact, tol) << "row " << i;
  }
}

TEST(QuantizerTest, Int8AdcEqualsDotWithDequantizedRow) {
  // ADC's guarantee: the score is the dot with the *dequantized* row (the
  // scale folds onto the query side), so ADC ranks exactly what a
  // decode-then-score pipeline would rank, without decoding.
  const int64_t n = 50, d = 32;
  const Tensor rows = RandomRows(n, d, 7);
  const Codebook cb = Codebook::TrainInt8(rows);
  const std::vector<uint8_t> codes = cb.EncodeRows(rows.data(), n);
  const Tensor q = RandomRows(1, d, 3);

  std::vector<float> q_scaled(static_cast<size_t>(d));
  Int8PrepareQuery(q.data(), cb.scales().data(), d, q_scaled.data());
  std::vector<float> adc(static_cast<size_t>(n));
  AdcScanInt8(codes.data(), n, d, q_scaled.data(), adc.data());

  std::vector<float> dequant(static_cast<size_t>(d));
  for (int64_t i = 0; i < n; ++i) {
    cb.DecodeRow(codes.data() + i * d, dequant.data());
    const float direct =
        tmath::kernels::ScoreDot(q.data(), dequant.data(), d);
    // Not bitwise (q*scale vs scale*code round differently) but within a
    // few ulps of each other, far inside the ranking tolerance.
    EXPECT_NEAR(adc[static_cast<size_t>(i)], direct, 1e-5f) << "row " << i;
  }
}

TEST(QuantizerTest, PqAdcScoreTracksExactDot) {
  const int64_t n = 300, d = 64;
  const Tensor rows = RandomRows(n, d, 21);
  PqOptions options;
  options.num_subspaces = 8;
  options.num_centroids = 64;
  auto cb = Codebook::TrainPq(rows, options);
  ASSERT_TRUE(cb.ok());
  ASSERT_EQ(cb->code_bytes(), 8);
  const std::vector<uint8_t> codes = cb->EncodeRows(rows.data(), n);

  const Tensor q = RandomRows(1, d, 5);
  std::vector<float> lut(
      static_cast<size_t>(cb->pq_subspaces() * cb->pq_centroids()));
  PqBuildLut(q.data(), *cb, lut.data());
  std::vector<float> adc(static_cast<size_t>(n));
  AdcScanPq(codes.data(), n, cb->pq_subspaces(), cb->pq_centroids(),
            lut.data(), adc.data());

  // PQ is lossier than int8; this pins a loose absolute bound and, more
  // importantly, that ADC == dot(q, reconstructed row) almost exactly.
  std::vector<float> dequant(static_cast<size_t>(d));
  for (int64_t i = 0; i < n; ++i) {
    cb->DecodeRow(codes.data() + i * cb->code_bytes(), dequant.data());
    const float recon =
        tmath::kernels::ScoreDot(q.data(), dequant.data(), d);
    EXPECT_NEAR(adc[static_cast<size_t>(i)], recon, 1e-4f) << "row " << i;
    const float exact =
        tmath::kernels::ScoreDot(q.data(), rows.data() + i * d, d);
    EXPECT_NEAR(adc[static_cast<size_t>(i)], exact, 0.5f) << "row " << i;
  }
}

// ---- ADC scans at both SIMD levels ----------------------------------------

bool SameBitsOrBothNan(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// Query (or LUT) flavours for the bitwise zoo: plain values; plain values
// with a sprinkling of +-0, +-Inf and NaN; 1e30-scale values; denormals;
// and plain values between a +2^40 and a -2^40 term that cancel exactly.
// Every int8 product and every widened LUT float is exact in double, and
// a row's sum of plain terms rounds far below float precision, so only
// the cancelling flavour makes a summation order show in the float
// result: the plain terms are rounded onto the 2^40 term's grid, and
// which of them are depends on the order.
enum class Flavour { kPlain, kSpecials, kHuge, kDenormal, kCancel };
constexpr Flavour kFlavours[] = {Flavour::kPlain, Flavour::kSpecials,
                                 Flavour::kHuge, Flavour::kDenormal,
                                 Flavour::kCancel};
constexpr float kCancelTerm = 1099511627776.0f;  // 2^40.

std::vector<float> ZooFloats(int64_t count, Flavour flavour, uint64_t seed) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kSpecial[] = {0.0f, -0.0f, kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN()};
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) {
    x = rng.UniformFloat(-1.0f, 1.0f);
    switch (flavour) {
      case Flavour::kPlain:
      case Flavour::kCancel:
        break;
      case Flavour::kSpecials:
        if (rng.UniformInt(8) == 0) x = kSpecial[rng.UniformInt(5)];
        break;
      case Flavour::kHuge:
        x *= 3e30f;
        break;
      case Flavour::kDenormal:
        x *= 1e-39f;
        break;
    }
  }
  return v;
}

// Random code bytes, a quarter of them at 0x80, 0x7f or 0x00 (int8 -128,
// 127 and 0).
std::vector<uint8_t> ZooCodes(int64_t count, uint64_t seed) {
  const uint8_t kEdge[] = {0x80, 0x7f, 0x00};
  Rng rng(seed);
  std::vector<uint8_t> v(static_cast<size_t>(count));
  for (uint8_t& c : v) {
    c = rng.UniformInt(4) == 0 ? kEdge[rng.UniformInt(3)]
                               : static_cast<uint8_t>(rng.UniformInt(256));
  }
  return v;
}

// Row counts around the AVX2 scans' eight-row groups, plus the empty and
// one-row scans.
constexpr int64_t kZooRows[] = {0, 1, 3, 4, 5, 7, 9, 15, 17, 21, 23, 67};
constexpr int64_t kZooWidths[] = {1, 7, 8, 9, 31, 32, 33, 128};

enum class Scan { kInt8, kPq };

// Scores every zoo case at `mode` with the scalar and the AVX2 level and
// expects the same bits (NaN compared as NaN-ness). For PQ the width is
// the subspace count m and the LUT has k = 256 entries per subspace.
void ExpectAvx2MatchesScalarBitwise(Scan scan, KernelMode mode) {
  constexpr int64_t kPqCentroids = 256;
  uint64_t seed = 500;
  for (const int64_t width : kZooWidths) {
    for (const int64_t n : kZooRows) {
      for (const Flavour flavour : kFlavours) {
        std::vector<uint8_t> codes = ZooCodes(n * width, ++seed);
        const int64_t table =
            scan == Scan::kInt8 ? width : width * kPqCentroids;
        std::vector<float> q = ZooFloats(table, flavour, ++seed);
        if (flavour == Flavour::kCancel && width >= 2) {
          // +2^40 scores first and -2^40 last in every row: the int8 query
          // weights columns 0 and width-1 by them and each row repeats its
          // first code last; the PQ table gives them to every centroid of
          // the first and the last subspace.
          const int64_t k = scan == Scan::kInt8 ? 1 : kPqCentroids;
          std::fill(q.begin(), q.begin() + k, kCancelTerm);
          std::fill(q.end() - k, q.end(), -kCancelTerm);
          if (scan == Scan::kInt8) {
            for (int64_t i = 0; i < n; ++i) {
              codes[static_cast<size_t>(i * width + width - 1)] =
                  codes[static_cast<size_t>(i * width)];
            }
          }
        }
        std::vector<float> want(static_cast<size_t>(n));
        std::vector<float> got(static_cast<size_t>(n));
        for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
          ScopedVariant variant(mode, level);
          float* out = level == SimdLevel::kScalar ? want.data() : got.data();
          if (scan == Scan::kInt8) {
            AdcScanInt8(codes.data(), n, width, q.data(), out);
          } else {
            AdcScanPq(codes.data(), n, width, kPqCentroids, q.data(), out);
          }
        }
        int64_t bad = 0;
        for (int64_t i = 0; i < n; ++i) {
          const size_t r = static_cast<size_t>(i);
          if (!SameBitsOrBothNan(got[r], want[r]) && bad++ < 3) {
            ADD_FAILURE() << (scan == Scan::kInt8 ? "int8" : "pq")
                          << " width=" << width << " n=" << n
                          << " flavour=" << static_cast<int>(flavour)
                          << " row " << i << ": avx2 " << got[r]
                          << " != scalar " << want[r];
          }
        }
      }
    }
  }
}

TEST(QuantizerTest, ExactAvx2AdcMatchesExactScalarBitwise) {
  // Exact mode's AVX2 scans give each row its own double lane and the
  // scalar loop's operation sequence, so both levels agree bit for bit
  // on every width, every ragged row count and every special value.
  if (!tmath::Avx2Supported()) GTEST_SKIP() << "AVX2+FMA unavailable";
  ExpectAvx2MatchesScalarBitwise(Scan::kInt8, KernelMode::kExact);
  ExpectAvx2MatchesScalarBitwise(Scan::kPq, KernelMode::kExact);
}

TEST(QuantizerTest, PqFastAvx2MatchesFastScalarBitwise) {
  // The fast PQ scan adds each row's LUT floats in ascending s at both
  // levels (one lane per row at AVX2), so it is bitwise level-independent
  // too; the fast int8 scan is not (its AVX2 reduction tree differs).
  if (!tmath::Avx2Supported()) GTEST_SKIP() << "AVX2+FMA unavailable";
  ExpectAvx2MatchesScalarBitwise(Scan::kPq, KernelMode::kFast);
}

TEST(QuantizerTest, CodebookBytesIdenticalAcrossThreadCounts) {
  // The satellite determinism contract: training and encoding shard rows
  // across threads but every tie breaks structurally, so the codebook
  // blob and the codes are byte-identical for any pool size. FNV-1a over
  // the bytes makes a drift show up as one number.
  const Tensor rows = RandomRows(500, 32, 33);
  PqOptions options;
  options.num_subspaces = 4;
  options.num_centroids = 32;

  uint64_t int8_hash = 0, pq_hash = 0, codes_hash = 0;
  for (int threads : {1, 2, 8}) {
    base::ThreadPool::SetGlobalNumThreads(threads);
    const Codebook int8 = Codebook::TrainInt8(rows);
    auto pq = Codebook::TrainPq(rows, options);
    ASSERT_TRUE(pq.ok());
    const std::vector<uint8_t> codes = pq->EncodeRows(rows.data(), 500);
    const uint64_t h1 = Fnv1a(int8.Encode());
    const uint64_t h2 = Fnv1a(pq->Encode());
    const uint64_t h3 = Fnv1a(std::string(codes.begin(), codes.end()));
    if (threads == 1) {
      int8_hash = h1;
      pq_hash = h2;
      codes_hash = h3;
    } else {
      EXPECT_EQ(h1, int8_hash) << threads << " threads";
      EXPECT_EQ(h2, pq_hash) << threads << " threads";
      EXPECT_EQ(h3, codes_hash) << threads << " threads";
    }
  }
  base::ThreadPool::SetGlobalNumThreads(base::ThreadPool::DefaultNumThreads());
}

TEST(QuantizerTest, CodebookBlobRoundTripsBitwise) {
  const Tensor rows = RandomRows(100, 16, 44);
  const Codebook int8 = Codebook::TrainInt8(rows);
  auto decoded = Codebook::Decode(int8.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Encode(), int8.Encode());
  EXPECT_EQ(decoded->kind(), Quantization::kInt8);
  EXPECT_EQ(decoded->dim(), 16);

  PqOptions options;
  options.num_subspaces = 4;
  options.num_centroids = 16;
  auto pq = Codebook::TrainPq(rows, options);
  ASSERT_TRUE(pq.ok());
  auto pq_decoded = Codebook::Decode(pq->Encode());
  ASSERT_TRUE(pq_decoded.ok());
  EXPECT_EQ(pq_decoded->Encode(), pq->Encode());
  EXPECT_EQ(pq_decoded->pq_subspaces(), 4);
  EXPECT_EQ(pq_decoded->pq_centroids(), 16);
}

TEST(QuantizerTest, TrainPqRejectsBadGeometry) {
  const Tensor rows = RandomRows(10, 12, 1);
  PqOptions options;
  options.num_subspaces = 5;  // 12 % 5 != 0.
  EXPECT_FALSE(Codebook::TrainPq(rows, options).ok());
  options.num_subspaces = 4;
  options.num_centroids = 300;  // Codes are u8.
  EXPECT_FALSE(Codebook::TrainPq(rows, options).ok());
  options.num_centroids = 16;
  EXPECT_FALSE(Codebook::TrainPq(Tensor({0, 12}), options).ok());
}

TEST(QuantizerTest, CentroidCountClampsToSample) {
  // 10 rows but 64 requested centroids: k clamps to the sample size and
  // the codes stay within it.
  const Tensor rows = RandomRows(10, 8, 2);
  PqOptions options;
  options.num_subspaces = 2;
  options.num_centroids = 64;
  auto cb = Codebook::TrainPq(rows, options);
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(cb->pq_centroids(), 10);
  const std::vector<uint8_t> codes = cb->EncodeRows(rows.data(), 10);
  for (uint8_t c : codes) EXPECT_LT(c, 10);
}

TEST(QuantizerTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Codebook::Decode("").ok());
  EXPECT_FALSE(Codebook::Decode("SDEACBK1").ok());
  EXPECT_FALSE(Codebook::Decode(std::string(64, '\xff')).ok());
}

}  // namespace
}  // namespace sdea::store
