// Contract tests for the kernel dispatch layer: exact mode must reproduce
// the PR-1 double-accumulation semantics bitwise, fast mode must stay
// within tolerance of exact mode (scalar and AVX2) while remaining
// deterministic across thread counts, and every ranking site's ScoreDot
// must agree bitwise with the MatmulTransposeB score matrix in BOTH modes.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "base/threadpool.h"
#include "tensor/tensor.h"

namespace sdea {
namespace {

using tmath::KernelMode;
using tmath::SimdLevel;

// RAII mode/level pinning so a failing test can't leak configuration into
// the rest of the binary.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode)
      : saved_(tmath::ActiveKernelMode()) {
    tmath::SetKernelMode(mode);
  }
  ~ScopedKernelMode() { tmath::SetKernelMode(saved_); }

 private:
  KernelMode saved_;
};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : saved_(tmath::ActiveSimdLevel()) {
    tmath::SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { tmath::SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

// Largest |a-b| / (|b| + 1) over all elements: relative where values are
// large, absolute near zero.
double MaxRelError(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double diff = std::fabs(static_cast<double>(a[i]) - b[i]);
    const double scale = std::fabs(static_cast<double>(b[i])) + 1.0;
    worst = std::max(worst, diff / scale);
  }
  return worst;
}

// FNV-1a over the raw float bits — the same golden-hash scheme the
// training goldens use. Equal hashes == bitwise-equal tensors.
uint64_t FnvHash(const Tensor& t) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (size_t i = 0; i < static_cast<size_t>(t.size()) * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct MatmulCase {
  Tensor a, b, bt, at;
};

MatmulCase MakeCase(int64_t m, int64_t k, int64_t n, uint64_t seed) {
  Rng rng(seed);
  MatmulCase c;
  c.a = Tensor::RandomNormal({m, k}, 1.0f, &rng);
  c.b = Tensor::RandomNormal({k, n}, 1.0f, &rng);
  c.bt = tmath::Transpose(c.b);  // [n, k] for MatmulTransposeB.
  c.at = tmath::Transpose(c.a);  // [k, m] for MatmulTransposeA.
  return c;
}

// The exact contract, restated independently in the test: per-element
// double accumulation, ascending k, rounded once. Exact mode must match
// this bitwise forever — it IS the serial==parallel golden path.
Tensor ReferenceMatmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        s += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

TEST(KernelsTest, ExactModeMatchesReferenceBitwise) {
  ScopedKernelMode mode(KernelMode::kExact);
  const MatmulCase c = MakeCase(23, 37, 19, 5);
  const Tensor want = ReferenceMatmul(c.a, c.b);
  ExpectBitwiseEqual(tmath::Matmul(c.a, c.b), want);
  ExpectBitwiseEqual(tmath::MatmulTransposeB(c.a, c.bt), want);
  ExpectBitwiseEqual(tmath::MatmulTransposeA(c.at, c.b), want);
}

TEST(KernelsTest, FastModeWithinToleranceOfExact) {
  const MatmulCase c = MakeCase(31, 512, 17, 6);
  Tensor exact, exact_tb, exact_ta;
  {
    ScopedKernelMode mode(KernelMode::kExact);
    exact = tmath::Matmul(c.a, c.b);
    exact_tb = tmath::MatmulTransposeB(c.a, c.bt);
    exact_ta = tmath::MatmulTransposeA(c.at, c.b);
  }
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (level == SimdLevel::kAvx2 && !tmath::Avx2Supported()) continue;
    ScopedKernelMode mode(KernelMode::kFast);
    ScopedSimdLevel simd(level);
    // Float accumulation over k=512 terms: worst-case ~k*eps relative,
    // in practice far below this bound for N(0,1) data.
    const double kTol = 1e-4;
    EXPECT_LT(MaxRelError(tmath::Matmul(c.a, c.b), exact), kTol)
        << tmath::SimdLevelName(level);
    EXPECT_LT(MaxRelError(tmath::MatmulTransposeB(c.a, c.bt), exact_tb), kTol)
        << tmath::SimdLevelName(level);
    EXPECT_LT(MaxRelError(tmath::MatmulTransposeA(c.at, c.b), exact_ta), kTol)
        << tmath::SimdLevelName(level);
  }
}

TEST(KernelsTest, FastModeGoldenHashStableAcrossRunsAndThreads) {
  // Fast mode gives up cross-mode bitwise equality, NOT determinism: for a
  // fixed SimdLevel the golden hash must be identical run-to-run and for
  // every thread count.
  const MatmulCase c = MakeCase(65, 128, 43, 7);
  ScopedKernelMode mode(KernelMode::kFast);
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (level == SimdLevel::kAvx2 && !tmath::Avx2Supported()) continue;
    ScopedSimdLevel simd(level);
    base::ThreadPool::SetGlobalNumThreads(1);
    const uint64_t serial = FnvHash(tmath::Matmul(c.a, c.b));
    const uint64_t serial_tb = FnvHash(tmath::MatmulTransposeB(c.a, c.bt));
    base::ThreadPool::SetGlobalNumThreads(8);
    const uint64_t parallel = FnvHash(tmath::Matmul(c.a, c.b));
    const uint64_t parallel_tb = FnvHash(tmath::MatmulTransposeB(c.a, c.bt));
    base::ThreadPool::SetGlobalNumThreads(
        base::ThreadPool::DefaultNumThreads());
    EXPECT_EQ(serial, parallel) << tmath::SimdLevelName(level);
    EXPECT_EQ(serial_tb, parallel_tb) << tmath::SimdLevelName(level);
    // And rerunning reproduces the same bits.
    EXPECT_EQ(serial, FnvHash(tmath::Matmul(c.a, c.b)));
  }
}

TEST(KernelsTest, GemvMatchesPerRowDots) {
  Rng rng(11);
  const int64_t m = 53, d = 512;
  const Tensor rows = Tensor::RandomNormal({m, d}, 1.0f, &rng);
  const Tensor x = Tensor::RandomNormal({d}, 1.0f, &rng);
  std::vector<float> y(static_cast<size_t>(m));
  tmath::kernels::GemvExact(rows.data(), m, d, x.data(), y.data());
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(y[static_cast<size_t>(i)],
              static_cast<float>(
                  tmath::kernels::DotExact(rows.data() + i * d, x.data(), d)));
  }
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (level == SimdLevel::kAvx2 && !tmath::Avx2Supported()) continue;
    ScopedSimdLevel simd(level);
    std::vector<float> yf(static_cast<size_t>(m));
    tmath::kernels::GemvFast(rows.data(), m, d, x.data(), yf.data());
    for (int64_t i = 0; i < m; ++i) {
      EXPECT_NEAR(yf[static_cast<size_t>(i)], y[static_cast<size_t>(i)],
                  1e-3)
          << tmath::SimdLevelName(level);
    }
  }
}

TEST(KernelsTest, ScoreDotAgreesWithScoreMatrixInBothModes) {
  // The cross-site ranking contract: a candidate scored one-at-a-time via
  // ScoreDot must get the exact bits the MatmulTransposeB score matrix
  // holds, in exact AND fast mode — otherwise candidate generation and the
  // pipeline can rank near-ties differently.
  Rng rng(13);
  const int64_t n = 9, m = 21, d = 100;  // d not a multiple of 8 or 32.
  const Tensor src = Tensor::RandomNormal({n, d}, 1.0f, &rng);
  const Tensor tgt = Tensor::RandomNormal({m, d}, 1.0f, &rng);
  for (const KernelMode mode : {KernelMode::kExact, KernelMode::kFast}) {
    ScopedKernelMode scoped(mode);
    const Tensor scores = tmath::MatmulTransposeB(src, tgt);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        const float one = tmath::kernels::ScoreDot(src.data() + i * d,
                                                   tgt.data() + j * d, d);
        EXPECT_EQ(one, scores[i * m + j])
            << tmath::KernelModeName(mode) << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(KernelsTest, NanAndInfPropagateInBothModes) {
  // The no-term-skipped rule: a NaN/Inf anywhere in the operands reaches
  // the output in every mode and at every SIMD level.
  Tensor a({2, 40}, 1.0f);
  Tensor b({3, 40}, 0.5f);
  a[7] = std::numeric_limits<float>::quiet_NaN();
  b[40 + 3] = std::numeric_limits<float>::infinity();
  for (const KernelMode mode : {KernelMode::kExact, KernelMode::kFast}) {
    ScopedKernelMode scoped(mode);
    const Tensor c = tmath::MatmulTransposeB(a, b);
    EXPECT_TRUE(std::isnan(c[0 * 3 + 0])) << tmath::KernelModeName(mode);
    EXPECT_TRUE(std::isnan(c[0 * 3 + 1])) << tmath::KernelModeName(mode);
    EXPECT_TRUE(std::isinf(c[1 * 3 + 1])) << tmath::KernelModeName(mode);
  }
}

// Same bits, or both NaN: NaN payloads and signs are not part of the
// exact contract (which NaN an add returns depends on operand order).
bool SameBitsOrBothNan(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

void ExpectSameBitsOrBothNan(const Tensor& got, const Tensor& want,
                             const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  int64_t bad = 0;
  for (int64_t i = 0; i < got.size(); ++i) {
    if (!SameBitsOrBothNan(got[i], want[i]) && bad++ < 3) {
      ADD_FAILURE() << what << " element " << i << ": " << got[i]
                    << " != " << want[i];
    }
  }
  EXPECT_EQ(bad, 0) << what;
}

// Operands for one exact-kernel case. With `specials`, a sprinkling of
// NaN, +-Inf and -0.0 replaces random entries of both operands.
MatmulCase MakeSpecialCase(int64_t m, int64_t k, int64_t n, uint64_t seed,
                           bool specials) {
  MatmulCase c = MakeCase(m, k, n, seed);
  if (specials) {
    Rng rng(seed ^ 0x5bd1e995ULL);
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f};
    for (Tensor* t : {&c.a, &c.b}) {
      for (int64_t i = 0; i < t->size(); ++i) {
        if (rng.UniformInt(16) == 0) (*t)[i] = kSpecial[rng.UniformInt(4)];
      }
    }
    c.bt = tmath::Transpose(c.b);
    c.at = tmath::Transpose(c.a);
  }
  return c;
}

// The three exact products of one case at the active level and pool.
std::vector<Tensor> ExactProducts(const MatmulCase& c) {
  return {tmath::Matmul(c.a, c.b), tmath::MatmulTransposeA(c.at, c.b),
          tmath::MatmulTransposeB(c.a, c.bt)};
}

TEST(KernelsTest, ExactAvx2MatchesExactScalarBitwise) {
  // The AVX2 exact kernels run each output element through the scalar
  // exact kernel's operation sequence, so both levels must agree bit for
  // bit on every shape, on every special value and at every thread count.
  // The zoo covers n mod 16 and n mod 4 tails (the packed ragged block),
  // k in {0, 1}, m = 1, the strided MatmulTransposeA path and the packed
  // MatmulTransposeB path; the large cases are sharded by the 4-thread
  // pool.
  if (!tmath::Avx2Supported()) GTEST_SKIP() << "AVX2+FMA unavailable";
  ScopedKernelMode mode(KernelMode::kExact);
  struct Shape {
    int64_t m, k, n;
  };
  std::vector<Shape> zoo;
  for (int64_t n : {1, 2, 3, 4, 5, 7, 8, 12, 13, 15, 16, 17, 19, 20, 31, 32,
                    33, 47, 48, 64, 65}) {
    for (int64_t k : {0, 1, 2, 7, 32, 33}) {
      for (int64_t m : {1, 2, 3, 5}) zoo.push_back({m, k, n});
    }
  }
  zoo.push_back({32, 32, 64});   // Transformer feed-forward shape.
  zoo.push_back({1, 32, 32});    // One GRU step.
  zoo.push_back({300, 33, 37});  // Sharded across the pool.
  zoo.push_back({1, 64, 1000});  // One query against many rows.
  zoo.push_back({257, 64, 203});
  const char* kOps[] = {"Matmul", "MatmulTransposeA", "MatmulTransposeB"};
  uint64_t seed = 100;
  for (const Shape& s : zoo) {
    for (bool specials : {false, true}) {
      const MatmulCase c = MakeSpecialCase(s.m, s.k, s.n, ++seed, specials);
      std::vector<Tensor> want;
      {
        ScopedSimdLevel simd(SimdLevel::kScalar);
        base::ThreadPool::SetGlobalNumThreads(1);
        want = ExactProducts(c);
      }
      for (int threads : {1, 4}) {
        ScopedSimdLevel simd(SimdLevel::kAvx2);
        base::ThreadPool::SetGlobalNumThreads(threads);
        const std::vector<Tensor> got = ExactProducts(c);
        for (size_t op = 0; op < got.size(); ++op) {
          ExpectSameBitsOrBothNan(
              got[op], want[op],
              std::string(kOps[op]) + " m=" + std::to_string(s.m) +
                  " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n) +
                  " specials=" + std::to_string(specials) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
  base::ThreadPool::SetGlobalNumThreads(base::ThreadPool::DefaultNumThreads());
}

TEST(KernelsTest, DispatchReportsAndPinsLevels) {
  EXPECT_STREQ(tmath::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(tmath::SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(tmath::KernelModeName(KernelMode::kExact), "exact");
  EXPECT_STREQ(tmath::KernelModeName(KernelMode::kFast), "fast");
  // Scalar can always be pinned, whatever the hardware.
  ScopedSimdLevel simd(SimdLevel::kScalar);
  EXPECT_EQ(tmath::ActiveSimdLevel(), SimdLevel::kScalar);
  if (tmath::Avx2Supported()) {
    tmath::SetSimdLevel(SimdLevel::kAvx2);
    EXPECT_EQ(tmath::ActiveSimdLevel(), SimdLevel::kAvx2);
  }
  // Supported() implies CompiledIn().
  EXPECT_TRUE(!tmath::Avx2Supported() || tmath::Avx2CompiledIn());
}

}  // namespace
}  // namespace sdea
