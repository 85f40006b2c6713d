#include "store/adc.h"

#include "base/check.h"
#include "tensor/kernels.h"

namespace sdea::store {
namespace {

// The scalar scans over rows [begin, n), finishing what an AVX2 kernel
// left. With Acc = double they define exact mode's contract: double
// accumulator, ascending j (or s), rounded to float once per row.
template <typename Acc>
void Int8Rows(const uint8_t* codes, int64_t begin, int64_t n, int64_t d,
              const float* q_scaled, float* out) {
  for (int64_t i = begin; i < n; ++i) {
    const uint8_t* code = codes + i * d;
    Acc acc = 0;
    for (int64_t j = 0; j < d; ++j) {
      acc += static_cast<Acc>(q_scaled[j]) *
             static_cast<Acc>(static_cast<int8_t>(code[j]));
    }
    out[i] = static_cast<float>(acc);
  }
}

template <typename Acc>
void PqRows(const uint8_t* codes, int64_t begin, int64_t n, int64_t m,
            int64_t k, const float* lut, float* out) {
  for (int64_t i = begin; i < n; ++i) {
    const uint8_t* code = codes + i * m;
    Acc acc = 0;
    for (int64_t s = 0; s < m; ++s) {
      acc += static_cast<Acc>(lut[s * k + static_cast<int64_t>(code[s])]);
    }
    out[i] = static_cast<float>(acc);
  }
}

}  // namespace

void Int8PrepareQuery(const float* q, const float* scales, int64_t d,
                      float* q_scaled) {
  for (int64_t j = 0; j < d; ++j) q_scaled[j] = q[j] * scales[j];
}

void AdcScanInt8(const uint8_t* codes, int64_t n, int64_t d,
                 const float* q_scaled, float* out) {
  const bool exact = tmath::ActiveKernelMode() == tmath::KernelMode::kExact;
  int64_t done = 0;
#ifdef SDEA_HAVE_AVX2_TU
  if (tmath::ActiveSimdLevel() == tmath::SimdLevel::kAvx2) {
    if (!exact) {
      internal::AdcScanInt8Avx2(codes, n, d, q_scaled, out);
      return;
    }
    done = internal::AdcScanInt8ExactAvx2(codes, n, d, q_scaled, out);
  }
#endif
  if (exact) {
    Int8Rows<double>(codes, done, n, d, q_scaled, out);
  } else {
    Int8Rows<float>(codes, done, n, d, q_scaled, out);
  }
}

void PqBuildLut(const float* q, const Codebook& codebook, float* lut) {
  SDEA_CHECK(codebook.kind() == Quantization::kPq);
  const int64_t m = codebook.pq_subspaces();
  const int64_t k = codebook.pq_centroids();
  const int64_t sub = codebook.pq_subdim();
  // One Gemv per subspace: centroid block s is a [k, sub] row-major
  // matrix, scored against the query's s-th subvector. Gemv dispatches on
  // the active kernel mode, so the LUT (and with it every ADC score) is
  // exact-mode reproducible.
  for (int64_t s = 0; s < m; ++s) {
    tmath::kernels::Gemv(codebook.centroids().data() + s * k * sub, k, sub,
                         q + s * sub, lut + s * k);
  }
}

void AdcScanPq(const uint8_t* codes, int64_t n, int64_t m, int64_t k,
               const float* lut, float* out) {
  const bool exact = tmath::ActiveKernelMode() == tmath::KernelMode::kExact;
  int64_t done = 0;
#ifdef SDEA_HAVE_AVX2_TU
  if (tmath::ActiveSimdLevel() == tmath::SimdLevel::kAvx2) {
    done = exact ? internal::AdcScanPqExactAvx2(codes, n, m, k, lut, out)
                 : internal::AdcScanPqAvx2(codes, n, m, k, lut, out);
  }
#endif
  if (exact) {
    PqRows<double>(codes, done, n, m, k, lut, out);
  } else {
    PqRows<float>(codes, done, n, m, k, lut, out);
  }
}

}  // namespace sdea::store
