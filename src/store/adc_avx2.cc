// The store's only translation unit compiled with -mavx2 -mfma (see
// src/store/CMakeLists.txt), mirroring src/tensor/kernels_avx2.cc: nothing
// here runs unless runtime dispatch in adc.cc confirmed AVX2+FMA via
// tmath::ActiveSimdLevel(), so the intrinsics are used unconditionally.
//
// Exact mode: both scans vectorize ACROSS rows, never across j or s. Each
// __m256d lane is one row's double accumulator; the int8 scan sign-extends
// and transposes a block of rows so that one j is one cvtepi32_pd, one
// _mm256_mul_pd and one _mm256_add_pd, in ascending j; the PQ scan gathers
// the LUT floats of eight rows, widens them with cvtps_pd and adds in
// ascending s. Every row therefore sees the scalar exact loop's operation
// sequence, rounded once by cvtpd_ps, and the results are bitwise equal at
// both SIMD levels. The exact kernels cover whole groups of eight rows
// and return how many rows they wrote; adc.cc runs the ragged tail
// through the scalar loop. This TU is compiled with -ffp-contract=off so
// the compiler never fuses the exact multiply and add.
//
// Fast mode: the int8 scan reduces each row 32 codes/step across four FMA
// accumulators (the DotFastAvx2 tree), so fast-AVX2 differs from
// fast-scalar in the last ulps; its scalar j tail calls std::fma
// explicitly so it stays fused under -ffp-contract=off. The PQ scan uses
// the across-rows layout above in float — one lane per row, subspaces
// ascending per lane — so it is bitwise identical to the scalar fast path.
#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace sdea::store::internal {
namespace {

// Sums the 8 lanes pairwise; same fixed combine order as the tensor TU.
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

// 8 sign-extended int8 codes -> 8 int32.
inline __m256i LoadCodes8Epi32(const uint8_t* p) {
  return _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

// 8 sign-extended int8 codes -> 8 floats.
inline __m256 LoadCodes8(const uint8_t* p) {
  return _mm256_cvtepi32_ps(LoadCodes8Epi32(p));
}

// The exact int8 scan works on groups of two four-row blocks, each block
// one __m256d of row accumulators: the two independent add chains hide
// the add latency of each row's serial sum.
constexpr int kInt8Blocks = 2;
constexpr int64_t kInt8Rows = 4 * kInt8Blocks;

// Loads codes [j, j+8) of four rows `ld` bytes apart, sign-extended and
// transposed: cols[t] holds rows 0-3 of column j+t in its low 128 bits and
// of column j+t+4 in its high 128 bits, as int32.
inline void LoadTransposed4x8(const uint8_t* p, int64_t ld, __m256i cols[4]) {
  const __m256i r0 = LoadCodes8Epi32(p);
  const __m256i r1 = LoadCodes8Epi32(p + ld);
  const __m256i r2 = LoadCodes8Epi32(p + 2 * ld);
  const __m256i r3 = LoadCodes8Epi32(p + 3 * ld);
  const __m256i t0 = _mm256_unpacklo_epi32(r0, r1);  // j0 j1 | j4 j5
  const __m256i t1 = _mm256_unpackhi_epi32(r0, r1);  // j2 j3 | j6 j7
  const __m256i t2 = _mm256_unpacklo_epi32(r2, r3);
  const __m256i t3 = _mm256_unpackhi_epi32(r2, r3);
  cols[0] = _mm256_unpacklo_epi64(t0, t2);
  cols[1] = _mm256_unpackhi_epi64(t0, t2);
  cols[2] = _mm256_unpacklo_epi64(t1, t3);
  cols[3] = _mm256_unpackhi_epi64(t1, t3);
}

// acc += q * codes, one product and one sum per lane: the scalar exact
// loop's `acc += double(q[j]) * double(code[j])` for four rows at once.
inline __m256d MulAdd(__m256d acc, const double* q, __m128i codes) {
  return _mm256_add_pd(
      acc, _mm256_mul_pd(_mm256_broadcast_sd(q), _mm256_cvtepi32_pd(codes)));
}

// out[r] for the kInt8Rows rows starting at codes, each block of four
// rows `d` bytes apart. qd is the query widened to double.
void Int8ExactGroup(const uint8_t* codes, int64_t d, const double* qd,
                    float* out) {
  __m256d acc[kInt8Blocks];
  for (int b = 0; b < kInt8Blocks; ++b) acc[b] = _mm256_setzero_pd();
  int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    __m256i cols[kInt8Blocks][4];
    for (int b = 0; b < kInt8Blocks; ++b) {
      LoadTransposed4x8(codes + b * 4 * d + j, d, cols[b]);
    }
    for (int t = 0; t < 4; ++t) {
      for (int b = 0; b < kInt8Blocks; ++b) {
        acc[b] = MulAdd(acc[b], qd + j + t,
                        _mm256_castsi256_si128(cols[b][t]));
      }
    }
    for (int t = 0; t < 4; ++t) {
      for (int b = 0; b < kInt8Blocks; ++b) {
        acc[b] = MulAdd(acc[b], qd + j + 4 + t,
                        _mm256_extracti128_si256(cols[b][t], 1));
      }
    }
  }
  for (; j < d; ++j) {
    for (int b = 0; b < kInt8Blocks; ++b) {
      const uint8_t* c = codes + b * 4 * d + j;
      const __m128i col = _mm_set_epi32(
          static_cast<int8_t>(c[3 * d]), static_cast<int8_t>(c[2 * d]),
          static_cast<int8_t>(c[d]), static_cast<int8_t>(c[0]));
      acc[b] = MulAdd(acc[b], qd + j, col);
    }
  }
  for (int b = 0; b < kInt8Blocks; ++b) {
    _mm_storeu_ps(out + 4 * b, _mm256_cvtpd_ps(acc[b]));
  }
}

// The query widened to double once per scan, so each j is a broadcast load.
const double* WidenQuery(const float* q, int64_t d) {
  thread_local std::vector<double> qd;
  if (static_cast<int64_t>(qd.size()) < d) qd.resize(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) qd[static_cast<size_t>(j)] = q[j];
  return qd.data();
}

// Codes of 8 consecutive rows at one subspace sit m bytes apart; a vector
// load can't reach them, so the LUT indices are composed scalar-side.
inline __m256i PqIndices8(const uint8_t* c, int64_t m) {
  return _mm256_set_epi32(
      static_cast<int>(c[7 * m]), static_cast<int>(c[6 * m]),
      static_cast<int>(c[5 * m]), static_cast<int>(c[4 * m]),
      static_cast<int>(c[3 * m]), static_cast<int>(c[2 * m]),
      static_cast<int>(c[1 * m]), static_cast<int>(c[0 * m]));
}

}  // namespace

int64_t AdcScanInt8ExactAvx2(const uint8_t* codes, int64_t n, int64_t d,
                             const float* q_scaled, float* out) {
  const double* qd = WidenQuery(q_scaled, d);
  int64_t i = 0;
  for (; i + kInt8Rows <= n; i += kInt8Rows) {
    Int8ExactGroup(codes + i * d, d, qd, out + i);
  }
  return i;
}

void AdcScanInt8Avx2(const uint8_t* codes, int64_t n, int64_t d,
                     const float* q_scaled, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + i * d;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 32 <= d; j += 32) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q_scaled + j),
                             LoadCodes8(code + j), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q_scaled + j + 8),
                             LoadCodes8(code + j + 8), acc1);
      acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(q_scaled + j + 16),
                             LoadCodes8(code + j + 16), acc2);
      acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(q_scaled + j + 24),
                             LoadCodes8(code + j + 24), acc3);
    }
    for (; j + 8 <= d; j += 8) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q_scaled + j),
                             LoadCodes8(code + j), acc0);
    }
    float total = HorizontalSum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                              _mm256_add_ps(acc2, acc3)));
    for (; j < d; ++j) {
      total = std::fma(
          q_scaled[j], static_cast<float>(static_cast<int8_t>(code[j])),
          total);
    }
    out[i] = total;
  }
}

int64_t AdcScanPqExactAvx2(const uint8_t* codes, int64_t n, int64_t m,
                           int64_t k, const float* lut, float* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d lo = _mm256_setzero_pd();
    __m256d hi = _mm256_setzero_pd();
    for (int64_t s = 0; s < m; ++s) {
      const __m256 g = _mm256_i32gather_ps(
          lut + s * k, PqIndices8(codes + i * m + s, m), 4);
      lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(g)));
      hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(g, 1)));
    }
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(lo));
    _mm_storeu_ps(out + i + 4, _mm256_cvtpd_ps(hi));
  }
  return i;
}

int64_t AdcScanPqAvx2(const uint8_t* codes, int64_t n, int64_t m, int64_t k,
                      const float* lut, float* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int64_t s = 0; s < m; ++s) {
      acc = _mm256_add_ps(
          acc, _mm256_i32gather_ps(lut + s * k,
                                   PqIndices8(codes + i * m + s, m), 4));
    }
    _mm256_storeu_ps(out + i, acc);
  }
  return i;
}

}  // namespace sdea::store::internal
