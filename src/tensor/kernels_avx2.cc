// The only translation unit compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt). Nothing here runs unless runtime dispatch in
// kernels.cc confirmed CPUID reports AVX2+FMA, so these functions may use
// the intrinsics unconditionally.
//
// Exact mode: one double accumulator per lane, one output element per
// lane, a separate _mm256_mul_pd and _mm256_add_pd per k in ascending
// order, one rounding to float at the end. That is the operation sequence
// of the scalar exact kernels element for element, so exact results are
// bitwise identical at both SIMD levels. This TU is compiled with
// -ffp-contract=off so the compiler never fuses that multiply and add.
//
// Fast mode: every kernel's reduction tree is a pure function of the
// operand shapes — fixed unroll widths, fixed combine order — so for a
// given SimdLevel the fast mode stays bitwise-reproducible across runs and
// thread counts (callers shard disjoint output rows). FMA keeps the full
// product precision before adding, which is why fast-AVX2 and fast-scalar
// differ in the last ulps; the tolerance tests bound that gap against
// exact mode. The scalar tails call std::fma explicitly, so they stay
// fused under -ffp-contract=off.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sdea::tmath::kernels {
namespace {

// Sums the 8 lanes: (lo+hi) pairwise, matching _mm_hadd order. The combine
// order is fixed, part of the fast-AVX2 reduction tree.
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_hadd_ps(s, s);
  s = _mm_hadd_ps(s, s);
  return _mm_cvtss_f32(s);
}

// ---- Exact mode -----------------------------------------------------------

// Output columns per exact block: four 4-lane double accumulators.
constexpr int64_t kExactPanel = 16;

inline __m256d LoadAsDouble(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
inline __m256d LoadAsDouble(const double* p) { return _mm256_loadu_pd(p); }

// Rounds NV accumulators to float (cvtpd2ps rounds like static_cast) and
// writes the first w <= 4*NV of them to out.
template <int NV>
inline void StoreRounded(const __m256d* acc, float* out, int64_t w) {
  float tmp[4 * NV];
  float* dst = w == 4 * NV ? out : tmp;
  for (int v = 0; v < NV; ++v) {
    _mm_storeu_ps(dst + 4 * v, _mm256_cvtpd_ps(acc[v]));
  }
  if (dst == tmp) {
    std::memcpy(out, tmp, static_cast<size_t>(w) * sizeof(float));
  }
}

// One column block of the strided exact matmul: for i in [i_begin, i_end),
// c[i*ldc + q] = sum_kk A(i,kk) * b[kk*ldb + q] for q < w <= 4*NV, where
// A(i,kk) = a[i*sa_i + kk*sa_k]. b must hold 4*NV readable columns per
// row. Rows go two at a time so each loaded b vector feeds two rows.
template <int NV, typename BT>
void ExactBlock(const float* a, int64_t sa_i, int64_t sa_k, const BT* b,
                int64_t ldb, int64_t k, float* c, int64_t ldc, int64_t w,
                int64_t i_begin, int64_t i_end) {
  int64_t i = i_begin;
  for (; i + 2 <= i_end; i += 2) {
    __m256d acc0[NV], acc1[NV];
    for (int v = 0; v < NV; ++v) acc0[v] = acc1[v] = _mm256_setzero_pd();
    const float* a0 = a + i * sa_i;
    const float* a1 = a0 + sa_i;
    for (int64_t kk = 0; kk < k; ++kk) {
      const BT* brow = b + kk * ldb;
      const __m256d x0 = _mm256_set1_pd(a0[kk * sa_k]);
      const __m256d x1 = _mm256_set1_pd(a1[kk * sa_k]);
      for (int v = 0; v < NV; ++v) {
        const __m256d bv = LoadAsDouble(brow + 4 * v);
        acc0[v] = _mm256_add_pd(acc0[v], _mm256_mul_pd(x0, bv));
        acc1[v] = _mm256_add_pd(acc1[v], _mm256_mul_pd(x1, bv));
      }
    }
    StoreRounded<NV>(acc0, c + i * ldc, w);
    StoreRounded<NV>(acc1, c + (i + 1) * ldc, w);
  }
  if (i < i_end) {
    __m256d acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
    const float* a0 = a + i * sa_i;
    for (int64_t kk = 0; kk < k; ++kk) {
      const BT* brow = b + kk * ldb;
      const __m256d x0 = _mm256_set1_pd(a0[kk * sa_k]);
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_add_pd(acc[v],
                               _mm256_mul_pd(x0, LoadAsDouble(brow + 4 * v)));
      }
    }
    StoreRounded<NV>(acc, c + i * ldc, w);
  }
}

// ExactBlock with NV = ceil(w / 4) chosen at run time.
template <typename BT>
void ExactBlockW(const float* a, int64_t sa_i, int64_t sa_k, const BT* b,
                 int64_t ldb, int64_t k, float* c, int64_t ldc, int64_t w,
                 int64_t i_begin, int64_t i_end) {
  switch ((w + 3) / 4) {
    case 1:
      return ExactBlock<1>(a, sa_i, sa_k, b, ldb, k, c, ldc, w, i_begin, i_end);
    case 2:
      return ExactBlock<2>(a, sa_i, sa_k, b, ldb, k, c, ldc, w, i_begin, i_end);
    case 3:
      return ExactBlock<3>(a, sa_i, sa_k, b, ldb, k, c, ldc, w, i_begin, i_end);
    default:
      return ExactBlock<4>(a, sa_i, sa_k, b, ldb, k, c, ldc, w, i_begin, i_end);
  }
}

// Per-thread panel buffer, grown on demand and reused across calls.
double* PanelBuffer(int64_t doubles) {
  thread_local std::vector<double> panel;
  if (static_cast<int64_t>(panel.size()) < doubles) {
    panel.resize(static_cast<size_t>(doubles));
  }
  return panel.data();
}

}  // namespace

void MatmulStridedExactAvx2(const float* a, int64_t sa_i, int64_t sa_k,
                            const float* b, float* c, int64_t k, int64_t n,
                            int64_t i_begin, int64_t i_end) {
  // c[i,:] = sum_kk A(i,kk) * b[kk,:], b row-major [k, n]. Column blocks
  // whose width is a multiple of 4 read b in place; a ragged last block is
  // copied into a zero-padded panel first so no load runs past a row.
  for (int64_t j0 = 0; j0 < n; j0 += kExactPanel) {
    const int64_t w = std::min(kExactPanel, n - j0);
    if (w % 4 == 0) {
      ExactBlockW(a, sa_i, sa_k, b + j0, n, k, c + j0, n, w, i_begin, i_end);
      continue;
    }
    const int64_t ldp = (w + 3) / 4 * 4;
    double* panel = PanelBuffer(k * ldp);
    for (int64_t kk = 0; kk < k; ++kk) {
      double* prow = panel + kk * ldp;
      for (int64_t q = 0; q < ldp; ++q) {
        prow[q] = q < w ? static_cast<double>(b[kk * n + j0 + q]) : 0.0;
      }
    }
    ExactBlockW(a, sa_i, sa_k, static_cast<const double*>(panel), ldp, k,
                c + j0, n, w, i_begin, i_end);
  }
}

void MatmulTransposeBRowsExactAvx2(const float* a, const float* b, float* c,
                                   int64_t k, int64_t n, int64_t i_begin,
                                   int64_t i_end) {
  // b is [n, k]: column block j0 of the product is b rows j0.. transposed.
  // Each block is packed once into a [k, 16] double panel and then swept
  // by every row of the range, so b is read once per call however few
  // rows there are.
  double* panel = PanelBuffer(k * kExactPanel);
  for (int64_t j0 = 0; j0 < n; j0 += kExactPanel) {
    const int64_t w = std::min(kExactPanel, n - j0);
    const int64_t ldp = (w + 3) / 4 * 4;
    const float* bblock = b + j0 * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      double* prow = panel + kk * ldp;
      for (int64_t q = 0; q < w; ++q) prow[q] = bblock[q * k + kk];
      for (int64_t q = w; q < ldp; ++q) prow[q] = 0.0;
    }
    ExactBlockW(a, k, 1, static_cast<const double*>(panel), ldp, k, c + j0,
                n, w, i_begin, i_end);
  }
}

// ---- Fast mode ------------------------------------------------------------

float DotFastAvx2(const float* a, const float* b, int64_t d) {
  // Four 8-lane FMA accumulators (32 floats per step) hide FMA latency;
  // the tail first drains 8-wide into acc0, then scalar into the total.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float total =
      HorizontalSum(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                  _mm256_add_ps(acc2, acc3)));
  for (; i < d; ++i) total = std::fma(a[i], b[i], total);
  return total;
}

void MatmulRowsFastAvx2(const float* a, const float* b, float* c, int64_t k,
                        int64_t n, int64_t i_begin, int64_t i_end) {
  // i-k-j with the j loop 8-wide: per output element the accumulation is
  // still one FMA per k, ascending, into a float row accumulator. B rows
  // are streamed once per output row; for the [m<=1k, k<=1k] shapes here
  // the B panel lives in L2, so the k-ascending order doubles as the
  // cache-blocked order.
  for (int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(crow + j, _mm256_setzero_ps());
    for (; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 aik = _mm256_set1_ps(arow[kk]);
      const float* brow = b + kk * n;
      j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            crow + j, _mm256_fmadd_ps(aik, _mm256_loadu_ps(brow + j),
                                      _mm256_loadu_ps(crow + j)));
      }
      const float aik_s = arow[kk];
      for (; j < n; ++j) crow[j] = std::fma(aik_s, brow[j], crow[j]);
    }
  }
}

void MatmulTransposeBRowsFastAvx2(const float* a, const float* b, float* c,
                                  int64_t k, int64_t n, int64_t i_begin,
                                  int64_t i_end) {
  // Per-pair DotFastAvx2 keeps the reduction tree identical to the
  // ScoreDot fast path, so ranking sites agree bitwise with this score
  // matrix (the cross-site contract tensor_kernels_test pins).
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = DotFastAvx2(arow, b + j * k, k);
    }
  }
}

void MatmulTransposeARowsFastAvx2(const float* a, const float* b, float* c,
                                  int64_t k, int64_t m, int64_t n,
                                  int64_t i_begin, int64_t i_end) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(crow + j, _mm256_setzero_ps());
    for (; j < n; ++j) crow[j] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik_s = a[kk * m + i];
      const __m256 aik = _mm256_set1_ps(aik_s);
      const float* brow = b + kk * n;
      j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            crow + j, _mm256_fmadd_ps(aik, _mm256_loadu_ps(brow + j),
                                      _mm256_loadu_ps(crow + j)));
      }
      for (; j < n; ++j) crow[j] = std::fma(aik_s, brow[j], crow[j]);
    }
  }
}

int64_t FilterGeAvx2(const float* scores, int64_t m, float threshold,
                     int64_t cap, int64_t* out) {
  // 8-wide compare + movemask; lanes are drained in order so the output
  // positions stay ascending and identical to the scalar scan. _CMP_GE_OQ
  // is quiet-ordered: NaN lanes never match, exactly like scalar `>=`.
  // The per-lane loop only runs on a hit, which is rare by construction
  // (the caller's threshold comes from a 4096-point sample max).
  int64_t w = 0;
  const __m256 t = _mm256_set1_ps(threshold);
  int64_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 f = _mm256_loadu_ps(scores + i);
    const int hits = _mm256_movemask_ps(_mm256_cmp_ps(f, t, _CMP_GE_OQ));
    if (hits) {
      for (int lane = 0; lane < 8; ++lane) {
        if (!(hits & (1 << lane))) continue;
        if (w == cap) return cap + 1;
        out[w++] = i + lane;
      }
    }
  }
  for (; i < m; ++i) {
    if (scores[i] >= threshold) {
      if (w == cap) return cap + 1;
      out[w++] = i;
    }
  }
  return w;
}

}  // namespace sdea::tmath::kernels
