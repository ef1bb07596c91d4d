#include "dsp/simd_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd_kernels_detail.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace beesim::dsp {

using Complex = std::complex<double>;

// ------------------------------------------------------------ scalar tier
//
// The scalar kernels are the bit-identity oracle: per output element they
// perform exactly the operations the pre-dispatch code performed (the
// f32 GEMM panel is the former ml/gemm.cpp kernel verbatim), and every
// SIMD tier replays the same per-element operation sequence across
// independent vector lanes.

namespace detail {
namespace {

constexpr std::size_t kRowPanel = 4;

/// C panel of `rows` (<= kRowPanel) rows: acc[r][j] over the full K
/// extent. The j loop is the vector axis; a[r][p] is a broadcast scalar.
void panel(std::size_t rows, std::size_t n, std::size_t k, const float* a,
           std::size_t lda, const float* b, const float* bias, float* c) {
  // Column tiles sized to keep kRowPanel accumulator rows in registers /
  // L1 while B streams through.
  constexpr std::size_t kColTile = 64;
  float acc[kRowPanel][kColTile];
  for (std::size_t j0 = 0; j0 < n; j0 += kColTile) {
    const std::size_t jn = std::min(kColTile, n - j0);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < jn; ++j) acc[r][j] = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + j0;
      for (std::size_t r = 0; r < rows; ++r) {
        const float av = a[r * lda + p];
        for (std::size_t j = 0; j < jn; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      float* crow = c + r * n + j0;
      const float bv = bias[r];
      for (std::size_t j = 0; j < jn; ++j) crow[j] = bv + acc[r][j];
    }
  }
}

}  // namespace

void sgemm_bias_f32_scalar(std::size_t m, std::size_t n, std::size_t k,
                           const float* a, const float* b, const float* bias,
                           float* c) {
  for (std::size_t i0 = 0; i0 < m; i0 += kRowPanel) {
    const std::size_t rows = std::min(kRowPanel, m - i0);
    panel(rows, n, k, a + i0 * k, k, b, bias + i0, c + i0 * n);
  }
}

void sgemm_bias_s8_scalar(std::size_t m, std::size_t n, std::size_t k,
                          const std::int8_t* a, const float* a_scales,
                          const std::int8_t* b, float b_scale,
                          const float* bias, float* c) {
  constexpr std::size_t kColTile = 64;
  std::int32_t acc[kColTile];
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    const float scale = a_scales[i] * b_scale;
    const float bv = bias[i];
    for (std::size_t j0 = 0; j0 < n; j0 += kColTile) {
      const std::size_t jn = std::min(kColTile, n - j0);
      for (std::size_t j = 0; j < jn; ++j) acc[j] = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const std::int32_t av = arow[p];
        const std::int8_t* brow = b + p * n + j0;
        for (std::size_t j = 0; j < jn; ++j)
          acc[j] += av * static_cast<std::int32_t>(brow[j]);
      }
      float* crow = c + i * n + j0;
      for (std::size_t j = 0; j < jn; ++j)
        crow[j] = std::fma(scale, static_cast<float>(acc[j]), bv);
    }
  }
}

void fft_stage_scalar(Complex* data, std::size_t n, std::size_t len,
                      const Complex* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    Complex* lo = data + i;
    Complex* hi = lo + half;
    for (std::size_t j = 0; j < half; ++j) {
      const Complex u = lo[j];
      const Complex v = hi[j] * tw[j];
      lo[j] = u + v;
      hi[j] = u - v;
    }
  }
}

void welford5_add_scalar(Welford5* s, const double* xs, std::size_t count) {
  for (std::size_t r = 0; r < count; ++r) {
    const double* x = xs + r * 5;
    ++s->n;
    const double dn = static_cast<double>(s->n);
    for (std::size_t l = 0; l < 5; ++l) {
      // util::RunningStats::add, verbatim (the same operations in the
      // same order — resumed checkpoints depend on it).
      const double v = x[l];
      s->sum[l] += v;
      const double delta = v - s->mean[l];
      s->mean[l] += delta / dn;
      s->m2[l] += delta * (v - s->mean[l]);
      s->min[l] = std::min(s->min[l], v);
      s->max[l] = std::max(s->max[l], v);
    }
  }
}

}  // namespace detail

// -------------------------------------------------------------- SSE2 tier
//
// Explicit 128-bit kernels for the x86-64 baseline. blendv/addsub are
// SSE4.1/SSE3, so selects use cmp + and/andnot/or and complex products
// recombine sub/add lanes with shufpd — both reproduce the scalar
// operation per lane exactly.

#if defined(__SSE2__)

namespace detail {
namespace {

void sgemm_bias_f32_sse2(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, const float* bias,
                         float* c) {
  const std::size_t jv = n & ~static_cast<std::size_t>(7);
  std::size_t i0 = 0;
  for (; i0 + 4 <= m; i0 += 4) {
    const float* a0 = a + (i0 + 0) * k;
    const float* a1 = a + (i0 + 1) * k;
    const float* a2 = a + (i0 + 2) * k;
    const float* a3 = a + (i0 + 3) * k;
    for (std::size_t j0 = 0; j0 < jv; j0 += 8) {
      __m128 c00 = _mm_setzero_ps(), c01 = _mm_setzero_ps();
      __m128 c10 = _mm_setzero_ps(), c11 = _mm_setzero_ps();
      __m128 c20 = _mm_setzero_ps(), c21 = _mm_setzero_ps();
      __m128 c30 = _mm_setzero_ps(), c31 = _mm_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j0;
        const __m128 b0 = _mm_loadu_ps(brow);
        const __m128 b1 = _mm_loadu_ps(brow + 4);
        __m128 av = _mm_set1_ps(a0[p]);
        c00 = _mm_add_ps(c00, _mm_mul_ps(av, b0));
        c01 = _mm_add_ps(c01, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a1[p]);
        c10 = _mm_add_ps(c10, _mm_mul_ps(av, b0));
        c11 = _mm_add_ps(c11, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a2[p]);
        c20 = _mm_add_ps(c20, _mm_mul_ps(av, b0));
        c21 = _mm_add_ps(c21, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a3[p]);
        c30 = _mm_add_ps(c30, _mm_mul_ps(av, b0));
        c31 = _mm_add_ps(c31, _mm_mul_ps(av, b1));
      }
      float* crow = c + i0 * n + j0;
      __m128 bv = _mm_set1_ps(bias[i0 + 0]);
      _mm_storeu_ps(crow, _mm_add_ps(bv, c00));
      _mm_storeu_ps(crow + 4, _mm_add_ps(bv, c01));
      bv = _mm_set1_ps(bias[i0 + 1]);
      _mm_storeu_ps(crow + n, _mm_add_ps(bv, c10));
      _mm_storeu_ps(crow + n + 4, _mm_add_ps(bv, c11));
      bv = _mm_set1_ps(bias[i0 + 2]);
      _mm_storeu_ps(crow + 2 * n, _mm_add_ps(bv, c20));
      _mm_storeu_ps(crow + 2 * n + 4, _mm_add_ps(bv, c21));
      bv = _mm_set1_ps(bias[i0 + 3]);
      _mm_storeu_ps(crow + 3 * n, _mm_add_ps(bv, c30));
      _mm_storeu_ps(crow + 3 * n + 4, _mm_add_ps(bv, c31));
    }
    for (std::size_t r = 0; r < 4; ++r) {
      const float* arow = a + (i0 + r) * k;
      for (std::size_t j = jv; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += arow[p] * b[p * n + j];
        c[(i0 + r) * n + j] = bias[i0 + r] + acc;
      }
    }
  }
  for (; i0 < m; ++i0) {
    const float* arow = a + i0 * k;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * b[p * n + j];
      c[i0 * n + j] = bias[i0] + acc;
    }
  }
}

void fft_stage_sse2(Complex* data, std::size_t n, std::size_t len,
                    const Complex* tw) {
  const std::size_t half = len / 2;
  auto* d = reinterpret_cast<double*>(data);
  const auto* t = reinterpret_cast<const double*>(tw);
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = d + 2 * i;
    double* hi = lo + 2 * half;
    for (std::size_t j = 0; j < half; ++j) {
      const __m128d u = _mm_loadu_pd(lo + 2 * j);
      const __m128d x = _mm_loadu_pd(hi + 2 * j);  // [a, b]
      const __m128d w = _mm_loadu_pd(t + 2 * j);   // [c, d]
      const __m128d wr = _mm_shuffle_pd(w, w, 0);  // [c, c]
      const __m128d wi = _mm_shuffle_pd(w, w, 3);  // [d, d]
      const __m128d xs = _mm_shuffle_pd(x, x, 1);  // [b, a]
      const __m128d t1 = _mm_mul_pd(x, wr);        // [ac, bc]
      const __m128d t2 = _mm_mul_pd(xs, wi);       // [bd, ad]
      // v = x*w: re = ac - bd, im = bc + ad (the scalar complex product's
      // two rounded ops per lane; the wasted opposite lanes are dropped).
      const __m128d v = _mm_shuffle_pd(_mm_sub_pd(t1, t2),
                                       _mm_add_pd(t1, t2), 2);
      _mm_storeu_pd(lo + 2 * j, _mm_add_pd(u, v));
      _mm_storeu_pd(hi + 2 * j, _mm_sub_pd(u, v));
    }
  }
}

/// std::min(cur, x) selects x only on strict x < cur; cmplt + and/andnot
/// reproduces that exactly (including the first-argument tie-break on
/// equal values and signed zeros).
inline __m128d min_like_std(__m128d cur, __m128d x) {
  const __m128d mask = _mm_cmplt_pd(x, cur);
  return _mm_or_pd(_mm_and_pd(mask, x), _mm_andnot_pd(mask, cur));
}

inline __m128d max_like_std(__m128d cur, __m128d x) {
  const __m128d mask = _mm_cmplt_pd(cur, x);
  return _mm_or_pd(_mm_and_pd(mask, x), _mm_andnot_pd(mask, cur));
}

void welford5_add_sse2(Welford5* s, const double* xs, std::size_t count) {
  __m128d mean0 = _mm_loadu_pd(s->mean), mean1 = _mm_loadu_pd(s->mean + 2);
  __m128d m20 = _mm_loadu_pd(s->m2), m21 = _mm_loadu_pd(s->m2 + 2);
  __m128d sum0 = _mm_loadu_pd(s->sum), sum1 = _mm_loadu_pd(s->sum + 2);
  __m128d min0 = _mm_loadu_pd(s->min), min1 = _mm_loadu_pd(s->min + 2);
  __m128d max0 = _mm_loadu_pd(s->max), max1 = _mm_loadu_pd(s->max + 2);
  for (std::size_t r = 0; r < count; ++r) {
    const double* x = xs + r * 5;
    ++s->n;
    const __m128d dn = _mm_set1_pd(static_cast<double>(s->n));
    const __m128d x0 = _mm_loadu_pd(x);
    const __m128d x1 = _mm_loadu_pd(x + 2);
    sum0 = _mm_add_pd(sum0, x0);
    sum1 = _mm_add_pd(sum1, x1);
    const __m128d d0 = _mm_sub_pd(x0, mean0);
    const __m128d d1 = _mm_sub_pd(x1, mean1);
    mean0 = _mm_add_pd(mean0, _mm_div_pd(d0, dn));
    mean1 = _mm_add_pd(mean1, _mm_div_pd(d1, dn));
    m20 = _mm_add_pd(m20, _mm_mul_pd(d0, _mm_sub_pd(x0, mean0)));
    m21 = _mm_add_pd(m21, _mm_mul_pd(d1, _mm_sub_pd(x1, mean1)));
    min0 = min_like_std(min0, x0);
    min1 = min_like_std(min1, x1);
    max0 = max_like_std(max0, x0);
    max1 = max_like_std(max1, x1);
    // Fifth lane: the scalar recurrence.
    const double v = x[4];
    s->sum[4] += v;
    const double delta = v - s->mean[4];
    s->mean[4] += delta / static_cast<double>(s->n);
    s->m2[4] += delta * (v - s->mean[4]);
    s->min[4] = std::min(s->min[4], v);
    s->max[4] = std::max(s->max[4], v);
  }
  _mm_storeu_pd(s->mean, mean0);
  _mm_storeu_pd(s->mean + 2, mean1);
  _mm_storeu_pd(s->m2, m20);
  _mm_storeu_pd(s->m2 + 2, m21);
  _mm_storeu_pd(s->sum, sum0);
  _mm_storeu_pd(s->sum + 2, sum1);
  _mm_storeu_pd(s->min, min0);
  _mm_storeu_pd(s->min + 2, min1);
  _mm_storeu_pd(s->max, max0);
  _mm_storeu_pd(s->max + 2, max1);
}

}  // namespace
}  // namespace detail

#endif  // __SSE2__

// ------------------------------------------------------------- the tables

namespace {

constexpr KernelTable kScalarTable = {
    detail::sgemm_bias_f32_scalar, detail::sgemm_bias_s8_scalar,
    detail::fft_stage_scalar,      detail::welford5_add_scalar,
};

#if defined(__SSE2__)
// int8 stays on the scalar code at this tier: without AVX2's 8-wide
// widening loads and madd there is little to gain over what the compiler
// already autovectorizes (results are identical either way).
constexpr KernelTable kSse2Table = {
    detail::sgemm_bias_f32_sse2, detail::sgemm_bias_s8_scalar,
    detail::fft_stage_sse2,      detail::welford5_add_sse2,
};
#else
constexpr KernelTable kSse2Table = kScalarTable;
#endif

constexpr KernelTable kAvx2Table = {
    detail::sgemm_bias_f32_avx2, detail::sgemm_bias_s8_avx2,
    detail::fft_stage_avx2,      detail::welford5_add_avx2,
};

}  // namespace

const KernelTable& kernel_table(IsaTier tier) noexcept {
  if (static_cast<int>(tier) > static_cast<int>(detected_isa()))
    tier = detected_isa();
  switch (tier) {
    case IsaTier::kSse2: return kSse2Table;
    case IsaTier::kAvx2: return kAvx2Table;
    case IsaTier::kScalar: break;
  }
  return kScalarTable;
}

const KernelTable& kernel_table() noexcept {
  return kernel_table(active_isa());
}

}  // namespace beesim::dsp
