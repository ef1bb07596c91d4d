// AVX2(+FMA) tier of the dispatched kernels. This translation unit is
// compiled with -mavx2 -mfma -ffp-contract=off (src/CMakeLists.txt):
// contract=off is load-bearing — without it the compiler would fuse the
// intrinsic mul/add pairs below into FMAs, changing rounding versus the
// scalar tier and breaking the bit-identity contract. The only fused
// operation here is the int8 dequantization fmadd, mirroring the scalar
// tier's std::fma (both correctly rounded, hence still bit-identical).
//
// On targets where AVX2 is unavailable at compile time the entry points
// forward to the scalar tier, keeping the kernel table total.

#include "dsp/simd_kernels_detail.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include "dsp/batch_body.hpp"

namespace beesim::dsp::detail {

void sgemm_bias_f32_avx2(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, const float* bias,
                         float* c) {
  // Column blocks outermost: the k x 16 B panel of one block (~9 KB for
  // conv-shaped k) stays L1-resident while every row block consumes it,
  // instead of re-streaming the whole B matrix from L2 once per row
  // block. Block order cannot perturb results — each c[i][j] still
  // accumulates its own lane over k ascending, mul and add unfused.
  const std::size_t jv = n & ~static_cast<std::size_t>(15);
  const std::size_t mv = m & ~static_cast<std::size_t>(3);
  for (std::size_t j0 = 0; j0 < jv; j0 += 16) {
    for (std::size_t i0 = 0; i0 < mv; i0 += 4) {
      const float* a0 = a + (i0 + 0) * k;
      const float* a1 = a + (i0 + 1) * k;
      const float* a2 = a + (i0 + 2) * k;
      const float* a3 = a + (i0 + 3) * k;
      // 4 x 16 register tile: eight ymm accumulators live across the
      // whole K extent, each B row is loaded once and shared by the four
      // rows.
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      const float* brow = b + j0;
      for (std::size_t p = 0; p < k; ++p, brow += n) {
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a1[p]);
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a2[p]);
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a3[p]);
        c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
        c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
      }
      float* crow = c + i0 * n + j0;
      __m256 bv = _mm256_set1_ps(bias[i0 + 0]);
      _mm256_storeu_ps(crow, _mm256_add_ps(bv, c00));
      _mm256_storeu_ps(crow + 8, _mm256_add_ps(bv, c01));
      bv = _mm256_set1_ps(bias[i0 + 1]);
      _mm256_storeu_ps(crow + n, _mm256_add_ps(bv, c10));
      _mm256_storeu_ps(crow + n + 8, _mm256_add_ps(bv, c11));
      bv = _mm256_set1_ps(bias[i0 + 2]);
      _mm256_storeu_ps(crow + 2 * n, _mm256_add_ps(bv, c20));
      _mm256_storeu_ps(crow + 2 * n + 8, _mm256_add_ps(bv, c21));
      bv = _mm256_set1_ps(bias[i0 + 3]);
      _mm256_storeu_ps(crow + 3 * n, _mm256_add_ps(bv, c30));
      _mm256_storeu_ps(crow + 3 * n + 8, _mm256_add_ps(bv, c31));
    }
    for (std::size_t i = mv; i < m; ++i) {  // 1 x 16 row tail
      __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
      const float* arow = a + i * k;
      const float* brow = b + j0;
      for (std::size_t p = 0; p < k; ++p, brow += n) {
        const __m256 av = _mm256_set1_ps(arow[p]);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        c1 = _mm256_add_ps(c1,
                           _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
      }
      const __m256 bv = _mm256_set1_ps(bias[i]);
      _mm256_storeu_ps(c + i * n + j0, _mm256_add_ps(bv, c0));
      _mm256_storeu_ps(c + i * n + j0 + 8, _mm256_add_ps(bv, c1));
    }
  }
  for (std::size_t i = 0; i < m; ++i) {  // scalar column tail
    const float* arow = a + i * k;
    for (std::size_t j = jv; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * b[p * n + j];
      c[i * n + j] = bias[i] + acc;
    }
  }
}

void sgemm_bias_s8_avx2(std::size_t m, std::size_t n, std::size_t k,
                        const std::int8_t* a, const float* a_scales,
                        const std::int8_t* b, float b_scale,
                        const float* bias, float* c) {
  // Pack B into k-pair interleaved rows: for pair p2, column j, the two
  // bytes (B[2*p2, j], B[2*p2+1, j]) sit adjacent, so one 16-byte load
  // covers 8 columns and sign-extends to the exact int16 pair layout
  // madd_epi16 consumes — 16 multiply-accumulates per instruction, which
  // is where the >= 1.5x-over-f32 budget comes from. Integer arithmetic
  // is exact, so neither packing nor tiling order can perturb results.
  const std::size_t kp = (k + 1) / 2;
  std::vector<std::int8_t> packed(kp * 2 * n);
  for (std::size_t p2 = 0; p2 < kp; ++p2) {
    const std::int8_t* r0 = b + (2 * p2) * n;
    const bool has1 = 2 * p2 + 1 < k;
    const std::int8_t* r1 = has1 ? r0 + n : nullptr;
    std::int8_t* dst = packed.data() + p2 * 2 * n;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {  // byte interleave, 16 columns at once
      const __m128i v0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(r0 + j));
      const __m128i v1 =
          has1 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + j))
               : _mm_setzero_si128();
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * j),
                       _mm_unpacklo_epi8(v0, v1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * j + 16),
                       _mm_unpackhi_epi8(v0, v1));
    }
    for (; j < n; ++j) {
      dst[2 * j] = r0[j];
      dst[2 * j + 1] = has1 ? r1[j] : std::int8_t{0};
    }
  }
  // A k-pairs pre-packed as (lo | hi << 16) i32 broadcast sources.
  std::vector<std::int32_t> apairs(m * kp);
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::size_t p2 = 0; p2 < kp; ++p2) {
      const std::int16_t lo = arow[2 * p2];
      const std::int16_t hi =
          2 * p2 + 1 < k ? std::int16_t{arow[2 * p2 + 1]} : std::int16_t{0};
      apairs[i * kp + p2] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::uint16_t>(lo)) |
          (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi))
           << 16));
    }
  }
  const auto load_b16 = [](const std::int8_t* p) {
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  };
  // 2-row x 32-column tile: eight independent madd/add chains keep the
  // multiplier busy instead of serializing on one accumulator's latency.
  const std::size_t jv32 = n & ~static_cast<std::size_t>(31);
  const std::size_t jv8 = n & ~static_cast<std::size_t>(7);
  std::size_t i0 = 0;
  for (; i0 + 2 <= m; i0 += 2) {
    const std::int32_t* ap0 = apairs.data() + i0 * kp;
    const std::int32_t* ap1 = ap0 + kp;
    for (std::size_t j0 = 0; j0 < jv32; j0 += 32) {
      __m256i acc00 = _mm256_setzero_si256();
      __m256i acc01 = _mm256_setzero_si256();
      __m256i acc02 = _mm256_setzero_si256();
      __m256i acc03 = _mm256_setzero_si256();
      __m256i acc10 = _mm256_setzero_si256();
      __m256i acc11 = _mm256_setzero_si256();
      __m256i acc12 = _mm256_setzero_si256();
      __m256i acc13 = _mm256_setzero_si256();
      const std::int8_t* pb = packed.data() + 2 * j0;
      for (std::size_t p2 = 0; p2 < kp; ++p2, pb += 2 * n) {
        const __m256i b0 = load_b16(pb);
        const __m256i b1 = load_b16(pb + 16);
        const __m256i b2 = load_b16(pb + 32);
        const __m256i b3 = load_b16(pb + 48);
        const __m256i av0 = _mm256_set1_epi32(ap0[p2]);
        const __m256i av1 = _mm256_set1_epi32(ap1[p2]);
        acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(b0, av0));
        acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(b1, av0));
        acc02 = _mm256_add_epi32(acc02, _mm256_madd_epi16(b2, av0));
        acc03 = _mm256_add_epi32(acc03, _mm256_madd_epi16(b3, av0));
        acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(b0, av1));
        acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(b1, av1));
        acc12 = _mm256_add_epi32(acc12, _mm256_madd_epi16(b2, av1));
        acc13 = _mm256_add_epi32(acc13, _mm256_madd_epi16(b3, av1));
      }
      // Dequantize: fma(scale, (float)acc, bias) — the scalar tier's
      // std::fma, correctly rounded on both sides.
      float* crow = c + i0 * n + j0;
      __m256 sv = _mm256_set1_ps(a_scales[i0] * b_scale);
      __m256 bv = _mm256_set1_ps(bias[i0]);
      _mm256_storeu_ps(
          crow, _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc00), bv));
      _mm256_storeu_ps(
          crow + 8, _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc01), bv));
      _mm256_storeu_ps(
          crow + 16, _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc02), bv));
      _mm256_storeu_ps(
          crow + 24, _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc03), bv));
      sv = _mm256_set1_ps(a_scales[i0 + 1] * b_scale);
      bv = _mm256_set1_ps(bias[i0 + 1]);
      _mm256_storeu_ps(
          crow + n, _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc10), bv));
      _mm256_storeu_ps(
          crow + n + 8, _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc11), bv));
      _mm256_storeu_ps(
          crow + n + 16,
          _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc12), bv));
      _mm256_storeu_ps(
          crow + n + 24,
          _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc13), bv));
    }
    for (std::size_t r = 0; r < 2; ++r) {
      const std::size_t i = i0 + r;
      const std::int32_t* ap = apairs.data() + i * kp;
      const __m256 sv = _mm256_set1_ps(a_scales[i] * b_scale);
      const __m256 bv = _mm256_set1_ps(bias[i]);
      for (std::size_t j0 = jv32; j0 < jv8; j0 += 8) {
        __m256i acc = _mm256_setzero_si256();
        const std::int8_t* pb = packed.data() + 2 * j0;
        for (std::size_t p2 = 0; p2 < kp; ++p2, pb += 2 * n)
          acc = _mm256_add_epi32(
              acc, _mm256_madd_epi16(load_b16(pb),
                                     _mm256_set1_epi32(ap[p2])));
        _mm256_storeu_ps(
            c + i * n + j0,
            _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc), bv));
      }
      const std::int8_t* arow = a + i * k;
      const float scale = a_scales[i] * b_scale;
      for (std::size_t j = jv8; j < n; ++j) {
        std::int32_t acc = 0;
        for (std::size_t p = 0; p < k; ++p)
          acc += static_cast<std::int32_t>(arow[p]) *
                 static_cast<std::int32_t>(b[p * n + j]);
        c[i * n + j] = std::fma(scale, static_cast<float>(acc), bias[i]);
      }
    }
  }
  for (; i0 < m; ++i0) {
    const std::int32_t* ap = apairs.data() + i0 * kp;
    const float scale = a_scales[i0] * b_scale;
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 bv = _mm256_set1_ps(bias[i0]);
    for (std::size_t j0 = 0; j0 < jv8; j0 += 8) {
      __m256i acc = _mm256_setzero_si256();
      const std::int8_t* pb = packed.data() + 2 * j0;
      for (std::size_t p2 = 0; p2 < kp; ++p2, pb += 2 * n)
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(load_b16(pb), _mm256_set1_epi32(ap[p2])));
      _mm256_storeu_ps(c + i0 * n + j0,
                       _mm256_fmadd_ps(sv, _mm256_cvtepi32_ps(acc), bv));
    }
    const std::int8_t* arow = a + i0 * k;
    for (std::size_t j = jv8; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<std::int32_t>(arow[p]) *
               static_cast<std::int32_t>(b[p * n + j]);
      c[i0 * n + j] = std::fma(scale, static_cast<float>(acc), bias[i0]);
    }
  }
}

namespace {

/// Two __m256d, lanes 0-3 and 4-7: the AVX2 tier's batch-kernel lanes.
struct Avx2Lanes {
  static constexpr std::size_t kWidth = 8;
  __m256d lo, hi;

  static Avx2Lanes load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static Avx2Lanes broadcast(double x) {
    return {_mm256_set1_pd(x), _mm256_set1_pd(x)};
  }
  static void load_pairs(const double* const* frames, std::size_t i,
                         Avx2Lanes& a, Avx2Lanes& b) {
    load_quad(frames, i, a.lo, b.lo);
    load_quad(frames + 4, i, a.hi, b.hi);
  }
  void store(double* p) const {
    _mm256_storeu_pd(p, lo);
    _mm256_storeu_pd(p + 4, hi);
  }

 private:
  /// Samples i (into a) and i + 1 (into b) of frames 0 to 3.
  static void load_quad(const double* const* frames, std::size_t i,
                        __m256d& a, __m256d& b) {
    // [f0[i], f0[i+1], f2[i], f2[i+1]] and the same of frames 1 and 3;
    // unpacking them gives frame l's sample i in lane l of a, i + 1 in b.
    const __m256d t02 = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(frames[0] + i)),
        _mm_loadu_pd(frames[2] + i), 1);
    const __m256d t13 = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(frames[1] + i)),
        _mm_loadu_pd(frames[3] + i), 1);
    a = _mm256_unpacklo_pd(t02, t13);
    b = _mm256_unpackhi_pd(t02, t13);
  }
};

inline Avx2Lanes operator+(Avx2Lanes a, Avx2Lanes b) {
  return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}
inline Avx2Lanes operator-(Avx2Lanes a, Avx2Lanes b) {
  return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}
inline Avx2Lanes operator*(Avx2Lanes a, Avx2Lanes b) {
  return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}

}  // namespace

void stft_power_batch_avx2(const StftTables& t, const double* const* frames,
                           double* scratch) {
  stft_power_batch_body<Avx2Lanes>(t, frames, scratch);
}

void mel_bands_batch_avx2(const BandTables& t, const double* power,
                          std::size_t count, double* out,
                          std::size_t stride) {
  mel_bands_batch_body<Avx2Lanes>(t, power, count, out, stride);
}

namespace {

/// std::min/std::max semantics per lane: select x only on a strict
/// compare, first argument wins ties (and signed-zero cases).
inline __m256d min_like_std(__m256d cur, __m256d x) {
  return _mm256_blendv_pd(cur, x, _mm256_cmp_pd(x, cur, _CMP_LT_OQ));
}

inline __m256d max_like_std(__m256d cur, __m256d x) {
  return _mm256_blendv_pd(cur, x, _mm256_cmp_pd(cur, x, _CMP_LT_OQ));
}

}  // namespace

void welford5_add_avx2(Welford5* s, const double* xs, std::size_t count) {
  __m256d mean = _mm256_loadu_pd(s->mean);
  __m256d m2 = _mm256_loadu_pd(s->m2);
  __m256d sum = _mm256_loadu_pd(s->sum);
  __m256d mn = _mm256_loadu_pd(s->min);
  __m256d mx = _mm256_loadu_pd(s->max);
  for (std::size_t r = 0; r < count; ++r) {
    const double* x = xs + r * 5;
    ++s->n;
    const __m256d dn = _mm256_set1_pd(static_cast<double>(s->n));
    const __m256d xv = _mm256_loadu_pd(x);
    sum = _mm256_add_pd(sum, xv);
    const __m256d delta = _mm256_sub_pd(xv, mean);
    mean = _mm256_add_pd(mean, _mm256_div_pd(delta, dn));
    m2 = _mm256_add_pd(m2, _mm256_mul_pd(delta, _mm256_sub_pd(xv, mean)));
    mn = min_like_std(mn, xv);
    mx = max_like_std(mx, xv);
    const double v = x[4];
    s->sum[4] += v;
    const double d4 = v - s->mean[4];
    s->mean[4] += d4 / static_cast<double>(s->n);
    s->m2[4] += d4 * (v - s->mean[4]);
    s->min[4] = std::min(s->min[4], v);
    s->max[4] = std::max(s->max[4], v);
  }
  _mm256_storeu_pd(s->mean, mean);
  _mm256_storeu_pd(s->m2, m2);
  _mm256_storeu_pd(s->sum, sum);
  _mm256_storeu_pd(s->min, mn);
  _mm256_storeu_pd(s->max, mx);
}

}  // namespace beesim::dsp::detail

#else  // !(__AVX2__ && __FMA__): forward to the scalar tier

namespace beesim::dsp::detail {

void sgemm_bias_f32_avx2(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, const float* bias,
                         float* c) {
  sgemm_bias_f32_scalar(m, n, k, a, b, bias, c);
}

void sgemm_bias_s8_avx2(std::size_t m, std::size_t n, std::size_t k,
                        const std::int8_t* a, const float* a_scales,
                        const std::int8_t* b, float b_scale,
                        const float* bias, float* c) {
  sgemm_bias_s8_scalar(m, n, k, a, a_scales, b, b_scale, bias, c);
}

void stft_power_batch_avx2(const StftTables& t, const double* const* frames,
                           double* scratch) {
  stft_power_batch_scalar(t, frames, scratch);
}

void mel_bands_batch_avx2(const BandTables& t, const double* power,
                          std::size_t count, double* out,
                          std::size_t stride) {
  mel_bands_batch_scalar(t, power, count, out, stride);
}

void welford5_add_avx2(Welford5* s, const double* xs, std::size_t count) {
  welford5_add_scalar(s, xs, count);
}

}  // namespace beesim::dsp::detail

#endif
