#pragma once

// The one body of each batch kernel of dsp/simd_kernels.hpp
// (stft_power_batch, mel_bands_batch), templated on a vector type V of
// V::kWidth lanes. A batch is StftPlan::kBatch frames, so the body runs
// kBatch / kWidth lane groups side by side: each tier keeps the lane
// type (and register footprint) it runs best at, and every twiddle,
// window and weight broadcast is shared by the groups.
// simd_kernels.cpp instantiates them for the scalar and SSE2 tiers,
// kernels_avx2.cpp for the AVX2 tier and kernels_avx512.cpp for the
// AVX-512 tier, the last two compiled with -ffp-contract=off so no
// mul/add pair below fuses into an FMA. V provides kWidth, load/store of
// kWidth adjacent doubles, broadcast(x), load_pairs (lane l's samples
// i and i + 1 from frames[l], l < kWidth) and lane-wise +, - and *. Each
// lane runs one frame through the per-frame code's IEEE operations in
// their order, so every tier gives the same bits. Everything here has
// internal linkage: each tier's translation unit keeps its own copy,
// compiled for its own ISA.

#include <algorithm>
#include <cstddef>

#include "dsp/simd_kernels.hpp"
#include "dsp/stft.hpp"

namespace beesim::dsp::detail {
namespace {

constexpr std::size_t kBatch = StftPlan::kBatch;

/// Stage pairs whose butterflies stay inside blocks of this many points
/// run one block at a time: 256 points of a batch's split re/im scratch
/// are 32 KiB, which stays in L1 across the block's stage pairs.
constexpr std::size_t kBlockPoints = 256;

/// The radix-2 butterfly on one lane group: v = x * w as the complex
/// product's four rounded products and two sums (re = xr*wr - xi*wi,
/// im = xr*wi + xi*wr), then u + v into u and u - v into x.
template <typename V>
inline void butterfly(V& ur, V& ui, V& xr, V& xi, V wr, V wi) {
  const V vr = xr * wr - xi * wi;
  const V vi = xr * wi + xi * wr;
  xr = ur - vr;
  xi = ui - vi;
  ur = ur + vr;
  ui = ui + vi;
}

/// One radix-2 stage over the points [begin, end): per block of len
/// points, point j and j + len/2 take the butterfly with stage
/// twiddle j.
template <typename V>
void stage(double* re, double* im, std::size_t begin, std::size_t end,
           std::size_t len, const StftTables& t) {
  const std::size_t half = len / 2;
  const double* wr = t.twiddle_re + (half - 1);
  const double* wi = t.twiddle_im + (half - 1);
  const std::size_t s = kBatch * half;
  for (std::size_t i = begin; i < end; i += len)
    for (std::size_t j = 0; j < half; ++j) {
      const V w_re = V::broadcast(wr[j]), w_im = V::broadcast(wi[j]);
      for (std::size_t g = 0; g < kBatch; g += V::kWidth) {
        double* r = re + kBatch * (i + j) + g;
        double* q = im + kBatch * (i + j) + g;
        V ar = V::load(r), ai = V::load(q);
        V br = V::load(r + s), bi = V::load(q + s);
        butterfly(ar, ai, br, bi, w_re, w_im);
        ar.store(r);
        ai.store(q);
        br.store(r + s);
        bi.store(q + s);
      }
    }
}

/// Stages len and 2 len over the points [begin, end) in one pass
/// (radix 2^2): per block of 2 len points and j < len/2, points j,
/// j + len/2, j + len and j + 3 len/2 take stage len's two butterflies
/// with its twiddle j, then stage 2 len's with its twiddles j and
/// j + len/2. Each point sees the two stages' operations in their order,
/// with one load and one store.
template <typename V>
void stage_pair(double* re, double* im, std::size_t begin, std::size_t end,
                std::size_t len, const StftTables& t) {
  const std::size_t q = len / 2;
  const double* w1r = t.twiddle_re + (q - 1);
  const double* w1i = t.twiddle_im + (q - 1);
  const double* w2r = t.twiddle_re + (len - 1);
  const double* w2i = t.twiddle_im + (len - 1);
  const std::size_t s = kBatch * q;
  for (std::size_t i = begin; i < end; i += 2 * len)
    for (std::size_t j = 0; j < q; ++j) {
      const V w1re = V::broadcast(w1r[j]), w1im = V::broadcast(w1i[j]);
      const V w2re = V::broadcast(w2r[j]), w2im = V::broadcast(w2i[j]);
      const V w3re = V::broadcast(w2r[j + q]), w3im = V::broadcast(w2i[j + q]);
      for (std::size_t g = 0; g < kBatch; g += V::kWidth) {
        double* r = re + kBatch * (i + j) + g;
        double* p = im + kBatch * (i + j) + g;
        V ar = V::load(r), ai = V::load(p);
        V br = V::load(r + s), bi = V::load(p + s);
        V cr = V::load(r + 2 * s), ci = V::load(p + 2 * s);
        V dr = V::load(r + 3 * s), di = V::load(p + 3 * s);
        butterfly(ar, ai, br, bi, w1re, w1im);
        butterfly(cr, ci, dr, di, w1re, w1im);
        butterfly(ar, ai, cr, ci, w2re, w2im);
        butterfly(br, bi, dr, di, w3re, w3im);
        ar.store(r);
        ai.store(p);
        br.store(r + s);
        bi.store(p + s);
        cr.store(r + 2 * s);
        ci.store(p + 2 * s);
        dr.store(r + 3 * s);
        di.store(p + 3 * s);
      }
    }
}

template <typename V>
void stft_power_batch_body(const StftTables& t, const double* const* frames,
                           double* scratch) {
  if (t.n_fft == 1) {  // one bin: the windowed sample squared
    for (std::size_t l = 0; l < kBatch; ++l) {
      const double x = frames[l][0] * t.window[0];
      scratch[l] = x * x;
    }
    return;
  }
  const std::size_t m = t.n_fft / 2;
  double* re = scratch;
  double* im = scratch + kBatch * (m + 1);

  // Window and pack: the even sample is the real part and the odd one
  // the imaginary part of packed point j, stored at its bit-reversed
  // place.
  for (std::size_t j = 0; j < m; ++j) {
    const V wa = V::broadcast(t.window[2 * j]);
    const V wb = V::broadcast(t.window[2 * j + 1]);
    const std::size_t to = kBatch * t.bitrev[j];
    for (std::size_t g = 0; g < kBatch; g += V::kWidth) {
      V a, b;
      V::load_pairs(frames + g, 2 * j, a, b);
      (a * wa).store(re + to + g);
      (b * wb).store(im + to + g);
    }
  }

  // The stage pairs up to blocks of kBlockPoints run block by block, the
  // rest over all m points, then the odd stage if there is one: the
  // per-frame stage order, since butterflies of different blocks never
  // share a point.
  const std::size_t block = std::min(m, kBlockPoints);
  std::size_t len = 2;
  while (2 * len <= block) len *= 4;
  for (std::size_t b = 0; b < m; b += block)
    for (std::size_t l = 2; l < len; l *= 4)
      stage_pair<V>(re, im, b, b + block, l, t);
  for (; 2 * len <= m; len *= 4) stage_pair<V>(re, im, 0, m, len, t);
  if (len <= m) stage<V>(re, im, 0, m, len, t);

  // Untangle Z = E + iO into the half spectrum X[k] = E[k] + w_k O[k],
  // X[m - k] = conj(E[k] - w_k O[k]), w_k = e^{-i2pi k/n}, and write
  // |X|^2 over the real parts. At k = m/2 both writes hit one bin, and
  // the second one stays.
  for (std::size_t g = 0; g < kBatch; g += V::kWidth) {
    const V zr = V::load(re + g), zi = V::load(im + g);
    const V dc = zr + zi;
    const V nyquist = zr - zi;
    (dc * dc).store(re + g);
    (nyquist * nyquist).store(re + kBatch * m + g);
  }
  const V half = V::broadcast(0.5);
  for (std::size_t k = 1; k <= m / 2; ++k) {
    const V c = V::broadcast(t.post_re[k]), d = V::broadcast(t.post_im[k]);
    for (std::size_t g = 0; g < kBatch; g += V::kWidth) {
      double* rk = re + kBatch * k + g;
      double* rc = re + kBatch * (m - k) + g;
      const V ar = V::load(rk), ai = V::load(im + kBatch * k + g);
      const V br = V::load(rc), bi = V::load(im + kBatch * (m - k) + g);
      const V er = half * (ar + br), ei = half * (ai - bi);  // E[k]
      const V hr = half * (ar - br), hi = half * (ai + bi);  // i O[k]
      const V tr = c * hr - d * hi, ti = c * hi + d * hr;    // w_k i O[k]
      const V xr = er + ti, xi = ei - tr;                    // E + w_k O
      const V yr = er - ti, yi = ei + tr;                    // E - w_k O
      (xr * xr + xi * xi).store(rk);
      (yr * yr + yi * yi).store(rc);
    }
  }
}

template <typename V>
void mel_bands_batch_body(const BandTables& t, const double* power,
                          std::size_t count, double* out,
                          std::size_t stride) {
  constexpr std::size_t kGroups = kBatch / V::kWidth;
  for (std::size_t m = 0; m < t.bands; ++m) {
    V acc[kGroups];
    for (V& a : acc) a = V::broadcast(0.0);
    for (std::size_t j = t.offset[m]; j < t.offset[m + 1]; ++j) {
      const V w = V::broadcast(t.weight[j]);
      const double* p = power + kBatch * t.bin[j];
      for (std::size_t g = 0; g < kGroups; ++g)
        acc[g] = acc[g] + w * V::load(p + g * V::kWidth);
    }
    double lanes[kBatch];
    for (std::size_t g = 0; g < kGroups; ++g)
      acc[g].store(lanes + g * V::kWidth);
    for (std::size_t l = 0; l < count; ++l) out[m * stride + l] = lanes[l];
  }
}

}  // namespace
}  // namespace beesim::dsp::detail
