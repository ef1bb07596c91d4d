#pragma once

// The one body of each four-lane batch kernel of dsp/simd_kernels.hpp
// (stft_power4, mel_bands4), templated on a four-lane vector type V.
// simd_kernels.cpp instantiates them for the scalar and SSE2 tiers and
// kernels_avx2.cpp for the AVX2 tier, which is compiled with
// -ffp-contract=off so no mul/add pair below fuses into an FMA. V
// provides load/store of four adjacent doubles, broadcast(x), load_pairs
// (lane l's samples i and i + 1 from frames[l]) and lane-wise +, - and
// *. Each lane runs one frame through the per-frame code's IEEE
// operations in their order, so every tier gives the same bits.
// Everything here has internal linkage: each tier's translation unit
// keeps its own copy, compiled for its own ISA.

#include <cstddef>

#include "dsp/simd_kernels.hpp"

namespace beesim::dsp::detail {
namespace {

constexpr std::size_t kLanes = 4;

/// The radix-2 butterfly on four lanes: v = x * w as the complex
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

/// One radix-2 stage over m points: per block of len points, point j
/// and j + len/2 take the butterfly with stage twiddle j.
template <typename V>
void stage(double* re, double* im, std::size_t m, std::size_t len,
           const StftTables& t) {
  const std::size_t half = len / 2;
  const double* wr = t.twiddle_re + (half - 1);
  const double* wi = t.twiddle_im + (half - 1);
  const std::size_t s = kLanes * half;
  for (std::size_t i = 0; i < m; i += len)
    for (std::size_t j = 0; j < half; ++j) {
      double* r = re + kLanes * (i + j);
      double* q = im + kLanes * (i + j);
      V ar = V::load(r), ai = V::load(q);
      V br = V::load(r + s), bi = V::load(q + s);
      butterfly(ar, ai, br, bi, V::broadcast(wr[j]), V::broadcast(wi[j]));
      ar.store(r);
      ai.store(q);
      br.store(r + s);
      bi.store(q + s);
    }
}

/// Stages len and 2 len in one pass (radix 2^2): per block of 2 len
/// points and j < len/2, points j, j + len/2, j + len and j + 3 len/2
/// take stage len's two butterflies with its twiddle j, then stage
/// 2 len's with its twiddles j and j + len/2. Each point sees the two
/// stages' operations in their order, with one load and one store.
template <typename V>
void stage_pair(double* re, double* im, std::size_t m, std::size_t len,
                const StftTables& t) {
  const std::size_t q = len / 2;
  const double* w1r = t.twiddle_re + (q - 1);
  const double* w1i = t.twiddle_im + (q - 1);
  const double* w2r = t.twiddle_re + (len - 1);
  const double* w2i = t.twiddle_im + (len - 1);
  const std::size_t s = kLanes * q;
  for (std::size_t i = 0; i < m; i += 2 * len)
    for (std::size_t j = 0; j < q; ++j) {
      double* r = re + kLanes * (i + j);
      double* p = im + kLanes * (i + j);
      V ar = V::load(r), ai = V::load(p);
      V br = V::load(r + s), bi = V::load(p + s);
      V cr = V::load(r + 2 * s), ci = V::load(p + 2 * s);
      V dr = V::load(r + 3 * s), di = V::load(p + 3 * s);
      const V w1re = V::broadcast(w1r[j]), w1im = V::broadcast(w1i[j]);
      butterfly(ar, ai, br, bi, w1re, w1im);
      butterfly(cr, ci, dr, di, w1re, w1im);
      butterfly(ar, ai, cr, ci, V::broadcast(w2r[j]), V::broadcast(w2i[j]));
      butterfly(br, bi, dr, di, V::broadcast(w2r[j + q]),
                V::broadcast(w2i[j + q]));
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

template <typename V>
void stft_power4_body(const StftTables& t, const double* const* frames,
                      double* scratch) {
  if (t.n_fft == 1) {  // one bin: the windowed sample squared
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double x = frames[l][0] * t.window[0];
      scratch[l] = x * x;
    }
    return;
  }
  const std::size_t m = t.n_fft / 2;
  double* re = scratch;
  double* im = scratch + kLanes * (m + 1);

  // Window and pack: the even sample is the real part and the odd one
  // the imaginary part of packed point j, stored at its bit-reversed
  // place.
  for (std::size_t j = 0; j < m; ++j) {
    V a, b;
    V::load_pairs(frames, 2 * j, a, b);
    const std::size_t to = kLanes * t.bitrev[j];
    (a * V::broadcast(t.window[2 * j])).store(re + to);
    (b * V::broadcast(t.window[2 * j + 1])).store(im + to);
  }

  std::size_t len = 2;
  for (; 2 * len <= m; len *= 4) stage_pair<V>(re, im, m, len, t);
  if (len <= m) stage<V>(re, im, m, len, t);

  // Untangle Z = E + iO into the half spectrum X[k] = E[k] + w_k O[k],
  // X[m - k] = conj(E[k] - w_k O[k]), w_k = e^{-i2pi k/n}, and write
  // |X|^2 over the real parts. At k = m/2 both writes hit one bin, and
  // the second one stays.
  const V zr = V::load(re), zi = V::load(im);
  const V dc = zr + zi;
  const V nyquist = zr - zi;
  (dc * dc).store(re);
  (nyquist * nyquist).store(re + kLanes * m);
  const V half = V::broadcast(0.5);
  for (std::size_t k = 1; k <= m / 2; ++k) {
    double* rk = re + kLanes * k;
    double* rc = re + kLanes * (m - k);
    const V ar = V::load(rk), ai = V::load(im + kLanes * k);
    const V br = V::load(rc), bi = V::load(im + kLanes * (m - k));
    const V er = half * (ar + br), ei = half * (ai - bi);  // E[k]
    const V hr = half * (ar - br), hi = half * (ai + bi);  // i O[k]
    const V c = V::broadcast(t.post_re[k]), d = V::broadcast(t.post_im[k]);
    const V tr = c * hr - d * hi, ti = c * hi + d * hr;    // w_k i O[k]
    const V xr = er + ti, xi = ei - tr;                    // E + w_k O
    const V yr = er - ti, yi = ei + tr;                    // E - w_k O
    (xr * xr + xi * xi).store(rk);
    (yr * yr + yi * yi).store(rc);
  }
}

template <typename V>
void mel_bands4_body(const BandTables& t, const double* power,
                     std::size_t count, double* out, std::size_t stride) {
  for (std::size_t m = 0; m < t.bands; ++m) {
    V acc = V::broadcast(0.0);
    for (std::size_t j = t.offset[m]; j < t.offset[m + 1]; ++j)
      acc = acc + V::broadcast(t.weight[j]) * V::load(power + kLanes * t.bin[j]);
    double lanes[kLanes];
    acc.store(lanes);
    for (std::size_t l = 0; l < count; ++l) out[m * stride + l] = lanes[l];
  }
}

}  // namespace
}  // namespace beesim::dsp::detail
