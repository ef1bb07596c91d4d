#pragma once

// The naive DSP/ML kernels, and exact and near matrix comparisons
// against them. Each kernel of the queen-detection front end has one
// production path: the batched STFT (dsp::StftPlan, one batch of frames
// per stft_power_batch call on every dispatch tier), the batched banded
// mel filterbank, the row-chunked dB pass and the row-blocked im2col + GEMM
// convolution. Their oracles are the code they replaced: a radix-2 FFT
// whose twiddles drift by repeated multiplication, one complex transform
// per STFT frame over a reflect-padded copy, the planned per-frame real
// FFT (FftPlan / RealFftPlan below, the former src/dsp/fft code with
// its scalar stage loop), the dense bin-by-bin filterbank apply over a
// whole bins x frames matrix and the 6-deep convolution loop nest. The
// serial planned frame loop, the serial dB loop and their composition
// into the CNN image are what the batched mel front end must equal bit
// for bit, and the whole-image im2col + GEMM loop is what the row blocks
// must equal bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/matrix.hpp"
#include "dsp/mel.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/stft.hpp"
#include "dsp/window.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/precision.hpp"
#include "ml/tensor.hpp"

namespace beesim::oracle {

using Complex = std::complex<double>;

/// In-place iterative radix-2 Cooley-Tukey FFT, forward (e^{-i2pi/N}).
/// Each stage's twiddle advances by repeated multiplication (w *= wlen),
/// so it drifts from the exact value; FftPlan below computes every
/// twiddle directly, and the two agree to ~1e-9 relative.
inline void fft(std::vector<Complex>& data) {
  const std::size_t n = data.size();
  if (!dsp::is_power_of_two(n))
    throw std::invalid_argument("oracle::fft: size must be a power of two");
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {  // bit-reversal permutation
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

/// The n/2 + 1 non-redundant bins of a real signal (numpy.fft.rfft),
/// through the full n-point complex transform.
inline std::vector<Complex> rfft(const std::vector<double>& signal) {
  std::vector<Complex> buf(signal.begin(), signal.end());
  fft(buf);
  buf.resize(signal.size() / 2 + 1);
  return buf;
}

/// Precomputed forward complex FFT of a fixed power-of-two size:
/// iterative radix-2 Cooley-Tukey with the e^{-i2pi/N} convention,
/// bit-reversal permutation plus exact per-stage twiddle tables, and
/// one stage after another over the whole array. dsp::StftPlan's tables
/// hold the same permutation and twiddles, and every lane of its
/// stft_power_batch kernel runs these butterflies in this order.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n) : n_(n) {
    if (!dsp::is_power_of_two(n))
      throw std::invalid_argument("FftPlan: size must be a power of two");
    bitrev_.resize(n);
    std::size_t j = 0;
    bitrev_[0] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = j;
    }
    // Per-stage twiddles exp(-i 2pi k / len), concatenated; each value is
    // computed directly (no incremental drift). Total n - 1 entries.
    twiddles_.reserve(n > 1 ? n - 1 : 0);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double a = angle * static_cast<double>(k);
        twiddles_.emplace_back(std::cos(a), std::sin(a));
      }
    }
  }

  std::size_t size() const noexcept { return n_; }

  /// In-place forward transform of exactly size() elements.
  void forward(Complex* data) const noexcept {
    const std::size_t n = n_;
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    const Complex* tw = twiddles_.data();
    for (std::size_t len = 2; len <= n; len <<= 1) {
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
      tw += half;
    }
  }

  void forward(std::vector<Complex>& data) const {
    if (data.size() != n_)
      throw std::invalid_argument("FftPlan::forward: size mismatch");
    forward(data.data());
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> bitrev_;  // permutation: i -> reversed(i)
  std::vector<Complex> twiddles_;    // stages concatenated, n_ - 1 entries
};

/// Real-input forward FFT of a fixed power-of-two size N, one frame at a
/// time: packs the N real samples into an N/2 complex sequence, runs an
/// N/2 complex FFT through an FftPlan, and untangles the even/odd spectra
/// with a precomputed e^{-i2pi k/N} post-processing table. power() is the
/// per-frame reference of dsp::StftPlan's batched kernel.
class RealFftPlan {
 public:
  explicit RealFftPlan(std::size_t n) : n_(n), half_(n >= 2 ? n / 2 : 1) {
    if (!dsp::is_power_of_two(n))
      throw std::invalid_argument("RealFftPlan: size must be a power of two");
    // Untangling needs exp(-i 2pi k / n) for k = 1 .. n/4 only, but the
    // table is tiny; store k = 0 .. n/4 for direct indexing.
    post_.reserve(n / 4 + 1);
    for (std::size_t k = 0; k <= n / 4; ++k) {
      const double a = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n);
      post_.emplace_back(std::cos(a), std::sin(a));
    }
  }

  std::size_t size() const noexcept { return n_; }
  std::size_t bins() const noexcept { return n_ / 2 + 1; }
  std::size_t scratch_size() const noexcept { return n_ / 2; }

  /// out[0..bins()) = the half spectrum of in[0..size()) (numpy.fft.rfft);
  /// scratch holds scratch_size() elements (unused for n == 1).
  void transform(const double* in, Complex* out, Complex* scratch) const {
    if (n_ == 1) {
      out[0] = Complex(in[0], 0.0);
      return;
    }
    const std::size_t m = n_ / 2;
    // Pack even samples into the real lane, odd samples into the
    // imaginary lane, and transform the half-size complex sequence.
    for (std::size_t j = 0; j < m; ++j)
      scratch[j] = Complex(in[2 * j], in[2 * j + 1]);
    half_.forward(scratch);

    // Untangle: Z[k] = E[k] + i O[k] with E/O the even/odd half-spectra;
    // X[k] = E[k] + e^{-i2pi k/n} O[k] and X[m-k] = conj(E[k] - w O[k]).
    const Complex z0 = scratch[0];
    out[0] = Complex(z0.real() + z0.imag(), 0.0);
    out[m] = Complex(z0.real() - z0.imag(), 0.0);
    for (std::size_t k = 1; k <= m / 2; ++k) {
      const Complex zk = scratch[k];
      const Complex zc = std::conj(scratch[m - k]);
      const Complex even = 0.5 * (zk + zc);
      const Complex t = post_[k] * (0.5 * (zk - zc));  // w_k * (i O[k])
      const Complex u(t.imag(), -t.real());            // w_k * O[k]
      out[k] = even + u;
      out[m - k] = std::conj(even - u);
    }
  }

  /// |transform(in)|^2 into out_power[0..bins()): the STFT inner loop.
  void power(const double* in, double* out_power, Complex* scratch) const {
    if (n_ == 1) {
      out_power[0] = in[0] * in[0];
      return;
    }
    const std::size_t m = n_ / 2;
    for (std::size_t j = 0; j < m; ++j)
      scratch[j] = Complex(in[2 * j], in[2 * j + 1]);
    half_.forward(scratch);

    const Complex z0 = scratch[0];
    const double dc = z0.real() + z0.imag();
    const double nyquist = z0.real() - z0.imag();
    out_power[0] = dc * dc;
    out_power[m] = nyquist * nyquist;
    for (std::size_t k = 1; k <= m / 2; ++k) {
      const Complex zk = scratch[k];
      const Complex zc = std::conj(scratch[m - k]);
      const Complex even = 0.5 * (zk + zc);
      const Complex t = post_[k] * (0.5 * (zk - zc));
      const Complex u(t.imag(), -t.real());
      out_power[k] = std::norm(even + u);
      out_power[m - k] = std::norm(even - u);  // |conj(z)|^2 == |z|^2
    }
  }

  /// Convenience allocating form.
  std::vector<Complex> transform(const std::vector<double>& in) const {
    if (in.size() != n_)
      throw std::invalid_argument("RealFftPlan::transform: size mismatch");
    std::vector<Complex> scratch(scratch_size());
    std::vector<Complex> out(bins());
    transform(in.data(), out.data(), scratch.data());
    return out;
  }

 private:
  std::size_t n_;
  FftPlan half_;               // complex plan of size n/2 (n >= 2)
  std::vector<Complex> post_;  // e^{-i2pi k/n}, k = 0 .. n/4
};

/// Dense filterbank apply, (bands x bins) on (bins x frames): every bin
/// of every band, zero weights skipped, bins ascending — the
/// accumulation order each lane of dsp::BandedFilterbank::apply
/// reproduces.
inline dsp::Matrix apply_filterbank(const dsp::Matrix& filterbank,
                                    const dsp::Matrix& power) {
  if (filterbank.cols() != power.rows())
    throw std::invalid_argument(
        "oracle::apply_filterbank: filterbank cols != spectrum bins");
  dsp::Matrix out(filterbank.rows(), power.cols());
  for (std::size_t m = 0; m < filterbank.rows(); ++m)
    for (std::size_t b = 0; b < filterbank.cols(); ++b) {
      const double w = filterbank(m, b);
      if (w == 0.0) continue;
      for (std::size_t f = 0; f < power.cols(); ++f)
        out(m, f) += w * power(b, f);
    }
  return out;
}

/// Per-band time means of a (bands x frames) dB spectrogram, frames
/// summed in order: the SVM feature vector.
inline std::vector<double> band_means(const dsp::Matrix& db) {
  std::vector<double> means(db.rows());
  for (std::size_t m = 0; m < db.rows(); ++m) {
    double acc = 0.0;
    for (std::size_t f = 0; f < db.cols(); ++f) acc += db(m, f);
    means[m] = acc / static_cast<double>(db.cols());
  }
  return means;
}

/// |STFT|^2 one frame at a time on the calling thread: the signal is
/// reflect-padded by n_fft/2 like librosa when p.center (mirrored around
/// the end samples, which are not repeated), each frame is multiplied by
/// the periodic Hann window, and frame_power(frame, column) writes the
/// frame's n_fft/2 + 1 bins.
template <typename FramePower>
dsp::Matrix stft_loop(const std::vector<double>& x, const dsp::StftParams& p,
                      FramePower frame_power) {
  std::vector<double> padded;
  if (p.center) {
    const std::size_t pad = p.n_fft / 2;
    for (std::size_t i = pad; i > 0; --i) padded.push_back(x[i]);
    padded.insert(padded.end(), x.begin(), x.end());
    for (std::size_t i = 0; i < pad; ++i)
      padded.push_back(x[x.size() - 2 - i]);
  } else {
    padded = x;
  }
  const std::size_t frames = (padded.size() - p.n_fft) / p.hop + 1;
  const std::vector<double> window = dsp::hann_window(p.n_fft);
  dsp::Matrix out(p.n_fft / 2 + 1, frames);
  std::vector<double> frame(p.n_fft);
  std::vector<double> column(out.rows());
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t i = 0; i < p.n_fft; ++i)
      frame[i] = padded[f * p.hop + i] * window[i];
    frame_power(frame, column);
    for (std::size_t b = 0; b < out.rows(); ++b) out(b, f) = column[b];
  }
  return out;
}

/// The naive STFT: the full complex FFT of every frame (rfft above), one
/// spectrum allocation per frame. Matches dsp::stft_power to ~1e-9
/// relative.
inline dsp::Matrix stft_power_naive(const std::vector<double>& x,
                                    const dsp::StftParams& p) {
  return stft_loop(x, p, [](const std::vector<double>& frame,
                            std::vector<double>& column) {
    const auto spectrum = rfft(frame);
    for (std::size_t b = 0; b < column.size(); ++b)
      column[b] = std::norm(spectrum[b]);
  });
}

/// The serial planned STFT: RealFftPlan::power per frame, on one
/// thread. dsp::stft_power, which transforms a batch of frames per kernel
/// call and splits the batches into chunks across the task pool, must equal
/// it bit for bit on every dispatch tier.
inline dsp::Matrix stft_power_serial(const std::vector<double>& x,
                                     const dsp::StftParams& p) {
  const RealFftPlan plan(p.n_fft);
  std::vector<Complex> scratch(plan.scratch_size());
  return stft_loop(x, p, [&](const std::vector<double>& frame,
                             std::vector<double>& column) {
    plan.power(frame.data(), column.data(), scratch.data());
  });
}

/// librosa.power_to_db (ref = the maximum, amin 1e-10, floor at
/// -top_db) one element at a time on the calling thread: the loop
/// dsp::power_to_db splits into row chunks across the task pool.
inline dsp::Matrix power_to_db_serial(const dsp::Matrix& power,
                                      double top_db = 80.0) {
  constexpr double kAmin = 1e-10;
  const double ref = std::max(
      *std::max_element(power.storage().begin(), power.storage().end()),
      kAmin);
  dsp::Matrix out(power.rows(), power.cols());
  for (std::size_t r = 0; r < power.rows(); ++r)
    for (std::size_t c = 0; c < power.cols(); ++c)
      out(r, c) = std::max(
          10.0 * std::log10(std::max(power(r, c), kAmin) / ref), -top_db);
  return out;
}

/// The (n_mels x frames) mel power spectrogram the long way round: the
/// whole serial planned STFT matrix (center=true), then the dense
/// filterbank apply over it.
inline dsp::Matrix mel_power_serial(const std::vector<double>& x,
                                    const dsp::MelSpectrogram::Params& mp) {
  dsp::StftParams sp;
  sp.n_fft = mp.n_fft;
  sp.hop = mp.hop;
  return apply_filterbank(dsp::mel_filterbank(mp.n_mels, mp.n_fft,
                                              mp.sample_rate, mp.fmin,
                                              mp.fmax),
                          stft_power_serial(x, sp));
}

/// The CNN input image of a mel power spectrogram: serial dB, bilinear
/// resize to side x side, then scaled to [0, 1] by the image's own min
/// and max.
inline dsp::Matrix mel_image(const dsp::Matrix& mel, std::size_t side) {
  dsp::Matrix img =
      dsp::resize_bilinear(power_to_db_serial(mel), side, side);
  const auto& v = img.storage();
  const double lo = *std::min_element(v.begin(), v.end());
  const double hi = *std::max_element(v.begin(), v.end());
  const double span = hi > lo ? hi - lo : 1.0;
  for (std::size_t r = 0; r < img.rows(); ++r)
    for (std::size_t c = 0; c < img.cols(); ++c)
      img(r, c) = (img(r, c) - lo) / span;
  return img;
}

/// The 6-deep convolution loop nest (stride 1, "same" zero padding) over
/// the layer's own weights and bias, in f32: the bias plus the kernel
/// taps in (in channel, ky, kx) order. ml::Conv2d::forward's im2col +
/// GEMM accumulates in another order, so the two agree to float
/// tolerance.
inline ml::Tensor conv2d_forward(const ml::Conv2d& conv,
                                 const ml::Tensor& input) {
  const ml::Tensor& weights = conv.weights();  // (out, in, k, k)
  const std::size_t out_ch = weights.dim(0);
  const std::size_t in_ch = weights.dim(1);
  const std::size_t k = weights.dim(2);
  std::vector<float> params;
  conv.append_parameters(params);  // weights, then the out_ch biases
  const float* bias = params.data() + weights.size();
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  ml::Tensor out({n, out_ch, h, w});
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t oc = 0; oc < out_ch; ++oc)
      for (std::size_t y = 0; y < h; ++y)
        for (std::size_t x = 0; x < w; ++x) {
          float acc = bias[oc];
          for (std::size_t ic = 0; ic < in_ch; ++ic) {
            const float* plane = input.data() + (b * in_ch + ic) * h * w;
            const float* wk = weights.data() + (oc * in_ch + ic) * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y + ky) - pad;
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x + kx) - pad;
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                acc += plane[static_cast<std::size_t>(iy) * w +
                             static_cast<std::size_t>(ix)] *
                       wk[ky * k + kx];
              }
            }
          }
          out[((b * out_ch + oc) * h + y) * w + x] = acc;
        }
  return out;
}

/// The whole-image im2col lowering: all height*width columns of one
/// (channels x height x width) image at once, row (ic*kernel + ky)*kernel
/// + kx, column y*width + x holding input(ic, y+ky-pad, x+kx-pad) or 0
/// outside the image. ml::im2col_same lowers one row range instead.
inline void im2col_image(const float* image, std::size_t channels,
                         std::size_t height, std::size_t width,
                         std::size_t kernel, std::vector<float>& out) {
  const std::size_t pad = kernel / 2;
  const std::size_t cols = height * width;
  out.resize(channels * kernel * kernel * cols);
  float* dst = out.data();
  for (std::size_t ic = 0; ic < channels; ++ic) {
    const float* plane = image + ic * cols;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        for (std::size_t y = 0; y < height; ++y) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(y + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) {
            std::memset(dst, 0, width * sizeof(float));
            dst += width;
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(iy) * width;
          const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                       static_cast<std::ptrdiff_t>(pad);
          if (shift < 0) {
            const auto lead =
                std::min(static_cast<std::size_t>(-shift), width);
            std::memset(dst, 0, lead * sizeof(float));
            std::memcpy(dst + lead, src, (width - lead) * sizeof(float));
          } else {
            const auto s = std::min(static_cast<std::size_t>(shift), width);
            std::memcpy(dst, src + s, (width - s) * sizeof(float));
            std::memset(dst + width - s, 0, s * sizeof(float));
          }
          dst += width;
        }
      }
    }
  }
}

/// ml::Conv2d's inference forward as one whole-image im2col and one
/// dispatched GEMM per image on the calling thread: f32, or int8 with
/// the weights quantized per row and the activations over the whole
/// im2col matrix. Conv2d::forward's row blocks (each with the image's
/// own scale at int8) must equal it bit for bit.
inline ml::Tensor conv2d_gemm(const ml::Conv2d& conv, const ml::Tensor& input,
                              ml::Precision precision) {
  const ml::Tensor& weights = conv.weights();  // (out, in, k, k)
  const std::size_t out_ch = weights.dim(0);
  const std::size_t in_ch = weights.dim(1);
  const std::size_t k = weights.dim(2);
  std::vector<float> params;
  conv.append_parameters(params);  // weights, then the out_ch biases
  const float* wt = weights.data();
  const float* bias = params.data() + weights.size();
  const std::size_t n = input.dim(0);
  const std::size_t cols = input.dim(2) * input.dim(3);
  const std::size_t kdim = in_ch * k * k;
  const ml::QuantizedRows wt_s8 = ml::quantize_rows_s8(wt, out_ch, kdim);
  ml::Tensor out({n, out_ch, input.dim(2), input.dim(3)});
  const float* in = input.data();
  float* o = out.data();
  std::vector<float> buf;
  for (std::size_t b = 0; b < n; ++b) {
    im2col_image(in + b * in_ch * cols, in_ch, input.dim(2), input.dim(3), k,
                 buf);
    float* obatch = o + b * out_ch * cols;
    if (precision == ml::Precision::kInt8) {
      const ml::QuantizedTensor act =
          ml::quantize_tensor_s8(buf.data(), buf.size());
      ml::sgemm_bias_s8(out_ch, cols, kdim, wt_s8.values.data(),
                        wt_s8.scales.data(), act.values.data(), act.scale,
                        bias, obatch);
    } else {
      ml::sgemm_bias(out_ch, cols, kdim, wt, buf.data(), bias, obatch);
    }
  }
  return out;
}

/// Equal bit patterns, element by element (NaNs included).
inline void expect_tensors_identical(const ml::Tensor& a,
                                     const ml::Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "at " << i << ": " << a[i] << " vs " << b[i];
}

inline void expect_matrices_identical(const dsp::Matrix& a,
                                      const dsp::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_EQ(a(r, c), b(r, c)) << "at (" << r << ", " << c << ")";
}

/// |a - b| <= rel_tol * max(1, max |b|) element-wise.
inline void expect_matrices_close(const dsp::Matrix& a, const dsp::Matrix& b,
                                  double rel_tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  double scale = 1.0;
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c)
      scale = std::max(scale, std::abs(b(r, c)));
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_NEAR(a(r, c), b(r, c), rel_tol * scale)
          << "at (" << r << ", " << c << ")";
}

}  // namespace beesim::oracle
