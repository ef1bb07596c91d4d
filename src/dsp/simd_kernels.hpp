#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/dispatch.hpp"

namespace beesim::dsp {

/// Raw-pointer kernel entry points behind the runtime CPU dispatch
/// (dsp/dispatch.hpp). Every tier of every kernel is bit-identical to the
/// scalar tier by construction: vector lanes carry independent elements
/// through the same IEEE operations in the same per-element order, mul
/// and add are never fused into an FMA the scalar code does not perform
/// (the AVX2 and AVX-512 translation units compile with
/// -ffp-contract=off), and the int8 path accumulates in exact i32
/// arithmetic, fusing only the final dequantization where the scalar tier
/// calls std::fma (both correctly rounded). The AVX-512 tier has its own
/// batch kernels (stft_power_batch, mel_bands_batch) and uses the AVX2
/// GEMM and Welford kernels. Equivalence is fuzz-tested in
/// tests/test_simd.cpp.

/// Five Welford accumulators advanced in lockstep — one per sweep
/// statistic of a fleet point (lost clients, active slots, edge / cloud /
/// total energy). All five see every sample, so a single shared n drives
/// the mean update of every lane; the SIMD tiers run four lanes in one
/// vector and the fifth in scalar, in the exact recurrence order of
/// util::RunningStats::add.
struct Welford5 {
  std::uint64_t n = 0;
  double mean[5];
  double m2[5];
  double sum[5];
  double min[5];
  double max[5];
};

/// One real-FFT size's precomputed tables, as stft_power_batch reads them
/// (dsp::StftPlan builds and owns them). Complex index j of the packed
/// n_fft/2-point sequence holds samples 2j and 2j + 1 and sits at
/// bitrev[j] before the first stage.
struct StftTables {
  std::size_t n_fft = 0;                ///< a power of two
  const double* window = nullptr;       ///< n_fft weights
  const std::size_t* bitrev = nullptr;  ///< n_fft/2 entries
  /// e^{-i2pi k/len} for each stage len = 2 .. n_fft/2 and k < len/2,
  /// stages concatenated (stage len starts at len/2 - 1), split into
  /// real and imaginary parts.
  const double* twiddle_re = nullptr;
  const double* twiddle_im = nullptr;
  /// e^{-i2pi k/n_fft} for k = 0 .. n_fft/4: the untangle's table.
  const double* post_re = nullptr;
  const double* post_im = nullptr;
};

/// A filterbank's nonzero weights, as mel_bands_batch reads them
/// (dsp::BandedFilterbank builds and owns them): band m's weights are
/// weight[offset[m] .. offset[m + 1]), on bins bin[...], ascending.
struct BandTables {
  std::size_t bands = 0;
  const std::size_t* offset = nullptr;  ///< bands + 1 entries
  const std::size_t* bin = nullptr;
  const double* weight = nullptr;
};

/// One dispatch tier's kernel set. Obtain via kernel_table().
struct KernelTable {
  /// Row-major f32 GEMM with broadcast row bias (ml::sgemm_bias
  /// contract): C[i,j] = bias[i] + sum_p A[i,p] * B[p,j].
  void (*sgemm_bias)(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, const float* bias,
                     float* c);

  /// Symmetric-int8 GEMM with i32 accumulation and fused dequantization:
  /// C[i,j] = fma(a_scales[i] * b_scale, (float)sum_p A[i,p]*B[p,j],
  /// bias[i]). Exact for k * 127^2 < 2^24 (k <= ~1000), far above every
  /// layer shape in the tree.
  void (*sgemm_bias_s8)(std::size_t m, std::size_t n, std::size_t k,
                        const std::int8_t* a, const float* a_scales,
                        const std::int8_t* b, float b_scale,
                        const float* bias, float* c);

  /// |rfft(window * frame)|^2 of one batch of StftPlan::kBatch frames,
  /// one per lane (StftPlan::for_each_frame contract): frames[l] points
  /// at lane l's t.n_fft samples, not yet windowed. The power of bin b of
  /// lane l lands in scratch[kBatch * b + l], b <= n_fft/2, over the real
  /// parts; scratch holds stft_scratch_size(t.n_fft) doubles (started on
  /// a cache line, no vector access splits one). Every lane runs the
  /// per-frame real FFT's operations in its order (windowing, an
  /// n_fft/2-point complex radix-2 FFT on the packed even/odd samples,
  /// the even/odd untangle), so each frame's bits do not depend on the
  /// other lanes.
  void (*stft_power_batch)(const StftTables& t, const double* const* frames,
                           double* scratch);

  /// The mel bands of one batch of frames, one per lane
  /// (BandedFilterbank::apply contract): power holds stft_power_batch's
  /// layout, bin b of lane l at power[kBatch * b + l]. Band m of lane l
  /// is the sum of weight[j] * power[kBatch * bin[j] + l] over the band's
  /// weights in order, one multiply and one add each into an
  /// accumulator starting at 0; lanes l < count land in
  /// out[m * stride + l].
  void (*mel_bands_batch)(const BandTables& t, const double* power,
                          std::size_t count, double* out, std::size_t stride);

  /// Feeds `count` samples of five values each (xs row-major, stride 5)
  /// into the lockstep accumulators.
  void (*welford5_add)(Welford5* s, const double* xs, std::size_t count);
};

/// The kernel set of the active dispatch tier (dsp::active_isa()).
const KernelTable& kernel_table() noexcept;

/// A specific tier's kernel set (equivalence tests). On CPUs missing a
/// tier the table degrades to the best supported implementations — still
/// bit-identical by the dispatch contract.
const KernelTable& kernel_table(IsaTier tier) noexcept;

}  // namespace beesim::dsp
