#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

#include "dsp/dispatch.hpp"

namespace beesim::dsp {

/// Raw-pointer kernel entry points behind the runtime CPU dispatch
/// (dsp/dispatch.hpp). Every tier of every kernel is bit-identical to the
/// scalar tier by construction: vector lanes carry independent elements
/// through the same IEEE operations in the same per-element order, mul
/// and add are never fused into an FMA the scalar code does not perform
/// (the AVX2 translation unit compiles with -ffp-contract=off), and the
/// int8 path accumulates in exact i32 arithmetic, fusing only the final
/// dequantization where the scalar tier calls std::fma (both correctly
/// rounded). Equivalence is fuzz-tested in tests/test_simd.cpp.

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

  /// One radix-2 FFT stage over data[0..n): for each block of `len`
  /// elements, the butterfly u +/- hi*tw with the stage's `len/2`
  /// twiddles (FftPlan::forward contract).
  void (*fft_stage)(std::complex<double>* data, std::size_t n,
                    std::size_t len, const std::complex<double>* tw);

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
