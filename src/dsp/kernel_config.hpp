#pragma once

#include <string>

#include "dsp/dispatch.hpp"

namespace beesim::dsp {

/// Selects between the optimized fast-path kernels and the naive
/// reference implementations across the queen-detection substrate (the
/// slow kernels stay in the tree as executable documentation and as the
/// oracle for the equivalence tests in tests/test_dsp_kernels.cpp).
///
/// The switch is process-global and meant to be set once at startup
/// (benches accept `kernels=fast|reference`); flipping it concurrently
/// with running kernels is not supported.
struct KernelConfig {
  /// stft_power uses a precomputed RealFftPlan (packed N/2 complex FFT)
  /// instead of a full complex FFT with twiddles recomputed per frame.
  bool planned_fft = true;
  /// stft_power splits frames across util::parallel_for chunks with
  /// per-chunk scratch buffers (bit-identical to the serial order),
  /// including when nested inside an outer parallel region — the task
  /// pool composes nested regions without oversubscribing.
  bool parallel_stft = true;
  /// MelSpectrogram applies the filterbank over each band's nonzero bin
  /// range instead of scanning all n_fft/2+1 bins per band.
  bool banded_mel = true;
  /// Conv2d::forward lowers to im2col + register-blocked GEMM instead of
  /// the 6-deep nested loop.
  bool gemm_conv = true;
  /// SIMD dispatch tier request (dsp/dispatch.hpp): kAuto probes cpuid;
  /// an explicit tier caps dispatch at that tier (the `dispatch=` bench
  /// argument). Every tier is bit-identical, so this only moves speed.
  IsaRequest dispatch = IsaRequest::kAuto;

  static constexpr KernelConfig fast() noexcept {
    return KernelConfig{true, true, true, true, IsaRequest::kAuto};
  }
  static constexpr KernelConfig reference() noexcept {
    return KernelConfig{false, false, false, false, IsaRequest::kAuto};
  }
};

/// The active kernel selection (defaults to KernelConfig::fast()).
const KernelConfig& kernel_config() noexcept;
void set_kernel_config(const KernelConfig& config) noexcept;

/// Parses "fast" or "reference" (the `kernels=` bench argument); throws
/// std::invalid_argument on anything else.
KernelConfig kernel_config_from_name(const std::string& name);

}  // namespace beesim::dsp
