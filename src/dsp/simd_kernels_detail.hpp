#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/simd_kernels.hpp"

// Internal per-tier entry points shared between the baseline translation
// unit (simd_kernels.cpp: scalar reference + SSE2), the AVX2 unit
// (kernels_avx2.cpp, compiled with -mavx2 -mfma -ffp-contract=off) and
// the AVX-512 unit (kernels_avx512.cpp, -mavx512f -ffp-contract=off).
// Not part of the public kernel API — callers go through
// dsp::kernel_table().

namespace beesim::dsp::detail {

// Scalar reference tier (always available; the bit-identity oracle).
void sgemm_bias_f32_scalar(std::size_t m, std::size_t n, std::size_t k,
                           const float* a, const float* b, const float* bias,
                           float* c);
void sgemm_bias_s8_scalar(std::size_t m, std::size_t n, std::size_t k,
                          const std::int8_t* a, const float* a_scales,
                          const std::int8_t* b, float b_scale,
                          const float* bias, float* c);
void stft_power_batch_scalar(const StftTables& t, const double* const* frames,
                             double* scratch);
void mel_bands_batch_scalar(const BandTables& t, const double* power,
                            std::size_t count, double* out,
                            std::size_t stride);
void welford5_add_scalar(Welford5* s, const double* xs, std::size_t count);

// AVX2 tier (kernels_avx2.cpp; forwards to the scalar tier when that TU
// is built without AVX2 support, e.g. on non-x86 targets).
void sgemm_bias_f32_avx2(std::size_t m, std::size_t n, std::size_t k,
                         const float* a, const float* b, const float* bias,
                         float* c);
void sgemm_bias_s8_avx2(std::size_t m, std::size_t n, std::size_t k,
                        const std::int8_t* a, const float* a_scales,
                        const std::int8_t* b, float b_scale,
                        const float* bias, float* c);
void stft_power_batch_avx2(const StftTables& t, const double* const* frames,
                           double* scratch);
void mel_bands_batch_avx2(const BandTables& t, const double* power,
                          std::size_t count, double* out, std::size_t stride);
void welford5_add_avx2(Welford5* s, const double* xs, std::size_t count);

// AVX-512 tier's batch kernels (kernels_avx512.cpp; forward to the AVX2
// tier when that TU is built without AVX-512F support).
void stft_power_batch_avx512(const StftTables& t, const double* const* frames,
                             double* scratch);
void mel_bands_batch_avx512(const BandTables& t, const double* power,
                            std::size_t count, double* out,
                            std::size_t stride);

}  // namespace beesim::dsp::detail
