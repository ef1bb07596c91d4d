#pragma once

#include <cstddef>
#include <cstdint>

namespace beesim::ml {

/// Row-major single-precision GEMM with a broadcast row bias:
///   C[i, j] = bias[i] + sum_k A[i, k] * B[k, j]
/// A is (m x k), B is (k x n), C is (m x n, fully overwritten).
/// Dispatched at runtime to the best SIMD tier (dsp/dispatch.hpp); every
/// tier is bit-identical to the scalar register-blocked reference. This
/// is the conv fast path's compute kernel.
void sgemm_bias(std::size_t m, std::size_t n, std::size_t k,
                const float* a, const float* b, const float* bias,
                float* c);

/// Symmetric-int8 sgemm_bias: per-row scales for A (weights), one tensor
/// scale for B (activations), exact i32 accumulation, fused f32
/// dequantization (see dsp::KernelTable::sgemm_bias_s8).
void sgemm_bias_s8(std::size_t m, std::size_t n, std::size_t k,
                   const std::int8_t* a, const float* a_scales,
                   const std::int8_t* b, float b_scale, const float* bias,
                   float* c);

/// Lowers output rows [row_begin, row_end) of one (channels x height x
/// width) image to the im2col matrix of a stride-1 "same"-padded
/// kernel-sized convolution: row (ic*kernel + ky)*kernel + kx, column
/// (y - row_begin)*width + x holds input(ic, y+ky-pad, x+kx-pad), or 0
/// outside the image. `out` receives (channels*kernel*kernel) x
/// ((row_end - row_begin)*width) floats. Each row block of Conv2d's
/// forward pass lowers only its own rows.
void im2col_same(const float* image, std::size_t channels,
                 std::size_t height, std::size_t width, std::size_t kernel,
                 std::size_t row_begin, std::size_t row_end, float* out);

}  // namespace beesim::ml
