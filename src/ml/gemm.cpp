#include "ml/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "dsp/simd_kernels.hpp"

namespace beesim::ml {

// The register-blocked scalar panel kernel that used to live here moved
// verbatim to dsp/simd_kernels.cpp as the scalar dispatch tier; these
// wrappers route through the runtime-selected tier (dsp/dispatch.hpp).
// Every tier is bit-identical, so callers observe no numeric change.

void sgemm_bias(std::size_t m, std::size_t n, std::size_t k, const float* a,
                const float* b, const float* bias, float* c) {
  dsp::kernel_table().sgemm_bias(m, n, k, a, b, bias, c);
}

void sgemm_bias_s8(std::size_t m, std::size_t n, std::size_t k,
                   const std::int8_t* a, const float* a_scales,
                   const std::int8_t* b, float b_scale, const float* bias,
                   float* c) {
  dsp::kernel_table().sgemm_bias_s8(m, n, k, a, a_scales, b, b_scale, bias,
                                    c);
}

void im2col_same(const float* image, std::size_t channels,
                 std::size_t height, std::size_t width, std::size_t kernel,
                 std::size_t row_begin, std::size_t row_end, float* out) {
  const std::size_t pad = kernel / 2;
  const std::size_t cols = height * width;
  float* dst = out;
  for (std::size_t ic = 0; ic < channels; ++ic) {
    const float* plane = image + ic * cols;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        // Row (ic, ky, kx): for each output y the source row is
        // y + ky - pad, shifted horizontally by kx - pad, zero outside.
        for (std::size_t y = row_begin; y < row_end; ++y) {
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

}  // namespace beesim::ml
