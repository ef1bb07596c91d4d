#include "ml/precision.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace beesim::ml {

Precision precision_from_name(const std::string& name) {
  if (name == "f32") return Precision::kF32;
  if (name == "int8") return Precision::kInt8;
  throw std::invalid_argument(
      "precision_from_name: expected 'f32' or 'int8', got '" + name + "'");
}

const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::kInt8: return "int8";
    case Precision::kF32: break;
  }
  return "f32";
}

QuantizedRows quantize_rows_s8(const float* data, std::size_t rows,
                               std::size_t cols) {
  QuantizedRows q;
  q.values.resize(rows * cols);
  q.scales.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    q.scales[r] = tensor_scale_s8(data + r * cols, cols);
    quantize_s8(data + r * cols, cols, q.scales[r], q.values.data() + r * cols);
  }
  return q;
}

float tensor_scale_s8(const float* data, std::size_t count) {
  // std::max keeps its first argument when the second is NaN, so NaNs
  // never reach the scale and the maximum is the same in any order.
  float maxabs = 0.0f;
  for (std::size_t i = 0; i < count; ++i)
    maxabs = std::max(maxabs, std::fabs(data[i]));
  return maxabs / 127.0f;
}

void quantize_s8(const float* data, std::size_t count, float scale,
                 std::int8_t* out) {
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  for (std::size_t i = 0; i < count; ++i) {
    // nearbyint in the default round-to-nearest-even mode; the clamp
    // guards the maxabs element itself rounding to 128 (it cannot:
    // maxabs * inv == 127 exactly only up to rounding, so keep it).
    const float v = std::nearbyint(data[i] * inv);
    out[i] = static_cast<std::int8_t>(std::max(-127.0f, std::min(127.0f, v)));
  }
}

QuantizedTensor quantize_tensor_s8(const float* data, std::size_t count) {
  QuantizedTensor q;
  q.values.resize(count);
  q.scale = tensor_scale_s8(data, count);
  quantize_s8(data, count, q.scale, q.values.data());
  return q;
}

std::vector<float> dequantize_rows_s8(const QuantizedRows& q,
                                      std::size_t rows, std::size_t cols) {
  std::vector<float> out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out[r * cols + c] =
          q.scales[r] * static_cast<float>(q.values[r * cols + c]);
  return out;
}

}  // namespace beesim::ml
