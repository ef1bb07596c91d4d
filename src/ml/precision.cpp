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
    const float* row = data + r * cols;
    float maxabs = 0.0f;
    for (std::size_t c = 0; c < cols; ++c)
      maxabs = std::max(maxabs, std::fabs(row[c]));
    const float scale = maxabs / 127.0f;
    q.scales[r] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      // nearbyint in the default round-to-nearest-even mode; the clamp
      // guards the maxabs element itself rounding to 128 (it cannot:
      // maxabs * inv == 127 exactly only up to rounding, so keep it).
      const float v = std::nearbyint(row[c] * inv);
      q.values[r * cols + c] = static_cast<std::int8_t>(
          std::max(-127.0f, std::min(127.0f, v)));
    }
  }
  return q;
}

QuantizedTensor quantize_tensor_s8(const float* data, std::size_t count) {
  QuantizedTensor q;
  q.values.resize(count);
  float maxabs = 0.0f;
  for (std::size_t i = 0; i < count; ++i)
    maxabs = std::max(maxabs, std::fabs(data[i]));
  q.scale = maxabs / 127.0f;
  const float inv = q.scale > 0.0f ? 1.0f / q.scale : 0.0f;
  for (std::size_t i = 0; i < count; ++i) {
    const float v = std::nearbyint(data[i] * inv);
    q.values[i] =
        static_cast<std::int8_t>(std::max(-127.0f, std::min(127.0f, v)));
  }
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
