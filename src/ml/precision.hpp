#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace beesim::ml {

/// Numeric storage/compute type for inference, passed with each forward
/// call (Layer::forward, Network::forward). Training is always f32;
/// kInt8 applies to Conv2d/Linear forward passes when gradients are not
/// required (layers.cpp), modelling the quantized deployments the
/// paper's Raspberry Pi edge node would actually run: symmetric per-row
/// (per-output-channel) weight quantization and per-tensor activation
/// quantization, exact i32 accumulation, fused f32 dequantization.
enum class Precision { kF32, kInt8 };

/// Parses "f32" or "int8" (the `precision=` bench argument); throws
/// std::invalid_argument on anything else.
Precision precision_from_name(const std::string& name);

const char* precision_name(Precision p) noexcept;

/// Quantized view of a row-major f32 matrix: one symmetric scale per row
/// (scale = max|row| / 127, zero-point 0), int8 values rounded to
/// nearest-even via std::nearbyint. Rows of all zeros get scale 0.
struct QuantizedRows {
  std::vector<std::int8_t> values;
  std::vector<float> scales;  ///< one per row
};

QuantizedRows quantize_rows_s8(const float* data, std::size_t rows,
                               std::size_t cols);

/// Per-tensor symmetric int8 quantization (activations): one scale for
/// the whole buffer.
struct QuantizedTensor {
  std::vector<std::int8_t> values;
  float scale = 0.0f;
};

QuantizedTensor quantize_tensor_s8(const float* data, std::size_t count);

/// quantize_tensor_s8's two steps. The scale is max|x| / 127 over the
/// buffer's non-NaN elements (0 for an all-zero buffer); the apply step
/// writes x / scale rounded to nearest-even and clamped to [-127, 127]
/// (all 0 when scale is 0). Conv2d takes the scale from the image once
/// and applies it to each block of its im2col rows.
float tensor_scale_s8(const float* data, std::size_t count);
void quantize_s8(const float* data, std::size_t count, float scale,
                 std::int8_t* out);

/// Round-trips for tests and for the reference accuracy-delta analysis.
std::vector<float> dequantize_rows_s8(const QuantizedRows& q,
                                      std::size_t rows, std::size_t cols);

}  // namespace beesim::ml
