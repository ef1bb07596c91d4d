#include "ml/costmodel.hpp"

#include <cmath>
#include <stdexcept>

namespace beesim::ml {
namespace {

struct ConvShape {
  std::size_t out_channels;
  std::size_t kernel;
  std::size_t stride;
};

double conv_flops(std::size_t in_ch, const ConvShape& c, std::size_t side) {
  const std::size_t out_side =
      (side + c.stride - 1) / c.stride;  // same padding
  const double macs = static_cast<double>(c.out_channels) *
                      static_cast<double>(out_side) *
                      static_cast<double>(out_side) *
                      static_cast<double>(in_ch) *
                      static_cast<double>(c.kernel) *
                      static_cast<double>(c.kernel);
  return 2.0 * macs;
}

}  // namespace

double resnet18_flops(std::size_t input_side) {
  if (input_side < 8)
    throw std::invalid_argument("resnet18_flops: side too small");
  double flops = 0.0;
  std::size_t side = input_side;
  // Stem: 7x7, stride 2, 64 channels; then 3x3 maxpool stride 2.
  flops += conv_flops(1, {64, 7, 2}, side);
  side = (side + 1) / 2;
  side = (side + 1) / 2;  // maxpool
  // Four stages of two BasicBlocks (two 3x3 convs each).
  const std::size_t widths[4] = {64, 128, 256, 512};
  std::size_t in_ch = 64;
  for (int stage = 0; stage < 4; ++stage) {
    const std::size_t w = widths[stage];
    const std::size_t stride = stage == 0 ? 1 : 2;
    // Block 1 (possibly strided, with 1x1 projection when shape changes).
    flops += conv_flops(in_ch, {w, 3, stride}, side);
    side = (side + stride - 1) / stride;
    flops += conv_flops(w, {w, 3, 1}, side);
    if (stride != 1 || in_ch != w)
      flops += conv_flops(in_ch, {w, 1, stride}, side * stride);
    // Block 2.
    flops += conv_flops(w, {w, 3, 1}, side);
    flops += conv_flops(w, {w, 3, 1}, side);
    in_ch = w;
  }
  // Global average pool + 2-class head (negligible but counted).
  flops += static_cast<double>(in_ch) * static_cast<double>(side) *
           static_cast<double>(side);
  flops += 2.0 * static_cast<double>(in_ch) * 2.0;
  return flops;
}

double svm_flops(std::size_t support_vectors, std::size_t dims) {
  // Per SV: d subtractions, d multiplies, d adds, one exp (~20 flops).
  return static_cast<double>(support_vectors) *
         (3.0 * static_cast<double>(dims) + 20.0);
}

double mel_frontend_flops(double clip_seconds, double sample_rate,
                          std::size_t n_fft, std::size_t hop,
                          std::size_t n_mels) {
  if (clip_seconds <= 0.0)
    throw std::invalid_argument("mel_frontend_flops: bad clip length");
  const double samples = clip_seconds * sample_rate;
  const double frames = samples / static_cast<double>(hop) + 1.0;
  const double n = static_cast<double>(n_fft);
  // Radix-2 FFT: ~5 n log2(n) flops, plus window multiply and |.|^2.
  const double per_frame = 5.0 * n * std::log2(n) + 3.0 * n;
  // Filterbank: each mel band touches ~2*n_fft/n_mels bins.
  const double fb = static_cast<double>(n_mels) *
                    (2.0 * n / static_cast<double>(n_mels)) * 2.0;
  return frames * (per_frame + fb);
}

double precision_throughput_scale(Precision p) noexcept {
  // Committed calibration constant: the measured GEMM throughput ratio
  // from bench/kernels_microbench (BM_GemmInt8 over BM_GemmF32Avx2,
  // conv-shaped m=16, n=2500, k=144) on the reference machine, rounded
  // to one digit. See EXPERIMENTS.md "Reduced-precision inference".
  return p == Precision::kInt8 ? 1.8 : 1.0;
}

DeviceComputeModel rpi_cnn_compute(Precision p) {
  // Table I: CNN inference on the RPi takes 37.6 s at 2.521 W (94.8 J)
  // with a 100x100 input.
  const double flops_at_100 = resnet18_flops(100);
  DeviceComputeModel m;
  m.effective_flops_per_s =
      flops_at_100 / 37.6 * precision_throughput_scale(p);
  m.active_power = 94.8 / 37.6;
  return m;
}

DeviceComputeModel cloud_cnn_compute() {
  // Table II: CNN inference on the server takes 1.0 s at 108 W.
  const double flops_at_100 = resnet18_flops(100);
  DeviceComputeModel m;
  m.effective_flops_per_s = flops_at_100 / 1.0;
  m.active_power = 108.0;
  return m;
}

util::Joules edge_cnn_prediction_energy(std::size_t input_side,
                                        Precision p) {
  return rpi_cnn_compute(p).energy_for(resnet18_flops(input_side));
}

}  // namespace beesim::ml
