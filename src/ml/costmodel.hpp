#pragma once

#include "ml/precision.hpp"
#include "util/units.hpp"

namespace beesim::ml {

/// Floating-point operation counts for the models the paper deploys. Used
/// with DeviceComputeModel to produce the energy axis of Fig 5 (prediction
/// energy as a function of the CNN input side) — the paper observes the
/// cost "increases as a quadratic function of the number of pixels", which
/// is exactly how convolutional FLOPs scale.

/// Total forward FLOPs (2 x MACs) of a standard ResNet18 for a 1-channel
/// square input of the given side. Spatial sizes follow the stock
/// architecture (7x7/2 stem, maxpool/2, four 2-block stages at strides
/// 1/2/2/2, global average pool, 2-class head).
double resnet18_flops(std::size_t input_side);

/// Forward FLOPs of an RBF SVM with n_sv support vectors in d dimensions.
double svm_flops(std::size_t support_vectors, std::size_t dims);

/// Forward FLOPs of the mel-spectrogram front end for a clip of given
/// length: STFT (FFT per frame) + filterbank application.
double mel_frontend_flops(double clip_seconds, double sample_rate = 22050.0,
                          std::size_t n_fft = 2048, std::size_t hop = 512,
                          std::size_t n_mels = 128);

/// Effective compute throughput/power of a device executing an AI model.
/// Calibrated per device against the paper's measurements; the throughput
/// here is "end-to-end effective" (it folds framework overhead, memory
/// traffic, and feature extraction into one rate), which is why it is far
/// below the silicon's peak.
struct DeviceComputeModel {
  double effective_flops_per_s = 1.0;
  util::Watts active_power = 1.0;

  util::Seconds time_for(double flops) const { return flops /
                                                      effective_flops_per_s; }
  util::Joules energy_for(double flops) const {
    return time_for(flops) * active_power;
  }
};

/// Per-precision effective-throughput multiplier of the edge CPU GEMM
/// path, relative to f32 (= 1.0). The int8 constant is calibrated from
/// bench/kernels_microbench GEMM measurements on the repo's reference
/// machine and committed (like the 94.8 J Table I calibration) so the
/// precision-energy axis stays deterministic across hosts: int8
/// quadruples operand density and uses 2-way madd accumulation.
double precision_throughput_scale(Precision p) noexcept;

/// Raspberry Pi 3B+ running the CNN: calibrated so ResNet18 at 100x100
/// costs exactly Table I's 94.8 J / 37.6 s in f32. int8 scales
/// throughput by precision_throughput_scale at the same active power
/// (the vector units stay saturated), so energy drops by the same
/// factor.
DeviceComputeModel rpi_cnn_compute(Precision p = Precision::kF32);

/// Cloud server (RTX 2070) running the CNN: calibrated to Table II's
/// 108 J / 1.0 s at 100x100. Always f32 — the cloud side is GPU-bound
/// and the paper measures it only at full precision.
DeviceComputeModel cloud_cnn_compute();

/// Fig 5 energy curve: prediction energy on the Raspberry Pi as a function
/// of image side (ResNet18 cost model) and inference precision.
util::Joules edge_cnn_prediction_energy(std::size_t input_side,
                                        Precision p = Precision::kF32);

}  // namespace beesim::ml
