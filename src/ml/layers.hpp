#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/precision.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace beesim::ml {

/// Base class for trainable layers. forward caches whatever backward
/// needs; backward returns the gradient w.r.t. the layer input and
/// accumulates parameter gradients, which sgd_step then applies with
/// momentum. `precision` is the numeric type of an inference pass
/// (train = false); training passes are always f32, and layers without
/// a GEMM ignore it.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input, bool train,
                         Precision precision) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;
  /// Applies accumulated gradients (no-op for stateless layers).
  virtual void sgd_step(float lr, float momentum) { (void)lr; (void)momentum; }
  virtual std::string name() const = 0;
  virtual std::size_t parameter_count() const { return 0; }
  /// Appends this layer's parameters to `out` (weights then bias).
  virtual void append_parameters(std::vector<float>& out) const {
    (void)out;
  }
  /// Reads parameter_count() values from `cursor`, advancing it.
  virtual void load_parameters(const float*& cursor) { (void)cursor; }
};

/// 2-D convolution, stride 1, "same" zero padding, square kernel. He
/// initialization. Input/output layout: (N, C, H, W).
///
/// The forward pass is im2col + the dispatched register-blocked GEMM
/// (the weight matrix (out, in*k*k) times the lowered image), run as one
/// util::parallel_for task per (image, block of 8 output rows), each
/// with its own scratch; the blocks give the bits of one whole-image
/// GEMM. The naive 6-deep loop nest and that whole-image loop are the
/// test oracles in tests/dsp_oracle.hpp. An inference pass at
/// Precision::kInt8 swaps in symmetric-int8 operands (weights quantized
/// once and cached until the next sgd_step/load_parameters, one
/// activation scale per image per call).
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train,
                 Precision precision) override;
  Tensor backward(const Tensor& grad_output) override;
  void sgd_step(float lr, float momentum) override;
  std::string name() const override { return "conv2d"; }
  std::size_t parameter_count() const override {
    return weights_.size() + bias_.size();
  }
  void append_parameters(std::vector<float>& out) const override;
  void load_parameters(const float*& cursor) override;

  const Tensor& weights() const noexcept { return weights_; }

 private:
  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t k_;
  Tensor weights_;       // (out, in, k, k)
  Tensor bias_;          // (out)
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor vel_weights_;
  Tensor vel_bias_;
  Tensor cached_input_;

  // int8 weight cache (inference only); rebuilt lazily after any
  // parameter mutation flips quant_dirty_.
  QuantizedRows wt_s8_;
  bool quant_dirty_ = true;
};

/// Element-wise ReLU.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train,
                 Precision precision) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

/// 2x2 max pooling, stride 2. Odd trailing rows/cols are dropped.
class MaxPool2 final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train,
                 Precision precision) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "maxpool2"; }

 private:
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> input_shape_;
};

/// Time-average pooling for spectrogram images: (N, C, H, W) -> (N, C*H),
/// averaging over the time axis (W) while preserving the frequency axis
/// (H). The queen-detection cue is *which* frequency rows are hot (the
/// queenless roar shifts the harmonic stack), so frequency position must
/// survive into the classifier head — global average pooling would erase
/// it.
class TimeAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train,
                 Precision precision) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "timeavgpool"; }

 private:
  std::vector<std::size_t> input_shape_;
};

/// Fully connected layer: (N, D) -> (N, M). Xavier initialization.
/// An inference pass at Precision::kInt8 quantizes like Conv2d: the
/// batch is transposed to (D, N) so the dispatched GEMM kernel applies,
/// with weights as the quantized left operand.
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train,
                 Precision precision) override;
  Tensor backward(const Tensor& grad_output) override;
  void sgd_step(float lr, float momentum) override;
  std::string name() const override { return "linear"; }
  std::size_t parameter_count() const override {
    return weights_.size() + bias_.size();
  }
  void append_parameters(std::vector<float>& out) const override;
  void load_parameters(const float*& cursor) override;

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weights_;  // (out, in) stored as 2-D
  Tensor bias_;     // (out)
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor vel_weights_;
  Tensor vel_bias_;
  Tensor cached_input_;

  // int8 weight cache and scratch (see Conv2d).
  QuantizedRows wt_s8_;
  bool quant_dirty_ = true;
  std::vector<float> in_t_;   // input transposed to (in, n)
  std::vector<float> out_t_;  // gemm result (out, n) before transpose-back
};

/// Softmax + cross-entropy on logits (N, classes). Returns mean loss and
/// writes the logits gradient for backprop.
struct SoftmaxCrossEntropy {
  /// labels[i] in [0, classes). grad has the logits' shape.
  static float loss_and_grad(const Tensor& logits,
                             const std::vector<std::size_t>& labels,
                             Tensor& grad);
  /// argmax per row.
  static std::vector<std::size_t> predict(const Tensor& logits);
};

}  // namespace beesim::ml
