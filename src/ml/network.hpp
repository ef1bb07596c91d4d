#pragma once

#include <memory>
#include <vector>

#include "dsp/matrix.hpp"
#include "ml/layers.hpp"

namespace beesim::ml {

/// A stack of layers trained with SGD + momentum. This is the deep-learning
/// option of the paper's queen-detection service. The paper uses a
/// pre-trained ResNet18; we train a small CNN from scratch instead (see
/// DESIGN.md substitutions) — the accuracy-vs-resolution behaviour is what
/// matters for Fig 5, and the energy axis uses the ResNet18 cost model.
class Network {
 public:
  Network() = default;

  void add(std::unique_ptr<Layer> layer);

  /// Forward pass; train=true caches activations for backward (and is
  /// always f32), an inference pass runs at `precision`.
  Tensor forward(const Tensor& input, bool train = false,
                 Precision precision = Precision::kF32);

  /// Backward pass from the loss gradient; call after forward(train=true).
  void backward(const Tensor& grad);

  /// Applies accumulated gradients on every layer.
  void sgd_step(float lr, float momentum = 0.9f);

  std::size_t parameter_count() const;
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// All trainable parameters, flattened in layer order.
  std::vector<float> parameters() const;
  /// Loads a flat parameter vector produced by parameters() on a network
  /// with identical architecture; throws on size mismatch.
  void set_parameters(const std::vector<float>& flat);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// The queen-detection CNN for a given input side: two conv/relu/pool
/// blocks, time-average pooling (frequency position preserved — the class
/// cue is which mel rows are hot), and a 2-class head sized for the
/// side. The Fig 5 sweep trains one instance per resolution.
Network make_queen_cnn(util::Rng& rng, std::size_t base_channels,
                       std::size_t input_side);

/// Converts a batch of (side x side) images into an (N, 1, side, side)
/// tensor.
Tensor images_to_tensor(const std::vector<dsp::Matrix>& images);

struct TrainOptions {
  int epochs = 12;
  std::size_t batch_size = 16;
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  /// Multiplies the learning rate after each epoch.
  float lr_decay = 0.85f;
  std::uint64_t seed = 99;
};

struct TrainReport {
  std::vector<float> epoch_loss;
  float final_train_accuracy = 0.0f;
};

/// Trains `net` on images/labels with shuffled minibatches.
TrainReport train_classifier(Network& net,
                             const std::vector<dsp::Matrix>& images,
                             const std::vector<std::size_t>& labels,
                             const TrainOptions& options = TrainOptions{});

/// Batched multi-clip inference at `precision`: predicted class per
/// image, running `batch_size` clips through each forward pass so the
/// dispatched GEMM kernels see wide (out, batch*h*w) panels.
std::vector<std::size_t> predict_classifier(
    Network& net, const std::vector<dsp::Matrix>& images,
    std::size_t batch_size = 32, Precision precision = Precision::kF32);

/// Accuracy of `net` on a labeled set (batched inference at `precision`).
double evaluate_classifier(Network& net,
                           const std::vector<dsp::Matrix>& images,
                           const std::vector<std::size_t>& labels,
                           std::size_t batch_size = 32,
                           Precision precision = Precision::kF32);

}  // namespace beesim::ml
