#include "ml/network.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace beesim::ml {

void Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  layers_.push_back(std::move(layer));
}

Tensor Network::forward(const Tensor& input, bool train,
                        Precision precision) {
  if (layers_.empty()) throw std::logic_error("Network: no layers");
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train, precision);
  return x;
}

void Network::backward(const Tensor& grad) {
  Tensor g = grad;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
}

void Network::sgd_step(float lr, float momentum) {
  for (auto& layer : layers_) layer->sgd_step(lr, momentum);
}

std::size_t Network::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

std::vector<float> Network::parameters() const {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) layer->append_parameters(flat);
  return flat;
}

void Network::set_parameters(const std::vector<float>& flat) {
  if (flat.size() != parameter_count())
    throw std::invalid_argument("Network::set_parameters: size mismatch");
  const float* cursor = flat.data();
  for (auto& layer : layers_) layer->load_parameters(cursor);
}

Network make_queen_cnn(util::Rng& rng, std::size_t base_channels,
                       std::size_t input_side) {
  if (input_side < 4)
    throw std::invalid_argument("make_queen_cnn: side too small");
  Network net;
  net.add(std::make_unique<Conv2d>(1, base_channels, 3, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2>());
  net.add(std::make_unique<Conv2d>(base_channels, base_channels * 2, 3, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<MaxPool2>());
  net.add(std::make_unique<TimeAvgPool>());
  const std::size_t rows = input_side / 2 / 2;  // after the two pools
  net.add(std::make_unique<Linear>(base_channels * 2 * rows, 2, rng));
  return net;
}

Tensor images_to_tensor(const std::vector<dsp::Matrix>& images) {
  if (images.empty())
    throw std::invalid_argument("images_to_tensor: empty batch");
  const std::size_t h = images.front().rows();
  const std::size_t w = images.front().cols();
  Tensor out({images.size(), 1, h, w});
  float* dst = out.data();
  for (const auto& img : images) {
    if (img.rows() != h || img.cols() != w)
      throw std::invalid_argument("images_to_tensor: ragged batch");
    const double* src = img.data();
    for (std::size_t i = 0; i < h * w; ++i)
      *dst++ = static_cast<float>(src[i]);
  }
  return out;
}

TrainReport train_classifier(Network& net,
                             const std::vector<dsp::Matrix>& images,
                             const std::vector<std::size_t>& labels,
                             const TrainOptions& options) {
  if (images.size() != labels.size() || images.empty())
    throw std::invalid_argument("train_classifier: bad dataset");
  if (options.batch_size == 0 || options.epochs <= 0)
    throw std::invalid_argument("train_classifier: bad options");

  util::Rng rng(options.seed);
  std::vector<std::size_t> order(images.size());
  std::iota(order.begin(), order.end(), 0);

  TrainReport report;
  float lr = options.learning_rate;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // Fisher-Yates with our deterministic RNG.
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(order[i], order[j]);
    }
    float epoch_loss = 0.0f;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += options.batch_size) {
      const std::size_t end =
          std::min(start + options.batch_size, order.size());
      std::vector<dsp::Matrix> batch_images;
      std::vector<std::size_t> batch_labels;
      batch_images.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) {
        batch_images.push_back(images[order[i]]);
        batch_labels.push_back(labels[order[i]]);
      }
      const Tensor input = images_to_tensor(batch_images);
      const Tensor logits = net.forward(input, /*train=*/true);
      Tensor grad;
      epoch_loss +=
          SoftmaxCrossEntropy::loss_and_grad(logits, batch_labels, grad);
      net.backward(grad);
      net.sgd_step(lr, options.momentum);
      ++batches;
    }
    report.epoch_loss.push_back(epoch_loss /
                                static_cast<float>(std::max<std::size_t>(
                                    batches, 1)));
    lr *= options.lr_decay;
  }
  report.final_train_accuracy = static_cast<float>(
      evaluate_classifier(net, images, labels, options.batch_size));
  return report;
}

std::vector<std::size_t> predict_classifier(
    Network& net, const std::vector<dsp::Matrix>& images,
    std::size_t batch_size, Precision precision) {
  if (images.empty() || batch_size == 0)
    throw std::invalid_argument("predict_classifier: bad arguments");
  std::vector<std::size_t> out;
  out.reserve(images.size());
  for (std::size_t start = 0; start < images.size(); start += batch_size) {
    const std::size_t end = std::min(start + batch_size, images.size());
    std::vector<dsp::Matrix> batch(images.begin() +
                                       static_cast<std::ptrdiff_t>(start),
                                   images.begin() +
                                       static_cast<std::ptrdiff_t>(end));
    const Tensor logits =
        net.forward(images_to_tensor(batch), false, precision);
    const auto preds = SoftmaxCrossEntropy::predict(logits);
    out.insert(out.end(), preds.begin(), preds.end());
  }
  return out;
}

double evaluate_classifier(Network& net,
                           const std::vector<dsp::Matrix>& images,
                           const std::vector<std::size_t>& labels,
                           std::size_t batch_size, Precision precision) {
  if (images.size() != labels.size() || images.empty())
    throw std::invalid_argument("evaluate_classifier: bad dataset");
  const auto preds = predict_classifier(net, images, batch_size, precision);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(images.size());
}

}  // namespace beesim::ml
