#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::ml {
namespace {

void sgd_update(Tensor& param, Tensor& grad, Tensor& velocity, float lr,
                float momentum) {
  for (std::size_t i = 0; i < param.size(); ++i) {
    velocity[i] = momentum * velocity[i] - lr * grad[i];
    param[i] += velocity[i];
  }
  grad.fill(0.0f);
}

}  // namespace

// ----------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, util::Rng& rng)
    : in_ch_(in_channels), out_ch_(out_channels), k_(kernel),
      weights_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weights_(Tensor::zeros_like(weights_)),
      grad_bias_(Tensor::zeros_like(bias_)),
      vel_weights_(Tensor::zeros_like(weights_)),
      vel_bias_(Tensor::zeros_like(bias_)) {
  if (kernel % 2 == 0)
    throw std::invalid_argument("Conv2d: kernel must be odd (same padding)");
  const double fan_in =
      static_cast<double>(in_channels * kernel * kernel);
  const double scale = std::sqrt(2.0 / fan_in);  // He init
  for (std::size_t i = 0; i < weights_.size(); ++i)
    weights_[i] = static_cast<float>(rng.normal(0.0, scale));
}

Tensor Conv2d::forward(const Tensor& input, bool train,
                       Precision precision) {
  if (input.dims() != 4 || input.dim(1) != in_ch_)
    throw std::invalid_argument("Conv2d: bad input shape");
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  Tensor out({n, out_ch_, h, w});

  const float* in = input.data();
  float* o = out.data();
  const float* wt = weights_.data();

  // im2col + GEMM: weights are already laid out as the (out_ch,
  // in_ch*k*k) matrix; the lowered image supplies the (in_ch*k*k, h*w)
  // right-hand side. Inference may run the GEMM in int8; training always
  // stays f32 for exact gradients.
  const Precision prec = train ? Precision::kF32 : precision;
  const bool int8 = prec == Precision::kInt8;
  const std::size_t cols = h * w;
  const std::size_t kdim = in_ch_ * k_ * k_;
  if (int8 && quant_dirty_) {
    wt_s8_ = quantize_rows_s8(wt, out_ch_, kdim);
    quant_dirty_ = false;
  }
  // One activation scale per image, taken from the image itself: its
  // im2col matrix holds every pixel (the centre tap's row) plus shifted
  // copies and zero padding, so both have the same max |x|.
  std::vector<float> act_scales(int8 ? n : 0);
  for (std::size_t b = 0; b < act_scales.size(); ++b)
    act_scales[b] = tensor_scale_s8(in + b * in_ch_ * cols, in_ch_ * cols);

  // One task per (image, block of kRowBlock output rows): the block
  // lowers its own rows, multiplies them into block-local scratch and
  // copies each channel's rows into place. Every output element still
  // accumulates over ascending k in every GEMM tier, so the blocks give
  // the whole-image GEMM's bits (tests/dsp_oracle.hpp conv2d_gemm).
  constexpr std::size_t kRowBlock = 8;
  const std::size_t blocks = (h + kRowBlock - 1) / kRowBlock;
  util::parallel_for(n * blocks, [&](std::size_t task) {
    const std::size_t b = task / blocks;
    const std::size_t y0 = task % blocks * kRowBlock;
    const std::size_t y1 = std::min(y0 + kRowBlock, h);
    const std::size_t span = (y1 - y0) * w;
    const auto patches = std::make_unique_for_overwrite<float[]>(kdim * span);
    const auto block = std::make_unique_for_overwrite<float[]>(out_ch_ * span);
    im2col_same(in + b * in_ch_ * cols, in_ch_, h, w, k_, y0, y1,
                patches.get());
    if (int8) {
      const auto act =
          std::make_unique_for_overwrite<std::int8_t[]>(kdim * span);
      quantize_s8(patches.get(), kdim * span, act_scales[b], act.get());
      sgemm_bias_s8(out_ch_, span, kdim, wt_s8_.values.data(),
                    wt_s8_.scales.data(), act.get(), act_scales[b],
                    bias_.data(), block.get());
    } else {
      sgemm_bias(out_ch_, span, kdim, wt, patches.get(), bias_.data(),
                 block.get());
    }
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      std::copy_n(block.get() + oc * span, span,
                  o + (b * out_ch_ + oc) * cols + y0 * w);
  });
  if (obs::enabled()) {
    static auto& flops =
        obs::registry().counter(obs::metric::kMlConvGemmFlops);
    flops.inc(2 * n * out_ch_ * cols * kdim);
  }
  if (train) cached_input_ = input;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (input.size() == 0)
    throw std::logic_error("Conv2d::backward before forward(train)");
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t pad = k_ / 2;
  Tensor grad_input = Tensor::zeros_like(input);

  const float* in = input.data();
  const float* go = grad_output.data();
  const float* wt = weights_.data();
  float* gi = grad_input.data();
  float* gw = grad_weights_.data();

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float* go_plane = go + (b * out_ch_ + oc) * h * w;
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const float g = go_plane[y * w + x];
          if (g == 0.0f) continue;
          grad_bias_[oc] += g;
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            const float* in_plane = in + (b * in_ch_ + ic) * h * w;
            float* gi_plane = gi + (b * in_ch_ + ic) * h * w;
            const float* wk = wt + ((oc * in_ch_ + ic) * k_) * k_;
            float* gwk = gw + ((oc * in_ch_ + ic) * k_) * k_;
            for (std::size_t ky = 0; ky < k_; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(y + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                const std::size_t off = static_cast<std::size_t>(iy) * w +
                                        static_cast<std::size_t>(ix);
                gwk[ky * k_ + kx] += g * in_plane[off];
                gi_plane[off] += g * wk[ky * k_ + kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void Conv2d::sgd_step(float lr, float momentum) {
  sgd_update(weights_, grad_weights_, vel_weights_, lr, momentum);
  sgd_update(bias_, grad_bias_, vel_bias_, lr, momentum);
  quant_dirty_ = true;
}

void Conv2d::append_parameters(std::vector<float>& out) const {
  out.insert(out.end(), weights_.data(), weights_.data() + weights_.size());
  out.insert(out.end(), bias_.data(), bias_.data() + bias_.size());
}

void Conv2d::load_parameters(const float*& cursor) {
  std::copy(cursor, cursor + weights_.size(), weights_.data());
  cursor += weights_.size();
  std::copy(cursor, cursor + bias_.size(), bias_.data());
  cursor += bias_.size();
  quant_dirty_ = true;
}

// ------------------------------------------------------------------- ReLU

Tensor ReLU::forward(const Tensor& input, bool train, Precision) {
  Tensor out = input;
  // A select, not a branch: about half the conv outputs are negative, so
  // an `if` mispredicts on them. Same bits for +-0, NaN and +-inf.
  float* d = out.data();
  for (std::size_t i = 0; i < out.size(); ++i)
    d[i] = d[i] < 0.0f ? 0.0f : d[i];
  if (train) cached_input_ = input;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.size() == 0)
    throw std::logic_error("ReLU::backward before forward(train)");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i)
    if (cached_input_[i] <= 0.0f) grad[i] = 0.0f;
  return grad;
}

// --------------------------------------------------------------- MaxPool2

Tensor MaxPool2::forward(const Tensor& input, bool train, Precision) {
  if (input.dims() != 4)
    throw std::invalid_argument("MaxPool2: expects 4-D input");
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  if (oh == 0 || ow == 0)
    throw std::invalid_argument("MaxPool2: input too small");
  Tensor out({n, c, oh, ow});
  if (train) {
    argmax_.assign(out.size(), 0);
    input_shape_ = input.shape();
  }
  const float* in = input.data();
  float* o = out.data();
  std::size_t oi = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (b * c + ch) * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          const std::size_t base = (2 * y) * w + 2 * x;
          std::size_t best = base;
          float best_v = plane[base];
          const std::size_t candidates[3] = {base + 1, base + w,
                                             base + w + 1};
          for (std::size_t cand : candidates) {
            if (plane[cand] > best_v) {
              best_v = plane[cand];
              best = cand;
            }
          }
          o[oi] = best_v;
          if (train) argmax_[oi] = (b * c + ch) * h * w + best;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2::backward(const Tensor& grad_output) {
  if (input_shape_.empty())
    throw std::logic_error("MaxPool2::backward before forward(train)");
  Tensor grad(input_shape_, 0.0f);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad[argmax_[i]] += grad_output[i];
  return grad;
}

// ------------------------------------------------------------- TimeAvgPool

Tensor TimeAvgPool::forward(const Tensor& input, bool train, Precision) {
  if (input.dims() != 4)
    throw std::invalid_argument("TimeAvgPool: expects 4-D input");
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  Tensor out({n, c * h});
  const float* in = input.data();
  float* o = out.data();
  const float inv_w = 1.0f / static_cast<float>(w);
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t ch = 0; ch < c; ++ch)
      for (std::size_t y = 0; y < h; ++y) {
        const float* row = in + ((b * c + ch) * h + y) * w;
        float acc = 0.0f;
        for (std::size_t x = 0; x < w; ++x) acc += row[x];
        o[b * c * h + ch * h + y] = acc * inv_w;
      }
  if (train) input_shape_ = input.shape();
  return out;
}

Tensor TimeAvgPool::backward(const Tensor& grad_output) {
  if (input_shape_.empty())
    throw std::logic_error("TimeAvgPool::backward before forward(train)");
  Tensor grad(input_shape_, 0.0f);
  const std::size_t n = input_shape_[0];
  const std::size_t c = input_shape_[1];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const float inv_w = 1.0f / static_cast<float>(w);
  float* g = grad.data();
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t ch = 0; ch < c; ++ch)
      for (std::size_t y = 0; y < h; ++y) {
        const float v =
            grad_output[b * c * h + ch * h + y] * inv_w;
        float* row = g + ((b * c + ch) * h + y) * w;
        for (std::size_t x = 0; x < w; ++x) row[x] = v;
      }
  return grad;
}

// ----------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng)
    : in_(in_features), out_(out_features), weights_({out_features,
                                                      in_features}),
      bias_({out_features}), grad_weights_(Tensor::zeros_like(weights_)),
      grad_bias_(Tensor::zeros_like(bias_)),
      vel_weights_(Tensor::zeros_like(weights_)),
      vel_bias_(Tensor::zeros_like(bias_)) {
  const double scale = std::sqrt(1.0 / static_cast<double>(in_features));
  for (std::size_t i = 0; i < weights_.size(); ++i)
    weights_[i] = static_cast<float>(rng.normal(0.0, scale));
}

Tensor Linear::forward(const Tensor& input, bool train,
                       Precision precision) {
  if (input.dims() != 2 || input.dim(1) != in_)
    throw std::invalid_argument("Linear: bad input shape");
  const std::size_t n = input.dim(0);
  Tensor out({n, out_});
  const Precision prec = train ? Precision::kF32 : precision;
  if (prec == Precision::kInt8) {
    // Transpose the batch to (in, n) so the GEMM contract applies with
    // the (out, in) weight matrix on the left; the (out, n) product is
    // transposed back into the row-major output.
    if (quant_dirty_) {
      wt_s8_ = quantize_rows_s8(weights_.data(), out_, in_);
      quant_dirty_ = false;
    }
    in_t_.resize(in_ * n);
    for (std::size_t b = 0; b < n; ++b)
      for (std::size_t i = 0; i < in_; ++i)
        in_t_[i * n + b] = input.data()[b * in_ + i];
    out_t_.resize(out_ * n);
    const QuantizedTensor act = quantize_tensor_s8(in_t_.data(), in_t_.size());
    sgemm_bias_s8(out_, n, in_, wt_s8_.values.data(), wt_s8_.scales.data(),
                  act.values.data(), act.scale, bias_.data(), out_t_.data());
    for (std::size_t b = 0; b < n; ++b)
      for (std::size_t o = 0; o < out_; ++o)
        out.at2(b, o) = out_t_[o * n + b];
    return out;
  }
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t o = 0; o < out_; ++o) {
      float acc = bias_[o];
      const float* wrow = weights_.data() + o * in_;
      const float* irow = input.data() + b * in_;
      for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * irow[i];
      out.at2(b, o) = acc;
    }
  }
  if (train) cached_input_ = input;
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.size() == 0)
    throw std::logic_error("Linear::backward before forward(train)");
  const std::size_t n = cached_input_.dim(0);
  Tensor grad_input({n, in_}, 0.0f);
  for (std::size_t b = 0; b < n; ++b) {
    const float* irow = cached_input_.data() + b * in_;
    float* girow = grad_input.data() + b * in_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float g = grad_output.at2(b, o);
      grad_bias_[o] += g;
      float* gwrow = grad_weights_.data() + o * in_;
      const float* wrow = weights_.data() + o * in_;
      for (std::size_t i = 0; i < in_; ++i) {
        gwrow[i] += g * irow[i];
        girow[i] += g * wrow[i];
      }
    }
  }
  return grad_input;
}

void Linear::sgd_step(float lr, float momentum) {
  sgd_update(weights_, grad_weights_, vel_weights_, lr, momentum);
  sgd_update(bias_, grad_bias_, vel_bias_, lr, momentum);
  quant_dirty_ = true;
}

void Linear::append_parameters(std::vector<float>& out) const {
  out.insert(out.end(), weights_.data(), weights_.data() + weights_.size());
  out.insert(out.end(), bias_.data(), bias_.data() + bias_.size());
}

void Linear::load_parameters(const float*& cursor) {
  std::copy(cursor, cursor + weights_.size(), weights_.data());
  cursor += weights_.size();
  std::copy(cursor, cursor + bias_.size(), bias_.data());
  cursor += bias_.size();
  quant_dirty_ = true;
}

// ------------------------------------------------------ SoftmaxCrossEntropy

float SoftmaxCrossEntropy::loss_and_grad(
    const Tensor& logits, const std::vector<std::size_t>& labels,
    Tensor& grad) {
  if (logits.dims() != 2 || logits.dim(0) != labels.size())
    throw std::invalid_argument("SoftmaxCrossEntropy: shape mismatch");
  const std::size_t n = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  grad = Tensor({n, classes});
  float total = 0.0f;
  for (std::size_t b = 0; b < n; ++b) {
    if (labels[b] >= classes)
      throw std::invalid_argument("SoftmaxCrossEntropy: label out of range");
    float maxv = logits.at2(b, 0);
    for (std::size_t c = 1; c < classes; ++c)
      maxv = std::max(maxv, logits.at2(b, c));
    float denom = 0.0f;
    for (std::size_t c = 0; c < classes; ++c)
      denom += std::exp(logits.at2(b, c) - maxv);
    const float log_denom = std::log(denom);
    for (std::size_t c = 0; c < classes; ++c) {
      const float log_p = logits.at2(b, c) - maxv - log_denom;
      const float p = std::exp(log_p);
      grad.at2(b, c) = (p - (labels[b] == c ? 1.0f : 0.0f)) /
                       static_cast<float>(n);
      if (labels[b] == c) total -= log_p;
    }
  }
  return total / static_cast<float>(n);
}

std::vector<std::size_t> SoftmaxCrossEntropy::predict(const Tensor& logits) {
  if (logits.dims() != 2)
    throw std::invalid_argument("SoftmaxCrossEntropy::predict: 2-D only");
  std::vector<std::size_t> out(logits.dim(0));
  for (std::size_t b = 0; b < logits.dim(0); ++b) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.dim(1); ++c)
      if (logits.at2(b, c) > logits.at2(b, best)) best = c;
    out[b] = best;
  }
  return out;
}

}  // namespace beesim::ml
