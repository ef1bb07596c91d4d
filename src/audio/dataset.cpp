#include "audio/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/mel.hpp"
#include "util/parallel.hpp"

namespace beesim::audio {

dsp::Matrix QueenDataset::image(std::size_t i, std::size_t side) const {
  const auto& ex = examples.at(i);
  dsp::Matrix img = dsp::resize_bilinear(ex.mel_db, side, side);
  const double lo = img.min();
  const double hi = img.max();
  const double span = hi > lo ? hi - lo : 1.0;
  for (std::size_t r = 0; r < img.rows(); ++r)
    for (std::size_t c = 0; c < img.cols(); ++c)
      img(r, c) = (img(r, c) - lo) / span;
  return img;
}

QueenDataset generate_queen_dataset(const DatasetParams& params) {
  if (params.count <= 1)
    throw std::invalid_argument("generate_queen_dataset: count too small");
  BeeAudioSynth synth(params.synth);
  dsp::MelSpectrogram mel(params.mel);
  util::Rng rng(params.seed);

  const auto count = static_cast<std::size_t>(params.count);
  QueenDataset ds;
  ds.mel_params = params.mel;
  ds.examples.resize(count);

  // Featurization (STFT -> mel -> dB -> band means) dominates dataset
  // generation and is independent per clip, so it runs batched across
  // util::parallel_for. Synthesis consumes the shared RNG stream and
  // stays in serial order, which keeps the dataset bit-identical to a
  // sequential build; clips are synthesized one block at a time so raw
  // audio memory stays bounded by the block, not the corpus (the paper's
  // 1647 x 10 s corpus would be ~3 GB).
  const std::size_t block =
      std::min<std::size_t>(count,
                            std::max<unsigned>(2u, 2 * util::default_thread_count()));
  std::vector<std::vector<double>> clips(block);
  for (std::size_t start = 0; start < count; start += block) {
    const std::size_t in_block = std::min(block, count - start);
    for (std::size_t j = 0; j < in_block; ++j) {
      const bool queen =
          ((start + j) % 2) == 0;  // balanced, interleaved classes
      clips[j] = synth.synthesize(queen, params.clip_seconds, rng);
    }
    util::parallel_for(in_block, [&](std::size_t j) {
      const std::size_t i = start + j;
      QueenExample& ex = ds.examples[i];
      ex.queen_present = (i % 2) == 0;
      ex.mel_db = dsp::power_to_db(mel.compute(clips[j]));
      ex.features.resize(ex.mel_db.rows());
      for (std::size_t m = 0; m < ex.mel_db.rows(); ++m) {
        double acc = 0.0;
        for (std::size_t f = 0; f < ex.mel_db.cols(); ++f)
          acc += ex.mel_db(m, f);
        ex.features[m] = acc / static_cast<double>(ex.mel_db.cols());
      }
      clips[j] = std::vector<double>();  // release the raw audio
    });
  }
  return ds;
}

DatasetSplit split_dataset(const QueenDataset& dataset,
                           double test_fraction) {
  if (test_fraction <= 0.0 || test_fraction >= 1.0)
    throw std::invalid_argument("split_dataset: fraction out of (0, 1)");
  DatasetSplit split;
  const auto stride =
      static_cast<std::size_t>(std::max(2.0, 1.0 / test_fraction));
  // Stratified: stride within each class, so a stride that happens to
  // divide the class interleave cannot produce a one-class test set.
  std::size_t per_class_index[2] = {0, 0};
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::size_t cls = dataset.examples[i].queen_present ? 1 : 0;
    if (per_class_index[cls]++ % stride == stride - 1)
      split.test.push_back(i);
    else
      split.train.push_back(i);
  }
  return split;
}

}  // namespace beesim::audio
