#pragma once

#include <vector>

#include "audio/synth.hpp"
#include "dsp/matrix.hpp"
#include "dsp/spectrogram.hpp"

namespace beesim::audio {

/// One labeled example after feature extraction. Raw audio is discarded at
/// generation time (a 1647-clip corpus of 10 s audio would be ~3 GB; the
/// 128-band mel matrix is ~100 KB).
struct QueenExample {
  dsp::Matrix mel_db;            // n_mels x frames, dB scale
  std::vector<double> features;  // per-band time mean (SVM input)
  bool queen_present = false;
};

/// Labeled dataset mirroring the paper's corpus: balanced queen-present /
/// queen-absent recordings.
struct QueenDataset {
  std::vector<QueenExample> examples;
  dsp::MelSpectrogram::Params mel_params;

  std::size_t size() const noexcept { return examples.size(); }

  /// CNN input image (side x side, values in [0, 1]) for example i,
  /// derived from its stored mel matrix — the resolution sweep of Fig 5
  /// re-renders the same examples at every side.
  dsp::Matrix image(std::size_t i, std::size_t side) const;
};

struct DatasetParams {
  int count = 400;            // paper uses 1647; configurable via benches
  double clip_seconds = 3.0;  // paper uses 10 s; 3 s keeps benches snappy
  std::uint64_t seed = 2023;
  BeeAudioSynth::Params synth;            // acoustic model
  dsp::MelSpectrogram::Params mel;        // paper's spectrogram settings
};

/// Generates a balanced labeled dataset (count/2 per class, interleaved).
QueenDataset generate_queen_dataset(const DatasetParams& params);

/// Deterministic train/test split: every k-th example (k = 1/test_fraction)
/// goes to test, so both splits stay class-balanced.
struct DatasetSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};
DatasetSplit split_dataset(const QueenDataset& dataset,
                           double test_fraction = 0.3);

}  // namespace beesim::audio
