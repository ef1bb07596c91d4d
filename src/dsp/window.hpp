#pragma once

#include <cstddef>
#include <vector>

namespace beesim::dsp {

/// Periodic Hann window of length n (librosa's default for STFT).
std::vector<double> hann_window(std::size_t n);

}  // namespace beesim::dsp
