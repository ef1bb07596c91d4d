#include "dsp/spectrogram.hpp"

#include <stdexcept>

#include "dsp/mel.hpp"

namespace beesim::dsp {

namespace {

StftParams stft_params(const MelSpectrogram::Params& params) {
  StftParams sp;
  sp.n_fft = params.n_fft;
  sp.hop = params.hop;
  return sp;
}

}  // namespace

MelSpectrogram::MelSpectrogram() : MelSpectrogram(Params{}) {}

MelSpectrogram::MelSpectrogram(const Params& params)
    : params_(params),
      stft_(stft_params(params)),
      banded_(mel_filterbank(params.n_mels, params.n_fft, params.sample_rate,
                             params.fmin, params.fmax)) {}

Matrix MelSpectrogram::compute(const std::vector<double>& signal) const {
  const std::size_t frames = stft_.frames(signal.size());
  Matrix mel(banded_.bands(), frames);
  stft_.for_each_frame(
      signal, [&](std::size_t first, std::size_t count, const double* power) {
        banded_.apply(power, count, mel.data() + first, frames);
      });
  return mel;
}

Matrix MelSpectrogram::compute_image(const std::vector<double>& signal,
                                     std::size_t side) const {
  if (side == 0)
    throw std::invalid_argument("MelSpectrogram: zero image side");
  Matrix mel = compute(signal);
  // dB only on the columns the resize reads (199 of a 10 s clip's 431 at
  // side 100), each read tap's lo and hi, ascending; the reference is
  // still the peak over every column.
  std::vector<std::size_t> read;
  for (const BilinearTap& tap : bilinear_taps(mel.cols(), side))
    for (const std::size_t c : {tap.lo, tap.hi})
      if (read.empty() || read.back() < c) read.push_back(c);
  power_to_db_columns(mel, read);
  Matrix img = resize_bilinear(mel, side, side);
  // Scale to [0, 1] for the CNN.
  const double lo = img.min();
  const double hi = img.max();
  const double span = hi > lo ? hi - lo : 1.0;
  for (std::size_t r = 0; r < img.rows(); ++r)
    for (std::size_t c = 0; c < img.cols(); ++c)
      img(r, c) = (img(r, c) - lo) / span;
  return img;
}

}  // namespace beesim::dsp
