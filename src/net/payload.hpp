#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace beesim::net {

using util::Bytes;

/// One unit of data produced by the smart beehive's collection routine.
struct Payload {
  std::string name;
  Bytes size = 0.0;
};

/// Catalog of the data products the deployed system collects per routine
/// (paper Section IV): three 10-second audio samples, five 800x600 images
/// and sensor readings.
namespace catalog {

/// 10 s of 16-bit mono PCM at `sample_rate` Hz.
Payload audio_sample(double seconds = 10.0, double sample_rate = 22050.0);

/// JPEG-compressed 800x600 entrance image (~0.25 bit/pixel).
Payload entrance_image(int width = 800, int height = 600);

/// Temperature/humidity/gas JSON record.
Payload sensor_record();

/// The full per-routine upload: 3 audio samples + 5 images + sensors.
std::vector<Payload> routine_upload();

}  // namespace catalog

/// Sum of sizes in bytes.
Bytes total_size(const std::vector<Payload>& payloads);

}  // namespace beesim::net
