#include "net/payload.hpp"

namespace beesim::net {
namespace catalog {

Payload audio_sample(double seconds, double sample_rate) {
  return {"audio_10s", seconds * sample_rate * 2.0};  // 16-bit mono PCM
}

Payload entrance_image(int width, int height) {
  // ~0.25 bit per pixel is typical for JPEG quality ~60 on outdoor scenes.
  const double bits = 0.25 * static_cast<double>(width) *
                      static_cast<double>(height);
  return {"image_800x600", bits / 8.0};
}

Payload sensor_record() { return {"sensor_json", 512.0}; }

std::vector<Payload> routine_upload() {
  std::vector<Payload> v;
  for (int i = 0; i < 3; ++i) v.push_back(audio_sample());
  for (int i = 0; i < 5; ++i) v.push_back(entrance_image());
  v.push_back(sensor_record());
  return v;
}

}  // namespace catalog

Bytes total_size(const std::vector<Payload>& payloads) {
  Bytes total = 0.0;
  for (const auto& p : payloads) total += p.size;
  return total;
}

}  // namespace beesim::net
