#include "device/routine.hpp"

#include <stdexcept>

#include "device/calibration.hpp"
#include "device/profiles.hpp"
#include "net/payload.hpp"
#include "util/rng.hpp"

namespace beesim::device {

const char* to_string(ServiceModel model) noexcept {
  switch (model) {
    case ServiceModel::kNone: return "none";
    case ServiceModel::kSvm: return "SVM";
    case ServiceModel::kCnn: return "CNN";
  }
  return "?";
}

const char* to_string(Placement placement) noexcept {
  switch (placement) {
    case Placement::kEdgeOnly: return "edge";
    case Placement::kEdgeCloud: return "edge+cloud";
  }
  return "?";
}

TaskSequence edge_routine(Placement placement, ServiceModel model) {
  const DeviceProfile pi = rpi3bplus_profile();
  TaskSequence seq;
  seq.push_back(pi.task("wake_collect"));
  switch (placement) {
    case Placement::kEdgeOnly:
      if (model == ServiceModel::kSvm)
        seq.push_back(pi.task("svm_inference"));
      else if (model == ServiceModel::kCnn)
        seq.push_back(pi.task("cnn_inference"));
      seq.push_back(pi.task("send_results"));
      break;
    case Placement::kEdgeCloud:
      seq.push_back(pi.task("send_audio"));
      break;
  }
  seq.push_back(pi.task("shutdown"));
  return seq;
}

net::Link beehive_uplink() {
  net::Link::Params p;
  // The routine upload is ~1.40 MB (~11.2 Mbit). 11.2 Mbit / 0.805 Mbps
  // + 1.2 s setup ~= 15.1 s, and a 0.165 Mbps throughput sigma yields
  // ~3.5 s length sigma — the Section IV numbers (89 s, 190.1 J).
  p.throughput_mean_mbps = 0.805;
  p.throughput_stddev_mbps = 0.165;
  p.throughput_floor_mbps = 0.3;
  p.setup_time = 1.2;
  return net::Link(p);
}

RoutineCalibration calibrate_routines(const net::Link& link, int count,
                                      std::uint64_t seed) {
  if (count <= 0)
    throw std::invalid_argument("calibrate_routines: count <= 0");
  const DeviceProfile pi = rpi3bplus_profile();
  const net::Bytes upload =
      net::total_size(net::catalog::routine_upload());
  util::Rng rng(seed);
  RoutineCalibration out;
  for (int i = 0; i < count; ++i) {
    // Collection and shutdown jitter a little; transfer dominates.
    const util::Seconds t_collect =
        pi.task("wake_collect").sampled_duration(rng);
    const util::Seconds t_send = link.transfer_time(upload, rng);
    const util::Seconds t_shutdown =
        pi.task("shutdown").sampled_duration(rng);
    const util::Joules e = t_collect * cal::kWakeCollectPower +
                           t_send * cal::kSendAudioPower +
                           t_shutdown * cal::kShutdownPower;
    const util::Seconds t = t_collect + t_send + t_shutdown;
    out.duration.add(t);
    out.energy.add(e);
    out.mean_power.add(e / t);
  }
  return out;
}

util::Watts average_power_at_period_raw(util::Seconds period) {
  if (period < cal::kRoutineDuration)
    throw std::invalid_argument(
        "average_power_at_period: period shorter than the routine");
  const util::Joules active = cal::kRoutineEnergy;
  const util::Joules sleep =
      cal::kEdgeSleepPower * (period - cal::kRoutineDuration);
  return (active + sleep) / period;
}

util::Watts average_power_at_period(util::Seconds period) {
  return average_power_at_period_raw(period) + cal::kCycleOverhead / period;
}

}  // namespace beesim::device
