#include "core/client.hpp"

#include <array>
#include <cstddef>
#include <stdexcept>

#include "device/calibration.hpp"
#include "device/routine.hpp"
#include "obs/catalog.hpp"

namespace beesim::core {

util::Seconds ClientSpec::active_time() const noexcept {
  return device::nominal_duration(actions);
}

util::Joules ClientSpec::active_energy() const noexcept {
  return device::nominal_energy(actions);
}

util::Joules ClientSpec::cycle_energy() const {
  const util::Seconds active = active_time();
  if (active > period)
    throw std::logic_error("ClientSpec: actions longer than the period");
  static auto& evaluations =
      obs::registry().counter(obs::metric::kClientCycleEvaluations);
  evaluations.inc();
  return active_energy() + sleep_power * (period - active);
}

void validate_edge_only(ServiceModel service, util::Seconds period) {
  // The routine depends on the model, not on the period, and building
  // its spec builds a task list: time each model's routine once.
  static const std::array<util::Seconds, 3> active_times = [] {
    std::array<util::Seconds, 3> out{};
    for (std::size_t m = 0; m < out.size(); ++m)
      out[m] = ClientSpec::smart_beehive(Placement::kEdgeOnly,
                                         static_cast<ServiceModel>(m))
                   .active_time();
    return out;
  }();
  const auto m = static_cast<std::size_t>(service);
  const util::Seconds active =
      m < active_times.size()
          ? active_times[m]
          : ClientSpec::smart_beehive(Placement::kEdgeOnly, service)
                .active_time();
  if (active > period)
    throw std::invalid_argument(
        "ClientSpec: the edge-only routine takes longer than the period");
}

ClientSpec ClientSpec::smart_beehive(Placement placement,
                                     ServiceModel service,
                                     util::Seconds period) {
  ClientSpec spec;
  spec.sleep_power = device::cal::kEdgeSleepPower;
  spec.actions = device::edge_routine(placement, service);
  spec.period = period;
  static auto& built =
      obs::registry().counter(obs::metric::kClientSpecsBuilt);
  built.inc();
  return spec;
}

}  // namespace beesim::core
