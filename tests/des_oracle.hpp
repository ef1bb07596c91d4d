#pragma once

// The event-driven cross-check of the analytic fleet model (DESIGN.md
// section 5: "analytic vs event-driven"). LargeScaleSimulator prices a
// cycle in closed form; its oracle replays one single-server cycle on
// the discrete-event engine with real device state machines, and the two
// must agree on the edge and cloud joules of that cycle.

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/allocator.hpp"
#include "core/network_sim.hpp"
#include "device/calibration.hpp"
#include "device/profiles.hpp"
#include "device/routine.hpp"
#include "device/sim_device.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace beesim::oracle {

/// Result of replaying one fleet cycle on the discrete-event engine with
/// real device state machines, for cross-validation of the analytic
/// LargeScaleSimulator (DESIGN.md section 5: "analytic vs event-driven").
struct DesCheckResult {
  util::Joules edge_energy = 0.0;   // all clients, one cycle
  util::Joules cloud_energy = 0.0;  // one server, one cycle
  int clients = 0;
  int slots_used = 0;
};

/// Replays a single-server fleet cycle event-by-event: every client is a
/// SimDevice running the edge+cloud routine, synchronized so its upload
/// lands in its assigned time slot; the server is a SimDevice that runs
/// receive+inference per active slot. Durations are nominal (no jitter)
/// so the comparison with the analytic model is exact up to scheduling.
///
/// `clients` must fit one server, and the slot schedule (which starts
/// each slot after the previous one) must fit the cycle alongside the
/// 64 s collection lead-in; the function throws otherwise.
inline DesCheckResult des_replay_cycle(core::ServiceModel service,
                                       int clients, int max_parallel,
                                       util::Seconds cycle = 300.0) {
  using namespace core;
  namespace cal = device::cal;
  if (clients < 1)
    throw std::invalid_argument("des_replay_cycle: clients < 1");
  const ServerSpec spec =
      ServerSpec::cloud_server(service, max_parallel, cycle);
  if (clients > spec.capacity())
    throw std::invalid_argument(
        "des_replay_cycle: clients exceed one server's capacity");

  CompactLayout layout;
  allocate_compact_into(clients, spec, FillPolicy::kFillFirst, layout);
  if (layout.servers_used() != 1)
    throw std::logic_error("des_replay_cycle: expected a single server");
  std::vector<int> slots;
  for (int b = 0; b < layout.band_count[0]; ++b)
    slots.insert(slots.end(),
                 static_cast<std::size_t>(layout.band_slots[0][b]),
                 layout.band_clients[0][b]);

  // Slot s transfers at: lead-in (collection) + s * slot_duration.
  const util::Seconds lead_in = cal::kWakeCollectTime;
  const util::Seconds slot_len = spec.planning_slot_duration();
  const util::Seconds last_slot_end =
      lead_in + static_cast<double>(slots.size()) * slot_len +
      cal::kShutdownTime;
  if (last_slot_end > cycle)
    throw std::invalid_argument(
        "des_replay_cycle: slot schedule does not fit the cycle");

  sim::Engine engine;

  // Strip jitter so the replay is exactly the nominal model.
  auto nominal = [](device::TaskSequence seq) {
    for (auto& t : seq) t.duration_stddev = 0.0;
    return seq;
  };
  const device::TaskSequence client_tasks =
      nominal(device::edge_routine(Placement::kEdgeCloud, service));

  std::vector<std::unique_ptr<device::SimDevice>> fleet;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const util::Seconds transfer_start =
        lead_in + static_cast<double>(s) * slot_len;
    for (int c = 0; c < slots[s]; ++c) {
      auto dev = std::make_unique<device::SimDevice>(
          engine, device::rpi3bplus_profile(), 1000 + s * 100 + static_cast<std::size_t>(c));
      dev->enter_sleep();
      // Wake so the upload begins exactly at the slot start.
      engine.schedule_at(transfer_start - lead_in,
                         [d = dev.get(), client_tasks](sim::Engine&) {
                           d->run_spec_sequence(client_tasks);
                         });
      fleet.push_back(std::move(dev));
    }
  }

  auto server = std::make_unique<device::SimDevice>(
      engine, device::cloud_server_profile(), 42);
  server->enter_idle();
  const char* inference = service == ServiceModel::kSvm ? "svm_inference"
                                                        : "cnn_inference";
  // Fill-first allocation makes the active slots a contiguous prefix, so
  // the server's whole cycle is one back-to-back receive+infer chain
  // starting at the first slot (slots abut exactly: duration == slot_len).
  int slots_used = 0;
  device::TaskSequence server_tasks;
  const device::DeviceProfile server_profile = device::cloud_server_profile();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] <= 0) continue;
    ++slots_used;
    server_tasks.push_back(server_profile.task("receive_audio"));
    server_tasks.push_back(server_profile.task(inference));
  }
  if (!server_tasks.empty()) {
    engine.schedule_at(lead_in,
                       [srv = server.get(), server_tasks](sim::Engine&) {
                         srv->run_spec_sequence(server_tasks);
                       });
  }

  engine.run_until(cycle);

  DesCheckResult result;
  result.clients = clients;
  result.slots_used = slots_used;
  for (auto& dev : fleet) {
    dev->meter().advance_to(cycle);
    result.edge_energy += dev->meter().total();
  }
  server->meter().advance_to(cycle);
  // The server profile's "sleep" (post-sequence) and "idle" draws are the
  // same power, so the meter total is directly comparable.
  result.cloud_energy = server->meter().total();
  return result;
}

}  // namespace beesim::oracle
