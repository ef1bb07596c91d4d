#include "core/canonical.hpp"

#include <cstdio>
#include <cstring>

namespace beesim::core {
namespace {

// Structure tags: one per hashed type, so a ClientSpec can never alias a
// ServerSpec even if their field bytes happened to line up.
enum : std::uint8_t {
  kTagTask = 0x01,
  kTagClient = 0x02,
  kTagServer = 0x03,
  kTagLoss = 0x04,
  kTagFleet = 0x05,
  kTagFaultWindow = 0x06,
  kTagFaultPlan = 0x07,
  kTagPolicy = 0x08,
  kTagDeviceClass = 0x09,
  kTagSearchOptions = 0x0a,
};

}  // namespace

std::string Hash128::to_string() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx.%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void CanonicalHasher::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto load_le = [](const unsigned char* q) {
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) w |= std::uint64_t{q[i]} << (8 * i);
    return w;
  };
  for (; n >= 8; p += 8, n -= 8) append(load_le(p), 8);
  if (n == 0) return;
  unsigned char last[8] = {};
  std::memcpy(last, p, n);
  append(load_le(last), static_cast<unsigned>(n));
}

void hash_append(CanonicalHasher& h, const device::TaskSpec& task) {
  h.tag(kTagTask);
  h.str(task.name);
  h.f64(task.duration);
  h.f64(task.power);
  h.f64(task.duration_stddev);
}

void hash_append(CanonicalHasher& h, const ClientSpec& client) {
  h.tag(kTagClient);
  h.f64(client.sleep_power);
  h.u64(client.actions.size());
  for (const auto& task : client.actions) hash_append(h, task);
  h.f64(client.period);
}

void hash_append(CanonicalHasher& h, const ServerSpec& server) {
  h.tag(kTagServer);
  h.f64(server.idle_power);
  h.f64(server.receive_time);
  h.f64(server.receive_power);
  h.f64(server.process_time);
  h.f64(server.process_power);
  h.i64(server.max_parallel);
  h.f64(server.cycle);
  h.f64(server.extra_transfer_per_client);
}

void hash_append(CanonicalHasher& h, const LossConfig& loss) {
  h.tag(kTagLoss);
  h.boolean(loss.slot_saturation);
  h.i64(loss.saturation_slack);
  h.f64(loss.saturation_penalty);
  h.boolean(loss.transfer_stretch);
  h.f64(loss.extra_transfer_per_client);
  h.boolean(loss.client_dropout);
  h.f64(loss.dropout_mean_fraction);
  h.f64(loss.dropout_stddev);
}

void hash_append(CanonicalHasher& h, const FleetParams& params) {
  h.tag(kTagFleet);
  hash_append(h, params.client);
  hash_append(h, params.server);
  h.i64(static_cast<std::int64_t>(params.policy));
  hash_append(h, params.loss);
}

void hash_append(CanonicalHasher& h, const fault::FaultWindow& window) {
  h.tag(kTagFaultWindow);
  h.i64(static_cast<std::int64_t>(window.kind));
  h.i64(window.first_cycle);
  h.i64(window.last_cycle);
  h.f64(window.severity);
}

void hash_append(CanonicalHasher& h, const fault::FaultPlan& plan) {
  h.tag(kTagFaultPlan);
  h.u64(plan.windows().size());
  for (const auto& window : plan.windows()) hash_append(h, window);
}

void hash_append(CanonicalHasher& h, const DeviceClassSpec& cls) {
  h.tag(kTagDeviceClass);
  h.str(cls.name);
  h.i64(cls.count);
  h.f64(cls.compute_scale);
  h.f64(cls.energy_scale);
  h.f64(cls.battery_soc);
  h.f64(cls.link_quality);
}

void hash_append(CanonicalHasher& h, const FleetSearchOptions& options) {
  h.tag(kTagSearchOptions);
  h.i64(options.beam_width);
  h.i64(options.max_frontier);
  h.i64(options.max_cloud_servers);
  h.boolean(options.cloud_available);
  h.f64(options.loss_weight_j_per_mb);
  h.f64(options.soc_floor);
  // The word of the deleted DP-bound switch, which no caller turned off:
  // kept so saved checkpoint identities and the pinned goldens hold.
  h.boolean(true);
}

void hash_append(CanonicalHasher& h, const ResiliencePolicy& policy) {
  h.tag(kTagPolicy);
  h.boolean(policy.edge_fallback);
  h.boolean(policy.store_and_forward);
  h.f64(policy.buffer_bytes_per_client);
  h.boolean(policy.load_shedding);
  h.f64(policy.upload_bytes_per_client);
  h.f64(policy.upload_energy_per_payload);
  h.f64(policy.catchup_factor);
  // The word of the deleted optimizer field (greedy 0, beam 1). Every
  // caller with classes and a positive tolerance chose beam and every
  // other one greedy, so saved checkpoint identities and the pinned
  // goldens hold.
  const bool beam =
      !policy.classes.empty() && policy.outage_loss_tolerance > 0.0;
  h.i64(beam ? 1 : 0);
  h.u64(policy.classes.size());
  for (const auto& cls : policy.classes) hash_append(h, cls);
  h.f64(policy.outage_loss_tolerance);
  hash_append(h, policy.search);
}

Hash128 canonical_hash(const FleetParams& params) {
  CanonicalHasher h;
  hash_append(h, params);
  return h.digest();
}

}  // namespace beesim::core
