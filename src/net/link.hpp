#pragma once

#include "net/payload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::net {

using util::Seconds;

/// Stochastic point-to-point link. Throughput per transfer is drawn from a
/// truncated normal; this is the mechanism behind the 3.5 s standard
/// deviation of routine lengths the paper attributes to "unstable network
/// throughput". Presets model the deployed 802.11n uplink from a rooftop
/// to the storage server.
class Link {
 public:
  struct Params {
    double throughput_mean_mbps = 8.0;
    double throughput_stddev_mbps = 2.0;
    double throughput_floor_mbps = 0.5;  // never slower than this
    Seconds setup_time = 1.2;            // association + TLS handshake
    Seconds latency = 0.02;              // per-message RTT contribution
  };

  Link();  // default Params
  explicit Link(const Params& params);

  /// Transfer duration for `bytes`, sampled with `rng`.
  Seconds transfer_time(Bytes bytes, util::Rng& rng) const;

  /// Deterministic duration at the mean throughput (for analytic models).
  Seconds expected_transfer_time(Bytes bytes) const;

  const Params& params() const noexcept { return params_; }

  /// Rooftop Wi-Fi as deployed (Cachan / Lyon campuses).
  static Link wifi_80211n();
  /// Degraded long-range link (apiary far from the gateway).
  static Link wifi_far();

 private:
  Params params_;
};

}  // namespace beesim::net
