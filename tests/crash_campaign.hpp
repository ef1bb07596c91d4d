#pragma once

// The campaign the checkpoint crash test saves, built identically by
// tests/test_checkpoint.cpp and by tests/checkpoint_writer.cpp, the helper
// process that test kills mid-save: 50,000 points, a 14.6 MB file.

#include <numeric>
#include <vector>

#include "core/fleet_columns.hpp"
#include "core/hash128.hpp"

namespace beesim::crash {

inline core::FleetColumns campaign() {
  std::vector<int> counts(50000);
  std::iota(counts.begin(), counts.end(), 1);
  return core::FleetColumns::start(counts, 41, 3);
}

inline core::Hash128 campaign_hash() {
  return {0x6372617368ull, 0x63616d70ull};
}

}  // namespace beesim::crash
