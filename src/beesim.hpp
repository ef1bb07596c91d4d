#pragma once

/// Umbrella header: the public face of beesim. Fine-grained includes stay
/// available for users who want a single subsystem; this header is for
/// application code (the examples use the specific headers so each one
/// documents its real dependencies).

// Shared substrate.
#include "util/config.hpp"     // key=value CLI configuration
#include "util/parallel.hpp"   // deterministic parallel_for
#include "util/rng.hpp"        // seeded xoshiro256** PRNG
#include "util/stats.hpp"      // streaming statistics
#include "util/units.hpp"      // SI helpers (J/W/s/bytes)

// Simulation substrate.
#include "sim/engine.hpp"  // discrete-event engine + periodic tasks
#include "sim/trace.hpp"   // time-series recording

// Physical substrates.
#include "energy/battery.hpp"
#include "energy/harvest.hpp"
#include "energy/meter.hpp"
#include "energy/solar.hpp"
#include "net/link.hpp"
#include "net/payload.hpp"

// Devices calibrated to the paper.
#include "device/calibration.hpp"
#include "device/profiles.hpp"
#include "device/routine.hpp"
#include "device/sim_device.hpp"

// Signal processing and machine learning.
#include "audio/dataset.hpp"
#include "audio/synth.hpp"
#include "audio/wav.hpp"
#include "dsp/spectrogram.hpp"
#include "ml/costmodel.hpp"
#include "ml/metrics.hpp"
#include "ml/network.hpp"
#include "ml/serialize.hpp"
#include "ml/svm.hpp"

// Beekeeping application layer.
#include "hive/adaptive.hpp"
#include "hive/apiary.hpp"
#include "hive/beehive.hpp"
#include "hive/services.hpp"

// The paper's contribution: orchestration at the edge and in the cloud.
#include "core/allocator.hpp"
#include "core/client.hpp"
#include "core/loss.hpp"
#include "core/network_sim.hpp"
#include "core/orchestrator.hpp"
#include "core/placement.hpp"
#include "core/placement_search.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/server.hpp"
#include "core/uncertainty.hpp"
