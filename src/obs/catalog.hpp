#pragma once

#include "obs/metrics.hpp"

namespace beesim::obs {

/// Canonical names of every built-in instrument, shared between the
/// instrumentation sites and the run-report so a typo cannot silently
/// split a metric in two. Naming convention (see docs/OBSERVABILITY.md):
/// `<module>.<component>.<metric>`, lower snake_case leaves, counters
/// named after the event they count, gauges after the quantity they hold.
namespace metric {

// sim::Engine — discrete-event core.
inline constexpr const char* kEngineEventsScheduled =
    "sim.engine.events_scheduled";
inline constexpr const char* kEngineEventsExecuted =
    "sim.engine.events_executed";
inline constexpr const char* kEngineEventsCancelled =
    "sim.engine.events_cancelled";
inline constexpr const char* kEngineMaxQueueDepth =
    "sim.engine.max_queue_depth";

// util::TaskPool — the persistent executor behind util::parallel_for,
// one mutex-guarded queue of helper tasks (docs/ARCHITECTURE.md
// "Threading model"). Totals are kept pool-side as plain atomics and
// published from issuing threads when a region completes, so workers
// never touch the registry. A steal is a nested region's helper run by
// a sibling of the issuing worker.
inline constexpr const char* kPoolTasks = "util.pool.tasks";
inline constexpr const char* kPoolSteals = "util.pool.steals";
inline constexpr const char* kPoolParks = "util.pool.parks";

// core::allocate_compact_into — client -> server/slot assignment; every
// allocation counts once in `calls`.
inline constexpr const char* kAllocatorCalls = "core.allocator.calls";
inline constexpr const char* kAllocatorClientsPlaced =
    "core.allocator.clients_placed";
inline constexpr const char* kAllocatorSlotOccupancy =
    "core.allocator.slot_occupancy";

// core::ServiceOrchestrator — multi-service placement search.
inline constexpr const char* kOrchestratorEvaluations =
    "core.orchestrator.evaluations";
inline constexpr const char* kOrchestratorInfeasible =
    "core.orchestrator.infeasible";
inline constexpr const char* kOrchestratorPlacementsEdge =
    "core.orchestrator.placements_edge";
inline constexpr const char* kOrchestratorPlacementsCloud =
    "core.orchestrator.placements_cloud";

// core::PlacementSearch — beam/DP placement optimizer
// (docs/PLACEMENT.md).
inline constexpr const char* kPlacementSearches =
    "core.placement.searches";
inline constexpr const char* kPlacementCandidatesExpanded =
    "core.placement.candidates_expanded";
inline constexpr const char* kPlacementCandidatesPruned =
    "core.placement.candidates_pruned";
inline constexpr const char* kPlacementEvaluations =
    "core.placement.evaluations";
inline constexpr const char* kPlacementFrontierSize =
    "core.placement.frontier_size";
// Timer (seconds): one observation per search() call.
inline constexpr const char* kPlacementSearchTime =
    "core.placement.search_time";

// core::LargeScaleSimulator — fleet wake-up cycles.
inline constexpr const char* kFleetCycles = "core.fleet.cycles";
inline constexpr const char* kFleetRequestsEdge =
    "core.fleet.requests_edge";
inline constexpr const char* kFleetRequestsCloud =
    "core.fleet.requests_cloud";
inline constexpr const char* kFleetRequestsDropped =
    "core.fleet.requests_dropped";
inline constexpr const char* kFleetMaxServersUsed =
    "core.fleet.max_servers_used";
inline constexpr const char* kFleetHivesSimulated =
    "core.fleet.hives_simulated";
inline constexpr const char* kFleetSweepPoints = "core.fleet.sweep_points";
inline constexpr const char* kFleetSweepThreads =
    "core.fleet.sweep_threads";

// core::ResilientFleet — degradation policies under injected faults.
inline constexpr const char* kFleetDegradedCycles =
    "core.fleet.degraded_cycles";
inline constexpr const char* kFleetShedClients =
    "core.fleet.shed_clients";
inline constexpr const char* kFleetEdgeFallbackCycles =
    "core.fleet.edge_fallback_cycles";

// core::Checkpoint — snapshot/restore of sweep campaign state
// (docs/CHECKPOINT.md).
inline constexpr const char* kCkptSaves = "core.ckpt.saves";
inline constexpr const char* kCkptRestores = "core.ckpt.restores";
inline constexpr const char* kCkptMerges = "core.ckpt.merges";
inline constexpr const char* kCkptBytesWritten = "core.ckpt.bytes_written";
inline constexpr const char* kCkptBytesRead = "core.ckpt.bytes_read";
inline constexpr const char* kCkptRejected = "core.ckpt.rejected";
// Timers (seconds; count/total/min/max): one observation per save or
// per validated load.
inline constexpr const char* kCkptSaveTime = "core.ckpt.save_time";
inline constexpr const char* kCkptRestoreTime = "core.ckpt.restore_time";

// core::LossConfig — the Section VI loss models.
inline constexpr const char* kLossSaturatedSlots =
    "core.loss.saturated_slots";
inline constexpr const char* kLossDropoutDraws = "core.loss.dropout_draws";
inline constexpr const char* kLossDropoutClients =
    "core.loss.dropout_clients";

// core::ServerSpec / core::ClientSpec — capacity planning.
inline constexpr const char* kServerSlotPlans = "core.server.slot_plans";
inline constexpr const char* kServerMaxSlotsPerCycle =
    "core.server.max_slots_per_cycle";
inline constexpr const char* kClientSpecsBuilt =
    "core.client.specs_built";
inline constexpr const char* kClientCycleEvaluations =
    "core.client.cycle_evaluations";

// dsp — queen-detection signal-processing kernels (Section V front end).
inline constexpr const char* kDspFftPlanReuses = "dsp.fft.plan_reuses";
inline constexpr const char* kDspStftFrames = "dsp.stft.frames";
inline constexpr const char* kDspMelBandNnz = "dsp.mel.band_nnz";
// Gauge: active SIMD dispatch tier (dsp/dispatch.hpp IsaTier value —
// 0 scalar, 1 sse2, 2 avx2), published when the tier is resolved or
// forced via dsp::set_active_isa.
inline constexpr const char* kDspDispatchIsa = "dsp.dispatch.isa";

// ml::Conv2d — GEMM convolution fast path.
inline constexpr const char* kMlConvGemmFlops = "ml.conv.gemm_flops";

// net::Link.
inline constexpr const char* kLinkTransfers = "net.link.transfers";
inline constexpr const char* kLinkBytes = "net.link.bytes";

// fault::FaultInjector / fault::StoreAndForwardBuffer — the
// fault-injection and graceful-degradation layer (docs/RESILIENCE.md).
inline constexpr const char* kFaultWindowsScheduled =
    "fault.windows_scheduled";
inline constexpr const char* kFaultCyclesFaulted = "fault.cycles_faulted";
inline constexpr const char* kFaultBufferEnqueuedBytes =
    "fault.buffer.enqueued_bytes";
inline constexpr const char* kFaultBufferDroppedBytes =
    "fault.buffer.dropped_bytes";
inline constexpr const char* kFaultBufferPeakBytes =
    "fault.buffer.peak_bytes";

// serve::SimulationService — the multi-tenant serving layer
// (docs/SERVING.md).
inline constexpr const char* kServeRequestsSubmitted =
    "serve.requests_submitted";
inline constexpr const char* kServeRequestsAdmitted =
    "serve.requests_admitted";
inline constexpr const char* kServeRequestsRejected =
    "serve.requests_rejected";
inline constexpr const char* kServeRequestsCompleted =
    "serve.requests_completed";
inline constexpr const char* kServeRequestsAnsweredAtSubmit =
    "serve.requests_answered_at_submit";
inline constexpr const char* kServePointsRequested =
    "serve.points_requested";
inline constexpr const char* kServePointsComputed = "serve.points_computed";
inline constexpr const char* kServePointsCoalesced =
    "serve.points_coalesced";
inline constexpr const char* kServeCacheHits = "serve.cache.hits";
inline constexpr const char* kServeCacheMisses = "serve.cache.misses";
inline constexpr const char* kServeCacheEvictions =
    "serve.cache.evictions";
inline constexpr const char* kServeBatchWidth = "serve.batch.width";
inline constexpr const char* kServeQueuePeakDepth =
    "serve.queue.peak_depth";

// energy::Battery / energy::EnergyMeter.
inline constexpr const char* kBatteryChargeEvents =
    "energy.battery.charge_events";
inline constexpr const char* kBatteryDischargeEvents =
    "energy.battery.discharge_events";
inline constexpr const char* kBatteryChargeJoules =
    "energy.battery.charge_joules";
inline constexpr const char* kBatteryDischargeJoules =
    "energy.battery.discharge_joules";
inline constexpr const char* kBatteryDepletions =
    "energy.battery.depletions";
inline constexpr const char* kBatteryDerateEvents =
    "energy.battery.derate_events";
inline constexpr const char* kMeterStateChanges =
    "energy.meter.state_changes";

}  // namespace metric

/// Bucket layout of the slot-occupancy histogram: clients per active slot,
/// 1..40 covers every max_parallel the paper sweeps (10 and 35).
std::vector<double> slot_occupancy_bounds();

/// Bucket layout of the serving batch-width histogram: requests per
/// dispatched batch, 1..32 covers SimulationService::kMaxBatch.
std::vector<double> serve_batch_bounds();

/// Registers every catalog instrument (at zero) so a run-report always
/// contains the full metric set, including subsystems a given experiment
/// never touched — readers diff reports without worrying about missing
/// keys. Instrumentation sites do NOT depend on this being called.
void register_catalog(Registry& registry);

}  // namespace beesim::obs
