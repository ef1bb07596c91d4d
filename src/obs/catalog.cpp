#include "obs/catalog.hpp"

namespace beesim::obs {

std::vector<double> slot_occupancy_bounds() {
  return Histogram::linear_bounds(0.0, 40.0, 40);
}

std::vector<double> serve_batch_bounds() {
  return Histogram::linear_bounds(0.0, 32.0, 32);
}

void register_catalog(Registry& reg) {
  namespace m = metric;
  for (const char* name :
       {m::kEngineEventsScheduled, m::kEngineEventsExecuted,
        m::kEngineEventsCancelled, m::kAllocatorCalls,
        m::kAllocatorClientsPlaced, m::kOrchestratorEvaluations,
        m::kOrchestratorInfeasible, m::kOrchestratorPlacementsEdge,
        m::kOrchestratorPlacementsCloud, m::kFleetCycles,
        m::kFleetRequestsEdge, m::kFleetRequestsCloud,
        m::kFleetRequestsDropped, m::kFleetHivesSimulated,
        m::kFleetSweepPoints, m::kDspFftPlanReuses, m::kDspStftFrames,
        m::kMlConvGemmFlops, m::kLossSaturatedSlots,
        m::kLossDropoutDraws, m::kLossDropoutClients, m::kServerSlotPlans,
        m::kClientSpecsBuilt, m::kClientCycleEvaluations, m::kLinkTransfers,
        m::kLinkBytes, m::kFaultWindowsScheduled, m::kFaultCyclesFaulted,
        m::kFaultBufferEnqueuedBytes, m::kFaultBufferDroppedBytes,
        m::kFleetDegradedCycles, m::kFleetShedClients,
        m::kFleetEdgeFallbackCycles, m::kPlacementSearches,
        m::kPlacementCandidatesExpanded, m::kPlacementCandidatesPruned,
        m::kPlacementEvaluations, m::kBatteryChargeEvents,
        m::kBatteryDischargeEvents, m::kBatteryDepletions,
        m::kBatteryDerateEvents, m::kMeterStateChanges,
        m::kServeRequestsSubmitted, m::kServeRequestsAdmitted,
        m::kServeRequestsRejected, m::kServeRequestsCompleted,
        m::kServeRequestsAnsweredAtSubmit, m::kServePointsRequested,
        m::kServePointsComputed, m::kServePointsCoalesced,
        m::kServeCacheHits, m::kServeCacheMisses,
        m::kServeCacheEvictions, m::kPoolTasks, m::kPoolSteals,
        m::kPoolParks,
        m::kCkptSaves, m::kCkptRestores,
        m::kCkptMerges, m::kCkptBytesWritten, m::kCkptBytesRead,
        m::kCkptRejected})
    reg.counter(name);
  for (const char* name :
       {m::kEngineMaxQueueDepth, m::kFleetMaxServersUsed,
        m::kFleetSweepThreads, m::kDspMelBandNnz, m::kDspDispatchIsa,
        m::kServerMaxSlotsPerCycle, m::kBatteryChargeJoules,
        m::kBatteryDischargeJoules, m::kFaultBufferPeakBytes,
        m::kServeQueuePeakDepth, m::kPlacementFrontierSize})
    reg.gauge(name);
  reg.histogram(metric::kAllocatorSlotOccupancy, slot_occupancy_bounds());
  reg.histogram(metric::kServeBatchWidth, serve_batch_bounds());
  // Timers (core.ckpt.save_time/restore_time, bench.*) register on first
  // use — a report only carries the timers that actually ran.
}

}  // namespace beesim::obs
