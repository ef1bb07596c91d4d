#include "core/fleet_columns.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "dsp/simd_kernels.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::core {

// ------------------------------------------------------------ StatColumns

void StatColumns::reset(std::size_t count) {
  n.assign(count, 0);
  mean.assign(count, 0.0);
  m2.assign(count, 0.0);
  sum.assign(count, 0.0);
  min.assign(count, std::numeric_limits<double>::infinity());
  max.assign(count, -std::numeric_limits<double>::infinity());
}

util::RunningStats StatColumns::stats(std::size_t i) const {
  util::RunningStats::Raw raw;
  raw.n = n[i];
  raw.mean = mean[i];
  raw.m2 = m2[i];
  raw.sum = sum[i];
  raw.min = min[i];
  raw.max = max[i];
  return util::RunningStats::from_raw(raw);
}

void StatColumns::set(std::size_t i, const util::RunningStats& s) {
  const util::RunningStats::Raw raw = s.raw();
  n[i] = raw.n;
  mean[i] = raw.mean;
  m2[i] = raw.m2;
  sum[i] = raw.sum;
  min[i] = raw.min;
  max[i] = raw.max;
}

util::RunningStats welford_lane(const dsp::Welford5& st, int lane) {
  util::RunningStats::Raw raw;
  raw.n = st.n;
  raw.mean = st.mean[lane];
  raw.m2 = st.m2[lane];
  raw.sum = st.sum[lane];
  raw.min = st.min[lane];
  raw.max = st.max[lane];
  return util::RunningStats::from_raw(raw);
}

void set_welford_lane(dsp::Welford5& st, int lane,
                      const util::RunningStats& stats) {
  const util::RunningStats::Raw raw = stats.raw();
  st.n = raw.n;
  st.mean[lane] = raw.mean;
  st.m2[lane] = raw.m2;
  st.sum[lane] = raw.sum;
  st.min[lane] = raw.min;
  st.max[lane] = raw.max;
}

// ----------------------------------------------------------- FleetColumns

FleetColumns FleetColumns::start(const std::vector<int>& client_counts,
                                 std::uint64_t seed, int cycles_per_point) {
  if (cycles_per_point < 1)
    throw std::invalid_argument("FleetColumns: cycles_per_point < 1");
  FleetColumns c;
  c.seed = seed;
  c.cycles_target = cycles_per_point;
  const std::size_t count = client_counts.size();
  c.clients.resize(count);
  c.cycles_done.assign(count, 0);
  c.servers_used.assign(count, 0);
  c.rng_s0.resize(count);
  c.rng_s1.resize(count);
  c.rng_s2.resize(count);
  c.rng_s3.resize(count);
  c.rng_cached_normal.assign(count, 0.0);
  c.rng_has_cached.assign(count, 0);
  c.lost_clients.reset(count);
  c.active_slots.reset(count);
  c.edge_energy.reset(count);
  c.cloud_energy.reset(count);
  c.total_energy.reset(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (client_counts[i] < 0)
      throw std::invalid_argument("FleetColumns: negative clients");
    c.clients[i] = client_counts[i];
    // Cursor parked at the head of the point's addressed stream — the
    // exact generator sweep() would construct.
    c.set_rng_state(i, util::Rng::for_stream(
                           seed, static_cast<std::uint64_t>(client_counts[i]))
                           .state());
  }
  return c;
}

bool FleetColumns::complete() const noexcept {
  return points_done() == size();
}

std::size_t FleetColumns::points_done() const noexcept {
  std::size_t done = 0;
  for (std::size_t i = 0; i < size(); ++i)
    if (cycles_done[i] >= cycles_target) ++done;
  return done;
}

std::int64_t FleetColumns::cycles_total() const noexcept {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < size(); ++i) total += cycles_done[i];
  return total;
}

util::Rng::State FleetColumns::rng_state(std::size_t i) const noexcept {
  util::Rng::State s;
  s.s[0] = rng_s0[i];
  s.s[1] = rng_s1[i];
  s.s[2] = rng_s2[i];
  s.s[3] = rng_s3[i];
  s.cached_normal = rng_cached_normal[i];
  s.has_cached_normal = rng_has_cached[i] != 0;
  return s;
}

void FleetColumns::set_rng_state(std::size_t i,
                                 const util::Rng::State& s) noexcept {
  rng_s0[i] = s.s[0];
  rng_s1[i] = s.s[1];
  rng_s2[i] = s.s[2];
  rng_s3[i] = s.s[3];
  rng_cached_normal[i] = s.cached_normal;
  rng_has_cached[i] = s.has_cached_normal ? 1 : 0;
}

SweepPoint FleetColumns::point(std::size_t i) const {
  SweepPoint p;
  p.initial_clients = clients[i];
  p.cycles = cycles_done[i];
  p.servers_used = servers_used[i];
  p.lost_clients = lost_clients.stats(i);
  p.active_slots = active_slots.stats(i);
  p.edge_energy = edge_energy.stats(i);
  p.cloud_energy = cloud_energy.stats(i);
  p.total_energy = total_energy.stats(i);
  return p;
}

std::vector<SweepPoint> FleetColumns::points() const {
  std::vector<SweepPoint> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(point(i));
  return out;
}

namespace {

[[noreturn]] void merge_mismatch(const char* what) {
  throw std::invalid_argument(std::string("merge_from: campaigns differ: ") +
                              what);
}

/// Validates an advance call's budget, cycle target and shard spec.
void check_advance(int budget, std::int32_t cycles_target, int shard_index,
                   int shard_count) {
  if (budget < 0) throw std::invalid_argument("advance: negative budget");
  if (cycles_target < 1)
    throw std::invalid_argument("advance: cycles_target < 1");
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("advance: bad shard");
}

/// Whether point `i` belongs to shard `shard_index` of `shard_count`.
bool in_shard(std::size_t i, int shard_index, int shard_count) {
  return i % static_cast<std::size_t>(shard_count) ==
         static_cast<std::size_t>(shard_index);
}

}  // namespace

void FleetColumns::merge_from(const FleetColumns& other) {
  if (seed != other.seed) merge_mismatch("seed");
  if (cycles_target != other.cycles_target) merge_mismatch("cycle target");
  if (clients != other.clients) merge_mismatch("client counts");
  for (std::size_t i = 0; i < size(); ++i) {
    // Points are independent (seed, clients)-addressed streams, so the
    // side that has simulated further holds exactly the state one
    // uninterrupted run would hold — take it wholesale.
    if (other.cycles_done[i] <= cycles_done[i]) continue;
    cycles_done[i] = other.cycles_done[i];
    servers_used[i] = other.servers_used[i];
    set_rng_state(i, other.rng_state(i));
    lost_clients.set(i, other.lost_clients.stats(i));
    active_slots.set(i, other.active_slots.stats(i));
    edge_energy.set(i, other.edge_energy.stats(i));
    cloud_energy.set(i, other.cloud_energy.stats(i));
    total_energy.set(i, other.total_energy.stats(i));
  }
}

std::vector<SweepPoint> LargeScaleSimulator::sweep(
    const std::vector<int>& client_counts, std::uint64_t seed,
    int cycles_per_point, unsigned threads) const {
  FleetColumns columns =
      FleetColumns::start(client_counts, seed, cycles_per_point);
  advance(columns, 0, threads);
  if (obs::enabled()) {
    static auto& points =
        obs::registry().counter(obs::metric::kFleetSweepPoints);
    static auto& sweep_threads =
        obs::registry().gauge(obs::metric::kFleetSweepThreads);
    points.inc(static_cast<std::uint64_t>(client_counts.size()));
    const auto used = std::min<std::size_t>(
        threads == 0 ? util::default_thread_count() : threads,
        std::max<std::size_t>(client_counts.size(), 1));
    sweep_threads.set(static_cast<double>(used));
  }
  return columns.points();
}

bool LargeScaleSimulator::advance(FleetColumns& columns, int max_cycles,
                                  unsigned threads, int shard_index,
                                  int shard_count) const {
  check_advance(max_cycles, columns.cycles_target, shard_index, shard_count);
  util::parallel_for(
      columns.size(),
      [&](std::size_t i) {
        if (!in_shard(i, shard_index, shard_count)) return;
        const int target = columns.cycles_target;
        const int done = columns.cycles_done[i];
        if (done >= target) return;
        const int budget =
            max_cycles == 0 ? target - done
                            : std::min(max_cycles, target - done);
        // Resume the point's generator exactly where the cursor points —
        // at start() that is the head of Rng::for_stream(seed, n), later
        // it is wherever the previous advance stopped, so the draw
        // sequence across advances is the one uninterrupted sweep() draws.
        util::Rng rng = util::Rng::from_state(columns.rng_state(i));
        CycleMemo memo(*this);
        const int n = columns.clients[i];
        int servers = columns.servers_used[i];
        // Every statistic sees every cycle, so all five share one n and
        // advance in lockstep through the shared chunked Welford loop.
        StatColumns* cols[5] = {&columns.lost_clients, &columns.active_slots,
                                &columns.edge_energy, &columns.cloud_energy,
                                &columns.total_energy};
        dsp::Welford5 st;
        for (int l = 0; l < 5; ++l) set_welford_lane(st, l, cols[l]->stats(i));
        accumulate_cycles(st, budget, [&](int, double* row) {
          const CycleResult r = simulate_cycle(n, rng, &memo);
          servers = std::max(servers, r.servers_used);
          row[0] = static_cast<double>(r.lost_clients);
          row[1] = static_cast<double>(r.active_slots);
          row[2] = r.edge_energy;
          row[3] = r.cloud_energy;
          row[4] = r.edge_energy + r.cloud_energy;
        });
        for (int l = 0; l < 5; ++l) cols[l]->set(i, welford_lane(st, l));
        columns.servers_used[i] = servers;
        columns.cycles_done[i] = done + budget;
        columns.set_rng_state(i, rng.state());
      },
      threads);
  return columns.complete();
}

// ------------------------------------------------------ ResilienceColumns

ResilienceColumns ResilienceColumns::start(
    const std::vector<int>& client_counts, std::uint64_t seed,
    int cycles_per_point) {
  if (cycles_per_point < 1)
    throw std::invalid_argument("ResilienceColumns: cycles_per_point < 1");
  ResilienceColumns c;
  c.seed = seed;
  c.cycles_target = cycles_per_point;
  const std::size_t count = client_counts.size();
  c.clients.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (client_counts[i] < 0)
      throw std::invalid_argument("ResilienceColumns: negative clients");
    c.clients[i] = client_counts[i];
  }
  c.done.assign(count, 0);
  c.servers_used.assign(count, 0);
  c.degraded_cycles.assign(count, 0);
  c.edge_fallback_cycles.assign(count, 0);
  c.fallback_client_cycles.assign(count, 0);
  c.shed_client_cycles.assign(count, 0);
  c.browned_client_cycles.assign(count, 0);
  c.sensor_mute_client_cycles.assign(count, 0);
  c.lost_clients.reset(count);
  c.edge_energy.reset(count);
  c.cloud_energy.reset(count);
  c.total_energy.reset(count);
  c.bytes_generated.assign(count, 0.0);
  c.bytes_served.assign(count, 0.0);
  c.bytes_recovered.assign(count, 0.0);
  c.bytes_dropped.assign(count, 0.0);
  c.bytes_pending.assign(count, 0.0);
  c.bytes_lost.assign(count, 0.0);
  return c;
}

bool ResilienceColumns::complete() const noexcept {
  return points_done() == size();
}

std::size_t ResilienceColumns::points_done() const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < size(); ++i)
    if (done[i] != 0) ++count;
  return count;
}

ResiliencePoint ResilienceColumns::point(std::size_t i) const {
  ResiliencePoint p;
  p.initial_clients = clients[i];
  p.cycles = done[i] != 0 ? cycles_target : 0;
  p.servers_used = servers_used[i];
  p.degraded_cycles = degraded_cycles[i];
  p.edge_fallback_cycles = edge_fallback_cycles[i];
  p.fallback_client_cycles = fallback_client_cycles[i];
  p.shed_client_cycles = shed_client_cycles[i];
  p.browned_client_cycles = browned_client_cycles[i];
  p.sensor_mute_client_cycles = sensor_mute_client_cycles[i];
  p.lost_clients = lost_clients.stats(i);
  p.edge_energy = edge_energy.stats(i);
  p.cloud_energy = cloud_energy.stats(i);
  p.total_energy = total_energy.stats(i);
  p.bytes_generated = bytes_generated[i];
  p.bytes_served = bytes_served[i];
  p.bytes_recovered = bytes_recovered[i];
  p.bytes_dropped = bytes_dropped[i];
  p.bytes_pending = bytes_pending[i];
  p.bytes_lost = bytes_lost[i];
  return p;
}

std::vector<ResiliencePoint> ResilienceColumns::points() const {
  std::vector<ResiliencePoint> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(point(i));
  return out;
}

void ResilienceColumns::set_point(std::size_t i, const ResiliencePoint& p) {
  servers_used[i] = p.servers_used;
  degraded_cycles[i] = p.degraded_cycles;
  edge_fallback_cycles[i] = p.edge_fallback_cycles;
  fallback_client_cycles[i] = p.fallback_client_cycles;
  shed_client_cycles[i] = p.shed_client_cycles;
  browned_client_cycles[i] = p.browned_client_cycles;
  sensor_mute_client_cycles[i] = p.sensor_mute_client_cycles;
  lost_clients.set(i, p.lost_clients);
  edge_energy.set(i, p.edge_energy);
  cloud_energy.set(i, p.cloud_energy);
  total_energy.set(i, p.total_energy);
  bytes_generated[i] = p.bytes_generated;
  bytes_served[i] = p.bytes_served;
  bytes_recovered[i] = p.bytes_recovered;
  bytes_dropped[i] = p.bytes_dropped;
  bytes_pending[i] = p.bytes_pending;
  bytes_lost[i] = p.bytes_lost;
  done[i] = 1;
}

void ResilienceColumns::merge_from(const ResilienceColumns& other) {
  if (seed != other.seed) merge_mismatch("seed");
  if (cycles_target != other.cycles_target) merge_mismatch("cycle target");
  if (clients != other.clients) merge_mismatch("client counts");
  for (std::size_t i = 0; i < size(); ++i) {
    if (done[i] != 0 || other.done[i] == 0) continue;
    set_point(i, other.point(i));
  }
}

std::vector<ResiliencePoint> ResilientFleet::sweep(
    const std::vector<int>& client_counts, std::uint64_t seed,
    int cycles_per_point, unsigned threads) const {
  ResilienceColumns columns =
      ResilienceColumns::start(client_counts, seed, cycles_per_point);
  advance(columns, 0, threads);
  return columns.points();
}

bool ResilientFleet::advance(ResilienceColumns& columns, int max_points,
                             unsigned threads, int shard_index,
                             int shard_count) const {
  check_advance(max_points, columns.cycles_target, shard_index, shard_count);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (columns.done[i] == 0 && in_shard(i, shard_index, shard_count))
      todo.push_back(i);
  if (max_points > 0 && todo.size() > static_cast<std::size_t>(max_points))
    todo.resize(static_cast<std::size_t>(max_points));
  util::parallel_for(
      todo.size(),
      [&](std::size_t t) {
        const std::size_t i = todo[t];
        const int n = columns.clients[i];
        util::Rng rng =
            util::Rng::for_stream(columns.seed, static_cast<std::uint64_t>(n));
        columns.set_point(i, run_point(n, columns.cycles_target, rng));
      },
      threads);
  return columns.complete();
}

// ------------------------------------------------------------ FarmColumns

void FarmColumns::resize(std::size_t count) {
  battery_level.assign(count, 0.0);
  wakeups_attempted.assign(count, 0);
  wakeups_completed.assign(count, 0);
  wakeups_skipped.assign(count, 0);
  outage_time.assign(count, 0.0);
  harvested.assign(count, 0.0);
  consumed.assign(count, 0.0);
  regime_transitions.assign(count, 0);
  wakeups_degraded.assign(count, 0);
  wakeups_muted.assign(count, 0);
  events_executed.assign(count, 0);
}

FarmColumns FarmColumns::from_runs(const std::vector<hive::HiveRun>& runs) {
  FarmColumns c;
  c.resize(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const hive::HiveRun& run = runs[i];
    c.battery_level[i] = run.battery_level;
    c.wakeups_attempted[i] = run.stats.wakeups_attempted;
    c.wakeups_completed[i] = run.stats.wakeups_completed;
    c.wakeups_skipped[i] = run.stats.wakeups_skipped;
    c.outage_time[i] = run.stats.outage_time;
    c.harvested[i] = run.stats.harvested;
    c.consumed[i] = run.stats.consumed;
    c.regime_transitions[i] = run.stats.regime_transitions;
    c.wakeups_degraded[i] = run.stats.wakeups_degraded;
    c.wakeups_muted[i] = run.stats.wakeups_muted;
    c.events_executed[i] = run.events_executed;
  }
  return c;
}

std::vector<hive::HiveRun> FarmColumns::to_runs() const {
  std::vector<hive::HiveRun> runs(size());
  for (std::size_t i = 0; i < size(); ++i) {
    hive::HiveRun& run = runs[i];
    run.battery_level = battery_level[i];
    run.stats.wakeups_attempted = wakeups_attempted[i];
    run.stats.wakeups_completed = wakeups_completed[i];
    run.stats.wakeups_skipped = wakeups_skipped[i];
    run.stats.outage_time = outage_time[i];
    run.stats.harvested = harvested[i];
    run.stats.consumed = consumed[i];
    run.stats.regime_transitions = regime_transitions[i];
    run.stats.wakeups_degraded = wakeups_degraded[i];
    run.stats.wakeups_muted = wakeups_muted[i];
    run.events_executed = events_executed[i];
  }
  return runs;
}

}  // namespace beesim::core
