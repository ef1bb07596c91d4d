#include "core/fleet_columns.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dsp/simd_kernels.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::core {

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

namespace {

/// One row per fleet size, each at zero cycles.
template <typename Point>
std::vector<Point> fresh_rows(const std::vector<int>& client_counts,
                              int cycles_per_point, const char* what) {
  if (cycles_per_point < 1)
    throw std::invalid_argument(std::string(what) + ": cycles_per_point < 1");
  std::vector<Point> rows(client_counts.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (client_counts[i] < 0)
      throw std::invalid_argument(std::string(what) + ": negative clients");
    rows[i].initial_clients = client_counts[i];
  }
  return rows;
}

template <typename Point>
std::size_t count_done(const std::vector<Point>& rows, int cycles_target) {
  return static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(), [&](const Point& p) {
        return p.cycles >= cycles_target;
      }));
}

[[noreturn]] void merge_mismatch(const char* what) {
  throw std::invalid_argument(std::string("merge_from: campaigns differ: ") +
                              what);
}

/// Throws unless `a` and `b` describe the same campaign.
template <typename Campaign>
void require_same_campaign(const Campaign& a, const Campaign& b) {
  if (a.seed != b.seed) merge_mismatch("seed");
  if (a.cycles_target != b.cycles_target) merge_mismatch("cycle target");
  if (!std::equal(a.rows.begin(), a.rows.end(), b.rows.begin(),
                  b.rows.end(), [](const auto& x, const auto& y) {
                    return x.initial_clients == y.initial_clients;
                  }))
    merge_mismatch("client counts");
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

// ----------------------------------------------------------- FleetColumns

FleetColumns FleetColumns::start(const std::vector<int>& client_counts,
                                 std::uint64_t seed, int cycles_per_point) {
  FleetColumns c;
  c.seed = seed;
  c.cycles_target = cycles_per_point;
  c.rows = fresh_rows<SweepPoint>(client_counts, cycles_per_point,
                                  "FleetColumns");
  // Each cursor parked at the head of the point's addressed stream — the
  // exact generator sweep() would construct.
  c.rng.reserve(client_counts.size());
  for (const int n : client_counts)
    c.rng.push_back(
        util::Rng::for_stream(seed, static_cast<std::uint64_t>(n)).state());
  return c;
}

std::size_t FleetColumns::points_done() const noexcept {
  return count_done(rows, cycles_target);
}

std::int64_t FleetColumns::cycles_total() const noexcept {
  std::int64_t total = 0;
  for (const SweepPoint& p : rows) total += p.cycles;
  return total;
}

void FleetColumns::merge_from(const FleetColumns& other) {
  require_same_campaign(*this, other);
  for (std::size_t i = 0; i < size(); ++i) {
    // Points are independent (seed, clients)-addressed streams, so the
    // side that has simulated further holds exactly the state one
    // uninterrupted run would hold — take it wholesale.
    if (other.rows[i].cycles <= rows[i].cycles) continue;
    rows[i] = other.rows[i];
    rng[i] = other.rng[i];
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
  return std::move(columns.rows);
}

bool LargeScaleSimulator::advance(FleetColumns& columns, int max_cycles,
                                  unsigned threads, int shard_index,
                                  int shard_count) const {
  check_advance(max_cycles, columns.cycles_target, shard_index, shard_count);
  util::parallel_for(
      columns.size(),
      [&](std::size_t i) {
        if (!in_shard(i, shard_index, shard_count)) return;
        SweepPoint& point = columns.rows[i];
        const int target = columns.cycles_target;
        const int done = point.cycles;
        if (done >= target) return;
        const int budget =
            max_cycles == 0 ? target - done
                            : std::min(max_cycles, target - done);
        // Resume the point's generator exactly where the cursor points —
        // at start() that is the head of Rng::for_stream(seed, n), later
        // it is wherever the previous advance stopped, so the draw
        // sequence across advances is the one uninterrupted sweep() draws.
        util::Rng rng = util::Rng::from_state(columns.rng[i]);
        CycleMemo memo(*this);
        const int n = point.initial_clients;
        int servers = point.servers_used;
        // Every statistic sees every cycle, so all five share one n and
        // advance in lockstep through the shared chunked Welford loop.
        util::RunningStats* stats[5] = {
            &point.lost_clients, &point.active_slots, &point.edge_energy,
            &point.cloud_energy, &point.total_energy};
        dsp::Welford5 st;
        for (int l = 0; l < 5; ++l) set_welford_lane(st, l, *stats[l]);
        accumulate_cycles(st, budget, [&](int, double* row) {
          const CycleResult r = simulate_cycle(n, rng, &memo);
          servers = std::max(servers, r.servers_used);
          row[0] = static_cast<double>(r.lost_clients);
          row[1] = static_cast<double>(r.active_slots);
          row[2] = r.edge_energy;
          row[3] = r.cloud_energy;
          row[4] = r.edge_energy + r.cloud_energy;
        });
        for (int l = 0; l < 5; ++l) *stats[l] = welford_lane(st, l);
        point.servers_used = servers;
        point.cycles = done + budget;
        columns.rng[i] = rng.state();
      },
      threads);
  return columns.complete();
}

// ------------------------------------------------------ ResilienceColumns

ResilienceColumns ResilienceColumns::start(
    const std::vector<int>& client_counts, std::uint64_t seed,
    int cycles_per_point) {
  ResilienceColumns c;
  c.seed = seed;
  c.cycles_target = cycles_per_point;
  c.rows = fresh_rows<ResiliencePoint>(client_counts, cycles_per_point,
                                       "ResilienceColumns");
  return c;
}

std::size_t ResilienceColumns::points_done() const noexcept {
  return count_done(rows, cycles_target);
}

void ResilienceColumns::merge_from(const ResilienceColumns& other) {
  require_same_campaign(*this, other);
  for (std::size_t i = 0; i < size(); ++i)
    if (other.rows[i].cycles > rows[i].cycles) rows[i] = other.rows[i];
}

std::vector<ResiliencePoint> ResilientFleet::sweep(
    const std::vector<int>& client_counts, std::uint64_t seed,
    int cycles_per_point, unsigned threads) const {
  ResilienceColumns columns =
      ResilienceColumns::start(client_counts, seed, cycles_per_point);
  advance(columns, 0, threads);
  return std::move(columns.rows);
}

bool ResilientFleet::advance(ResilienceColumns& columns, int max_points,
                             unsigned threads, int shard_index,
                             int shard_count) const {
  check_advance(max_points, columns.cycles_target, shard_index, shard_count);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (columns.rows[i].cycles < columns.cycles_target &&
        in_shard(i, shard_index, shard_count))
      todo.push_back(i);
  if (max_points > 0 && todo.size() > static_cast<std::size_t>(max_points))
    todo.resize(static_cast<std::size_t>(max_points));
  util::parallel_for(
      todo.size(),
      [&](std::size_t t) {
        ResiliencePoint& point = columns.rows[todo[t]];
        const int n = point.initial_clients;
        util::Rng rng =
            util::Rng::for_stream(columns.seed, static_cast<std::uint64_t>(n));
        point = run_point(n, columns.cycles_target, rng);
      },
      threads);
  return columns.complete();
}

}  // namespace beesim::core
