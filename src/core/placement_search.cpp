#include "core/placement_search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::core {
namespace {

// Structure tag of the assignment-vector hash (disjoint from the scenario
// tags in canonical.cpp, which start at 0x01).
constexpr std::uint8_t kTagAssignmentVector = 0x10;

bool finite_positive(double v) noexcept {
  return std::isfinite(v) && v > 0.0;
}

int pow3(int n) {
  int p = 1;
  for (int i = 0; i < n; ++i) p *= 3;
  return p;
}

}  // namespace

const char* to_string(Assignment a) noexcept {
  switch (a) {
    case Assignment::kEdge: return "edge";
    case Assignment::kCloud: return "cloud";
    case Assignment::kShed: return "shed";
  }
  return "?";
}

DeviceClassSpec DeviceClassSpec::calibrated(std::string name, int count,
                                            const energy::Battery& battery,
                                            const net::Link& link) {
  DeviceClassSpec cls;
  cls.name = std::move(name);
  cls.count = count;
  cls.battery_soc = std::clamp(battery.state_of_charge(), 1e-3, 1.0);
  const double reference =
      net::Link::wifi_80211n().params().throughput_mean_mbps;
  cls.link_quality =
      std::clamp(link.params().throughput_mean_mbps / reference, 1e-3, 1.0);
  cls.validate();
  return cls;
}

void DeviceClassSpec::validate() const {
  if (count < 0)
    throw std::invalid_argument("DeviceClassSpec '" + name +
                                "': negative count");
  if (!finite_positive(compute_scale) || !finite_positive(energy_scale))
    throw std::invalid_argument("DeviceClassSpec '" + name +
                                "': scales must be finite and positive");
  if (!finite_positive(battery_soc) || battery_soc > 1.0)
    throw std::invalid_argument("DeviceClassSpec '" + name +
                                "': battery_soc outside (0, 1]");
  if (!finite_positive(link_quality) || link_quality > 1.0)
    throw std::invalid_argument("DeviceClassSpec '" + name +
                                "': link_quality outside (0, 1]");
}

void FleetSearchOptions::validate() const {
  if (beam_width < 1)
    throw std::invalid_argument("FleetSearchOptions: beam_width < 1");
  if (max_frontier < 1)
    throw std::invalid_argument("FleetSearchOptions: max_frontier < 1");
  if (max_cloud_servers < 0)
    throw std::invalid_argument(
        "FleetSearchOptions: negative max_cloud_servers");
  if (!std::isfinite(loss_weight_j_per_mb) || loss_weight_j_per_mb < 0.0)
    throw std::invalid_argument(
        "FleetSearchOptions: loss_weight_j_per_mb must be finite and >= 0");
  if (!finite_positive(soc_floor) || soc_floor > 1.0)
    throw std::invalid_argument(
        "FleetSearchOptions: soc_floor outside (0, 1]");
}

const FleetAssignment* ParetoFrontier::min_energy(
    double max_loss_fraction) const noexcept {
  for (const auto& p : points)
    if (p.loss_fraction <= max_loss_fraction) return &p;
  return nullptr;
}

// One fully scored assignment of a single device class: the exact
// OrchestrationCosts of the class's non-shed services plus the shed loss.
struct PlacementSearch::ClassOption {
  std::vector<Assignment> assign;   // one choice per service
  double energy = 0.0;              // class-wide joules per cycle (raw)
  double rank = 0.0;                // battery-weighted joules (beam order)
  double loss_bytes = 0.0;          // class-wide shed bytes per cycle
  int servers = 0;
  bool feasible = true;
};

PlacementSearch::PlacementSearch(std::vector<DeviceClassSpec> classes,
                                 std::vector<hive::ServiceSpec> services,
                                 OrchestratorOptions base,
                                 FleetSearchOptions options)
    : classes_(std::move(classes)), services_(std::move(services)),
      base_(base), options_(options) {
  options_.validate();
  if (services_.empty())
    throw std::invalid_argument("PlacementSearch: empty service catalog");
  if (static_cast<int>(services_.size()) > kMaxServices)
    throw std::invalid_argument("PlacementSearch: more than " +
                                std::to_string(kMaxServices) + " services");
  if (static_cast<int>(classes_.size()) > kMaxClasses)
    throw std::invalid_argument("PlacementSearch: more than " +
                                std::to_string(kMaxClasses) + " classes");
  std::set<std::string> names;
  for (const auto& svc : services_) {
    if (svc.period_cycles < 1)
      throw std::invalid_argument("PlacementSearch: bad period for " +
                                  svc.name);
    if (!names.insert(svc.name).second)
      throw std::invalid_argument("PlacementSearch: duplicate service " +
                                  svc.name);
  }
  for (const auto& cls : classes_) cls.validate();
  // Reuse the orchestrator's option validation (cycle, uplink, weight...).
  ServiceOrchestrator validator(base_);
  total_bytes_per_cycle_ = 0.0;
  for (const auto& cls : classes_) {
    double per_hive = 0.0;
    for (const auto& svc : services_)
      per_hive += svc.upload_bytes / static_cast<double>(svc.period_cycles);
    total_bytes_per_cycle_ += per_hive * static_cast<double>(cls.count);
  }
}

Hash128 PlacementSearch::assignment_hash(
    const std::vector<Assignment>& choice) const {
  CanonicalHasher h;
  h.tag(kTagAssignmentVector);
  h.u64(classes_.size());
  h.u64(services_.size());
  h.u64(choice.size());
  static_assert(sizeof(Assignment) == 1);
  h.bytes(choice.data(), choice.size());
  return h.digest();
}

std::vector<std::vector<PlacementSearch::ClassOption>>
PlacementSearch::build_option_tables(unsigned threads,
                                     SearchStats& stats) const {
  const int S = static_cast<int>(services_.size());
  const int combos = pow3(S);
  std::vector<std::vector<ClassOption>> tables(classes_.size());
  std::vector<std::int64_t> evals(classes_.size(), 0);
  util::parallel_for(
      classes_.size(),
      [&](std::size_t c) {
        const DeviceClassSpec& cls = classes_[c];
        auto& table = tables[c];
        if (cls.count == 0) {
          // An empty class contributes nothing; its canonical choice is
          // all-shed (one option keeps the beam free of duplicates).
          ClassOption opt;
          opt.assign.assign(static_cast<std::size_t>(S), Assignment::kShed);
          table.push_back(std::move(opt));
          return;
        }
        // Per-class cost model: the class's hives behave like the paper's
        // client, slowed/scaled by the class profile, uploading through
        // its own (possibly degraded) slot uplink.
        OrchestratorOptions per_class = base_;
        per_class.clients = cls.count;
        per_class.slot_uplink_bytes_per_s =
            base_.slot_uplink_bytes_per_s * cls.link_quality;
        ServiceOrchestrator orch(per_class);
        std::vector<hive::ServiceSpec> scaled = services_;
        for (auto& svc : scaled) {
          svc.edge_time *= cls.compute_scale;
          svc.edge_power *= cls.energy_scale;
        }
        const double soc_weight =
            base_.edge_joule_weight /
            std::max(cls.battery_soc, options_.soc_floor);
        const double count = static_cast<double>(cls.count);
        table.reserve(static_cast<std::size_t>(combos));
        for (int mask = 0; mask < combos; ++mask) {
          ClassOption opt;
          opt.assign.resize(static_cast<std::size_t>(S));
          bool uses_cloud = false;
          double shed_bytes = 0.0;
          std::vector<ServicePlan> plans;
          plans.reserve(static_cast<std::size_t>(S));
          int digits = mask;
          for (int j = 0; j < S; ++j, digits /= 3) {
            const auto choice = static_cast<Assignment>(digits % 3);
            opt.assign[static_cast<std::size_t>(j)] = choice;
            const auto& svc = scaled[static_cast<std::size_t>(j)];
            switch (choice) {
              case Assignment::kEdge:
                plans.push_back({svc, Placement::kEdgeOnly});
                break;
              case Assignment::kCloud:
                uses_cloud = true;
                plans.push_back({svc, Placement::kEdgeCloud});
                break;
              case Assignment::kShed:
                shed_bytes += svc.upload_bytes /
                              static_cast<double>(svc.period_cycles);
                break;
            }
          }
          if (uses_cloud && !options_.cloud_available) {
            opt.feasible = false;
            table.push_back(std::move(opt));
            continue;
          }
          const OrchestrationCosts costs = orch.evaluate(plans);
          ++evals[c];
          opt.feasible = costs.feasible;
          if (costs.feasible) {
            opt.energy = count * costs.total_per_client();
            opt.rank = count * (soc_weight * costs.edge_per_cycle +
                                costs.cloud_per_client);
            opt.servers = costs.servers_used;
          }
          opt.loss_bytes = count * shed_bytes;
          table.push_back(std::move(opt));
        }
      },
      threads);
  for (std::int64_t e : evals) stats.evaluations += e;
  return tables;
}

FleetAssignment PlacementSearch::complete(
    const std::vector<std::vector<ClassOption>>& tables,
    const std::vector<int>& option_per_class) const {
  FleetAssignment out;
  out.choice.reserve(classes_.size() * services_.size());
  for (std::size_t c = 0; c < tables.size(); ++c) {
    const ClassOption& opt =
        tables[c][static_cast<std::size_t>(option_per_class[c])];
    out.choice.insert(out.choice.end(), opt.assign.begin(),
                      opt.assign.end());
    out.energy_per_cycle += opt.energy;
    out.loss_bytes_per_cycle += opt.loss_bytes;
    out.servers_used += opt.servers;
    out.feasible = out.feasible && opt.feasible;
  }
  out.loss_fraction = total_bytes_per_cycle_ > 0.0
                          ? out.loss_bytes_per_cycle / total_bytes_per_cycle_
                          : 0.0;
  out.hash = assignment_hash(out.choice);
  return out;
}

FleetAssignment PlacementSearch::greedy_from_tables(
    const std::vector<std::vector<ClassOption>>& tables) const {
  const int S = static_cast<int>(services_.size());
  const int all_shed = pow3(S) - 1;  // every digit = 2
  const int budget = options_.max_cloud_servers > 0
                         ? options_.max_cloud_servers
                         : std::numeric_limits<int>::max();
  int remaining = budget;
  bool feasible = true;
  std::vector<int> picks(classes_.size(), 0);

  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& table = tables[c];
    if (table.size() == 1) {  // empty class: canonical all-shed
      picks[c] = 0;
      continue;
    }
    // Per-service local choice: the cheaper feasible standalone placement
    // (every other service shed), ignoring the shared-upload and
    // server-packing interactions the beam search captures.
    std::vector<int> digit(static_cast<std::size_t>(S), 2);
    for (int j = 0, p3 = 1; j < S; ++j, p3 *= 3) {
      const int edge_idx = all_shed - 2 * p3;      // digit j = 0
      const int cloud_idx = all_shed - 2 * p3 + p3;  // digit j = 1
      const ClassOption& edge = table[static_cast<std::size_t>(edge_idx)];
      const ClassOption& cloud = table[static_cast<std::size_t>(cloud_idx)];
      if (edge.feasible && (!cloud.feasible || edge.rank <= cloud.rank))
        digit[static_cast<std::size_t>(j)] = 0;
      else if (cloud.feasible)
        digit[static_cast<std::size_t>(j)] = 1;
      // else: neither placement fits alone — shed.
    }
    // Repair: the combined plan can overflow the edge cycle (services
    // picked independently) or the shared server pool. Flip the largest
    // offender, shedding as a last resort; a service flipped cloudward
    // once is never flipped back (termination).
    std::vector<bool> locked(static_cast<std::size_t>(S), false);
    for (int guard = 0; guard < 6 * S + 2; ++guard) {
      int mask = 0;
      for (int j = S - 1; j >= 0; --j)
        mask = mask * 3 + digit[static_cast<std::size_t>(j)];
      const ClassOption& opt = table[static_cast<std::size_t>(mask)];
      if (opt.feasible && opt.servers <= remaining) {
        picks[c] = mask;
        remaining -= opt.servers;
        break;
      }
      if (!opt.feasible) {
        // Edge routine overflow: move the longest edge service cloudward
        // (or shed it when the cloud cannot take it).
        int victim = -1;
        for (int j = 0; j < S; ++j)
          if (digit[static_cast<std::size_t>(j)] == 0 &&
              (victim < 0 ||
               services_[static_cast<std::size_t>(j)].edge_time >
                   services_[static_cast<std::size_t>(victim)].edge_time))
            victim = j;
        if (victim < 0) {
          // All-shed and still infeasible: the base routine itself does
          // not fit the cycle — the class (and the fleet) is infeasible.
          picks[c] = all_shed;
          feasible = false;
          break;
        }
        const bool can_cloud = options_.cloud_available &&
                               !locked[static_cast<std::size_t>(victim)];
        digit[static_cast<std::size_t>(victim)] = can_cloud ? 1 : 2;
        if (can_cloud) locked[static_cast<std::size_t>(victim)] = true;
      } else {
        // Server-pool overflow: pull the heaviest cloud service back to
        // the edge (shedding it if it was already flipped once).
        int victim = -1;
        double victim_bytes = -1.0;
        for (int j = 0; j < S; ++j) {
          if (digit[static_cast<std::size_t>(j)] != 1) continue;
          const auto& svc = services_[static_cast<std::size_t>(j)];
          const double bytes =
              svc.upload_bytes / static_cast<double>(svc.period_cycles);
          if (bytes > victim_bytes) {
            victim = j;
            victim_bytes = bytes;
          }
        }
        if (victim < 0) {  // no cloud service left yet still over budget
          picks[c] = mask;
          feasible = false;
          break;
        }
        digit[static_cast<std::size_t>(victim)] =
            locked[static_cast<std::size_t>(victim)] ? 2 : 0;
      }
      if (guard == 6 * S + 1) {  // safety net; unreachable by design
        picks[c] = all_shed;
        feasible = false;
      }
    }
  }
  FleetAssignment out = complete(tables, picks);
  out.feasible = out.feasible && feasible;
  return out;
}

FleetAssignment PlacementSearch::greedy() const {
  SearchStats stats;
  const auto tables = build_option_tables(1, stats);
  if (classes_.empty()) {
    FleetAssignment out;
    out.hash = assignment_hash(out.choice);
    return out;
  }
  return greedy_from_tables(tables);
}

ParetoFrontier PlacementSearch::search(unsigned threads,
                                       SearchStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  obs::ScopedTimer timer(obs::metric::kPlacementSearchTime);
  SearchStats local;
  const auto tables = build_option_tables(threads, local);

  // A beam state: one chosen option per completed class level, with the
  // running exact sums and an incremental canonical hash for tie-breaks.
  struct State {
    std::vector<int> opts;
    double energy = 0.0;
    double rank = 0.0;
    double loss_bytes = 0.0;
    int servers = 0;
    CanonicalHasher hasher;
    Hash128 h;
  };

  const int budget = options_.max_cloud_servers > 0
                         ? options_.max_cloud_servers
                         : std::numeric_limits<int>::max();

  // DP lower bounds: suffix sums over classes of the per-class minimum
  // feasible energy / rank / loss, ignoring the server budget — an
  // admissible (optimistic) completion estimate for pruning and ranking.
  const std::size_t C = classes_.size();
  std::vector<double> lb_energy(C + 1, 0.0), lb_rank(C + 1, 0.0),
      lb_loss(C + 1, 0.0);
  for (std::size_t c = C; c-- > 0;) {
    double min_e = std::numeric_limits<double>::infinity();
    double min_r = min_e, min_l = min_e;
    for (const auto& opt : tables[c]) {
      if (!opt.feasible) continue;
      min_e = std::min(min_e, opt.energy);
      min_r = std::min(min_r, opt.rank);
      min_l = std::min(min_l, opt.loss_bytes);
    }
    if (!std::isfinite(min_e)) min_e = min_r = min_l = 0.0;  // dead class
    lb_energy[c] = lb_energy[c + 1] + min_e;
    lb_rank[c] = lb_rank[c + 1] + min_r;
    lb_loss[c] = lb_loss[c + 1] + min_l;
  }

  // Seed the incumbent with the greedy completion: the frontier then
  // provably matches or beats the baseline, and the DP bound has a real
  // configuration to prune against from level 0.
  std::vector<FleetAssignment> completions;
  if (!classes_.empty()) {
    FleetAssignment seeded = greedy_from_tables(tables);
    if (seeded.feasible) completions.push_back(std::move(seeded));
  }

  State root;
  root.hasher.tag(kTagAssignmentVector);
  root.hasher.u64(classes_.size());
  root.hasher.u64(services_.size());
  root.h = root.hasher.digest();
  std::vector<State> beam{std::move(root)};

  for (std::size_t level = 0; level < C; ++level) {
    struct Cand {
      std::size_t parent;
      int option;
      double opt_energy;  // energy so far + DP bound on the rest
      double loss_bytes;  // loss so far (bound on the rest is additive)
      double score;       // scalarized rank for within-front ordering
      int servers;
      Hash128 h;
      bool selected = false;
    };
    std::vector<Cand> cands;
    cands.reserve(beam.size() * tables[level].size());
    for (std::size_t p = 0; p < beam.size(); ++p) {
      const State& state = beam[p];
      for (std::size_t o = 0; o < tables[level].size(); ++o) {
        const ClassOption& opt = tables[level][o];
        ++local.candidates_expanded;
        if (!opt.feasible || state.servers + opt.servers > budget) {
          ++local.candidates_pruned;
          continue;
        }
        Cand cand;
        cand.parent = p;
        cand.option = static_cast<int>(o);
        cand.opt_energy =
            state.energy + opt.energy + lb_energy[level + 1];
        cand.loss_bytes =
            state.loss_bytes + opt.loss_bytes + lb_loss[level + 1];
        cand.score =
            state.rank + opt.rank + lb_rank[level + 1] +
            options_.loss_weight_j_per_mb * cand.loss_bytes / 1e6;
        cand.servers = state.servers + opt.servers;
        CanonicalHasher h = state.hasher;
        h.bytes(opt.assign.data(), opt.assign.size());
        cand.h = h.digest();
        // DP-bound pruning: even the optimistic completion is strictly
        // dominated by a known configuration in both dimensions.
        bool dominated = false;
        for (const auto& inc : completions)
          if (inc.energy_per_cycle < cand.opt_energy &&
              inc.loss_bytes_per_cycle < cand.loss_bytes) {
            dominated = true;
            break;
          }
        if (dominated) {
          ++local.candidates_pruned;
          continue;
        }
        cands.push_back(cand);
      }
    }

    // Select the next beam by Pareto-front peeling on (optimistic energy,
    // loss): the frontier needs trade-off diversity, not just the best
    // scalarized states. Deterministic throughout — every comparison
    // falls back to the canonical hash.
    std::vector<std::size_t> order(cands.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const Cand& x = cands[a];
                const Cand& y = cands[b];
                if (x.opt_energy != y.opt_energy)
                  return x.opt_energy < y.opt_energy;
                if (x.loss_bytes != y.loss_bytes)
                  return x.loss_bytes < y.loss_bytes;
                if (x.score != y.score) return x.score < y.score;
                return x.h < y.h;
              });
    std::vector<State> next;
    next.reserve(static_cast<std::size_t>(options_.beam_width));
    std::vector<bool> taken(cands.size(), false);
    while (next.size() < static_cast<std::size_t>(options_.beam_width)) {
      // One sweep peels the current non-dominated front (sorted by
      // energy, a point joins the front iff its loss strictly improves).
      double best_loss = std::numeric_limits<double>::infinity();
      bool peeled = false;
      for (std::size_t idx : order) {
        if (taken[idx]) continue;
        Cand& cand = cands[idx];
        if (cand.loss_bytes < best_loss) {
          best_loss = cand.loss_bytes;
          taken[idx] = true;
          peeled = true;
          const State& parent = beam[cand.parent];
          const ClassOption& opt =
              tables[level][static_cast<std::size_t>(cand.option)];
          State st;
          st.opts = parent.opts;
          st.opts.push_back(cand.option);
          st.energy = parent.energy + opt.energy;
          st.rank = parent.rank + opt.rank;
          st.loss_bytes = parent.loss_bytes + opt.loss_bytes;
          st.servers = cand.servers;
          st.hasher = parent.hasher;
          st.hasher.bytes(opt.assign.data(), opt.assign.size());
          st.h = cand.h;
          next.push_back(std::move(st));
          if (next.size() >= static_cast<std::size_t>(options_.beam_width))
            break;
        }
      }
      if (!peeled) break;  // every candidate consumed
    }
    local.candidates_pruned +=
        static_cast<std::int64_t>(cands.size()) -
        static_cast<std::int64_t>(next.size());
    beam = std::move(next);
    if (beam.empty()) break;  // nothing feasible reaches this level
  }

  for (const State& state : beam)
    if (state.opts.size() == C) completions.push_back(complete(tables, state.opts));

  // Non-dominated filter over all completions, deterministic order.
  std::sort(completions.begin(), completions.end(),
            [](const FleetAssignment& a, const FleetAssignment& b) {
              if (a.energy_per_cycle != b.energy_per_cycle)
                return a.energy_per_cycle < b.energy_per_cycle;
              if (a.loss_bytes_per_cycle != b.loss_bytes_per_cycle)
                return a.loss_bytes_per_cycle < b.loss_bytes_per_cycle;
              return a.hash < b.hash;
            });
  ParetoFrontier frontier;
  double best_loss = std::numeric_limits<double>::infinity();
  for (auto& cand : completions) {
    if (!cand.feasible) continue;
    if (cand.loss_bytes_per_cycle < best_loss) {
      best_loss = cand.loss_bytes_per_cycle;
      frontier.points.push_back(std::move(cand));
    }
  }
  if (frontier.points.size() >
      static_cast<std::size_t>(options_.max_frontier))
    frontier.points.resize(static_cast<std::size_t>(options_.max_frontier));

  if (classes_.empty() && frontier.points.empty()) {
    // Degenerate fleet: the only configuration is the empty one.
    FleetAssignment empty;
    empty.hash = assignment_hash(empty.choice);
    frontier.points.push_back(std::move(empty));
  }

  local.frontier_size = static_cast<int>(frontier.points.size());
  local.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (stats != nullptr) *stats = local;
  if (obs::enabled()) {
    namespace m = obs::metric;
    obs::registry().counter(m::kPlacementSearches).inc();
    obs::registry()
        .counter(m::kPlacementCandidatesExpanded)
        .inc(static_cast<std::uint64_t>(local.candidates_expanded));
    obs::registry()
        .counter(m::kPlacementCandidatesPruned)
        .inc(static_cast<std::uint64_t>(local.candidates_pruned));
    obs::registry()
        .counter(m::kPlacementEvaluations)
        .inc(static_cast<std::uint64_t>(local.evaluations));
    obs::registry()
        .gauge(m::kPlacementFrontierSize)
        .set(static_cast<double>(local.frontier_size));
  }
  return frontier;
}

}  // namespace beesim::core
