#include "core/checkpoint.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "obs/catalog.hpp"
#include "util/file.hpp"

namespace beesim::core {

const char* to_string(CheckpointKind kind) noexcept {
  switch (kind) {
    case CheckpointKind::kSweep: return "sweep";
    case CheckpointKind::kResilience: return "resilience";
  }
  return "?";
}

namespace {

constexpr char kMagic[8] = {'B', 'E', 'E', 'S', 'I', 'M', 'C', 'K'};
// Version 2 stores scenario identities from the word-wise canonical
// hasher (core/hash128.hpp). Version 1 stored byte-wise ones, which also
// covered the since-removed FleetParams::compact_allocation, so no
// version-1 params hash matches any scenario today.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kByteWiseIdentityVersion = 1;
constexpr std::size_t kHeaderBytes = 80;

// Header field offsets (fixed little-endian layout; the format is a
// host-local restart point, not an interchange format — see
// docs/CHECKPOINT.md).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffKind = 12;
constexpr std::size_t kOffPoints = 16;
constexpr std::size_t kOffSeed = 24;
constexpr std::size_t kOffHashHi = 32;
constexpr std::size_t kOffHashLo = 40;
constexpr std::size_t kOffCyclesTarget = 48;
constexpr std::size_t kOffPayloadBytes = 56;
constexpr std::size_t kOffChecksum = 64;

std::uint64_t mix64(std::uint64_t x) noexcept {
  // splitmix64 finalizer — the same mixer the RNG seeds through.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Word-at-a-time checksum over the whole file image with the checksum
/// field itself read as zero. Four interleaved chains (word i feeds lane
/// i mod 4), folded together at the end: chaining keeps the digest
/// order-sensitive within and across lanes (a swapped or moved word
/// lands in a different lane or a different chain position), while the
/// independent lanes break the serial multiply dependency that made a
/// single chain latency-bound on multi-megabyte campaign images.
std::uint64_t checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t lane[4];
  for (std::uint64_t l = 0; l < 4; ++l)
    lane[l] = mix64(static_cast<std::uint64_t>(size) + l);
  std::size_t i = 0;
  std::size_t word = 0;
  for (; i + 8 <= size; i += 8, ++word) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, 8);
    if (i == kOffChecksum) w = 0;
    lane[word & 3] = mix64(lane[word & 3] ^ w);
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, size - i);
    lane[word & 3] = mix64(lane[word & 3] ^ w);
  }
  std::uint64_t h = mix64(lane[0]);
  h = mix64(h ^ lane[1]);
  h = mix64(h ^ lane[2]);
  return mix64(h ^ lane[3]);
}

void put_u32(std::uint8_t* base, std::size_t off, std::uint32_t v) {
  std::memcpy(base + off, &v, sizeof v);
}
void put_u64(std::uint8_t* base, std::size_t off, std::uint64_t v) {
  std::memcpy(base + off, &v, sizeof v);
}
std::uint32_t get_u32(const std::uint8_t* base, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, base + off, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* base, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, base + off, sizeof v);
  return v;
}

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  if (obs::enabled()) {
    static auto& rejected =
        obs::registry().counter(obs::metric::kCkptRejected);
    rejected.inc();
  }
  throw std::runtime_error("checkpoint '" + path + "': " + why);
}

// Per-row payload widths: every column's element size summed, in the
// order of the kind listings below (sweep_payload, resilience_payload).
constexpr std::size_t kStatRowBytes = 8 + 5 * 8;  // n + mean/m2/sum/min/max
constexpr std::size_t kSweepRowBytes =
    3 * 4 + 4 * 8 + 8 + 1 + 5 * kStatRowBytes;
constexpr std::size_t kResilienceRowBytes =
    4 + 1 + 3 * 4 + 4 * 8 + 4 * kStatRowBytes + 6 * 8;
static_assert(sizeof(int) == 4, "point fields are stored as 32-bit ints");

/// The six columns of one statistic, in RunningStats::Raw field order.
template <typename IO, typename Raws>
void raw_columns(IO& io, Raws& raws) {
  using Raw = util::RunningStats::Raw;
  io.column(raws, &Raw::n);
  io.column(raws, &Raw::mean);
  io.column(raws, &Raw::m2);
  io.column(raws, &Raw::sum);
  io.column(raws, &Raw::min);
  io.column(raws, &Raw::max);
}

/// Runs a kind listing on save: lays each column out row after row into
/// the payload region of a file image. A bool is stored as one byte.
class Writer {
 public:
  Writer(std::uint8_t* p, std::size_t size) : p_(p), end_(p + size) {}

  /// `field` of every row; `field` is a data-member pointer or a callable
  /// returning a reference.
  template <typename Rows, typename Field>
  void column(const Rows& rows, Field field) {
    for (const auto& row : rows) put(std::invoke(field, row));
  }

  /// The six columns of a statistic, from RunningStats::raw().
  template <typename Rows, typename Field>
  void stats(const Rows& rows, Field field) {
    std::vector<util::RunningStats::Raw> raws;
    raws.reserve(rows.size());
    for (const auto& row : rows) raws.push_back(std::invoke(field, row).raw());
    raw_columns(*this, raws);
  }

  /// A resilience row's done byte: 1 once it has run the target's cycles.
  template <typename Rows>
  void done(const Rows& rows, std::int32_t cycles_target) {
    for (const auto& row : rows) put(row.cycles == cycles_target);
  }

  bool full() const noexcept { return p_ == end_; }

 private:
  template <typename T>
  void put(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v));
    } else {
      if (sizeof v > static_cast<std::size_t>(end_ - p_))
        throw std::logic_error("checkpoint: payload overflow");
      std::memcpy(p_, &v, sizeof v);
      p_ += sizeof v;
    }
  }

  std::uint8_t* p_;
  std::uint8_t* end_;
};

/// Runs a kind listing on load: fills the rows of a campaign sized to the
/// header's point count, column by column, refusing values no campaign
/// can hold.
class Reader {
 public:
  Reader(const std::string& path, const std::uint8_t* p, std::size_t size)
      : path_(path), p_(p), end_(p + size) {}

  template <typename Rows, typename Field>
  void column(Rows& rows, Field field) {
    for (auto& row : rows) get(std::invoke(field, row));
  }

  /// The six columns of a statistic, back through RunningStats::from_raw.
  /// Refuses a statistic whose count is not its row's cycles (each
  /// listing reads the cycles first).
  template <typename Rows, typename Field>
  void stats(Rows& rows, Field field) {
    std::vector<util::RunningStats::Raw> raws(rows.size());
    raw_columns(*this, raws);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (raws[i].n != static_cast<std::uint64_t>(rows[i].cycles))
        reject(path_, "a statistic does not count its row's cycles");
      std::invoke(field, rows[i]) = util::RunningStats::from_raw(raws[i]);
    }
  }

  /// A resilience row's done byte, as the row's cycles: 0 or the target.
  template <typename Rows>
  void done(Rows& rows, std::int32_t cycles_target) {
    for (auto& row : rows) {
      bool finished = false;
      get(finished);
      row.cycles = finished ? cycles_target : 0;
    }
  }

  bool drained() const noexcept { return p_ == end_; }

 private:
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t byte = 0;
      get(byte);
      if (byte > 1) reject(path_, "a flag byte is neither 0 nor 1");
      v = byte != 0;
    } else {
      if (sizeof v > static_cast<std::size_t>(end_ - p_))
        throw std::logic_error("checkpoint: payload underflow");
      std::memcpy(&v, p_, sizeof v);
      p_ += sizeof v;
    }
  }

  const std::string& path_;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

struct Header {
  CheckpointKind kind = CheckpointKind::kSweep;
  std::uint64_t points = 0;
  std::uint64_t seed = 0;
  Hash128 params_hash;
  std::int32_t cycles_target = 0;
  std::uint64_t payload_bytes = 0;
};

/// Saves campaign `c` of `kind`: builds the whole file image in memory
/// (header, the payload `write` lays out, checksum), writes it to
/// `<path>.tmp.<pid>` and moves that over `path` with util::replace_file.
/// Until the move the previous file at `path` is untouched, so a save
/// that crashes or throws never costs the last good checkpoint; a failed
/// save unlinks its temporary file.
template <typename Campaign, typename Write>
void save_image(const std::string& path, CheckpointKind kind,
                std::size_t row_bytes, const Campaign& c,
                const Hash128& params_hash, Write write) {
  obs::ScopedTimer timer(obs::metric::kCkptSaveTime);
  const std::size_t payload_bytes = c.size() * row_bytes;
  std::vector<std::uint8_t> image(kHeaderBytes + payload_bytes);
  std::uint8_t* base = image.data();
  std::memcpy(base + kOffMagic, kMagic, sizeof kMagic);
  put_u32(base, kOffVersion, kVersion);
  put_u32(base, kOffKind, static_cast<std::uint32_t>(kind));
  put_u64(base, kOffPoints, c.size());
  put_u64(base, kOffSeed, c.seed);
  put_u64(base, kOffHashHi, params_hash.hi);
  put_u64(base, kOffHashLo, params_hash.lo);
  put_u32(base, kOffCyclesTarget, static_cast<std::uint32_t>(c.cycles_target));
  put_u64(base, kOffPayloadBytes, payload_bytes);
  Writer w(base + kHeaderBytes, payload_bytes);
  write(w);
  if (!w.full()) throw std::logic_error("checkpoint: payload short");
  put_u64(base, kOffChecksum, checksum(base, image.size()));
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  try {
    util::write_file(temp, image);
    util::replace_file(temp, path);
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
  if (obs::enabled()) {
    static auto& saves = obs::registry().counter(obs::metric::kCkptSaves);
    static auto& bytes =
        obs::registry().counter(obs::metric::kCkptBytesWritten);
    saves.inc();
    bytes.inc(image.size());
  }
}

/// A checkpoint file read into memory, with its parsed header.
struct LoadedFile {
  std::vector<std::uint8_t> image;
  Header header;
};

/// Reads `path` and validates everything shared between kinds: magic,
/// version, kind, size arithmetic, the whole-file checksum, the point
/// count against the payload size, and the cycle target.
LoadedFile open_checkpoint(const std::string& path) {
  LoadedFile loaded;
  try {
    loaded.image = util::read_file(path);
  } catch (const std::runtime_error& e) {
    reject(path, e.what());
  }
  const std::vector<std::uint8_t>& file = loaded.image;
  if (file.size() < kHeaderBytes) reject(path, "truncated header");
  const std::uint8_t* base = file.data();
  if (std::memcmp(base + kOffMagic, kMagic, sizeof kMagic) != 0)
    reject(path, "not a checkpoint file (bad magic)");
  const std::uint32_t version = get_u32(base, kOffVersion);
  if (version == kByteWiseIdentityVersion)
    reject(path,
           "version 1 predates the word-wise scenario identity of version "
           "2, so it can match no current scenario — rerun the campaign");
  if (version != kVersion)
    reject(path, "unsupported version " + std::to_string(version));
  Header& h = loaded.header;
  const std::uint32_t kind = get_u32(base, kOffKind);
  if (kind < 1 || kind > 2)
    reject(path, "unknown kind " + std::to_string(kind));
  h.kind = static_cast<CheckpointKind>(kind);
  h.points = get_u64(base, kOffPoints);
  h.seed = get_u64(base, kOffSeed);
  h.params_hash = {get_u64(base, kOffHashHi), get_u64(base, kOffHashLo)};
  h.cycles_target =
      static_cast<std::int32_t>(get_u32(base, kOffCyclesTarget));
  h.payload_bytes = get_u64(base, kOffPayloadBytes);
  if (file.size() != kHeaderBytes + h.payload_bytes)
    reject(path, "size mismatch (truncated or grown file)");
  const std::uint64_t stored = get_u64(base, kOffChecksum);
  if (stored != checksum(base, file.size()))
    reject(path, "checksum mismatch (corrupted file)");
  // By division: both row widths are odd, so in 64-bit multiplication
  // every payload size equals points * row_bytes for some wrapped count.
  const std::size_t row_bytes = h.kind == CheckpointKind::kSweep
                                    ? kSweepRowBytes
                                    : kResilienceRowBytes;
  if (h.payload_bytes % row_bytes != 0 ||
      h.payload_bytes / row_bytes != h.points)
    reject(path, "payload size does not match point count");
  if (h.cycles_target < 1) reject(path, "cycle target below 1");
  if (obs::enabled()) {
    static auto& restores =
        obs::registry().counter(obs::metric::kCkptRestores);
    static auto& bytes = obs::registry().counter(obs::metric::kCkptBytesRead);
    restores.inc();
    bytes.inc(file.size());
  }
  return loaded;
}

void require_kind(const std::string& path, const LoadedFile& loaded,
                  CheckpointKind want) {
  if (loaded.header.kind != want)
    reject(path, std::string("kind is ") + to_string(loaded.header.kind) +
                     ", wanted " + to_string(want));
}

void require_hash(const std::string& path, const LoadedFile& loaded,
                  const Hash128& expected) {
  if (loaded.header.params_hash != expected)
    reject(path, "params hash " + loaded.header.params_hash.to_string() +
                     " does not match this scenario (" +
                     expected.to_string() +
                     ") — refusing to resume under different physics");
}

/// Loads one campaign of `kind`: validates the file and its identity,
/// sizes the rows to the header's point count, fills them through `read`
/// (the kind listing run by a Reader) and refuses rows no campaign with
/// this cycle target can hold.
template <typename Campaign, typename Read>
Campaign restore(const std::string& path, CheckpointKind kind,
                 const Hash128& params_hash, Read read) {
  obs::ScopedTimer timer(obs::metric::kCkptRestoreTime);
  const LoadedFile loaded = open_checkpoint(path);
  require_kind(path, loaded, kind);
  require_hash(path, loaded, params_hash);
  Campaign c;
  c.seed = loaded.header.seed;
  c.cycles_target = loaded.header.cycles_target;
  c.rows.resize(static_cast<std::size_t>(loaded.header.points));
  Reader r(path, loaded.image.data() + kHeaderBytes,
           loaded.image.size() - kHeaderBytes);
  read(r, c);
  if (!r.drained()) throw std::logic_error("checkpoint: payload long");
  for (const auto& p : c.rows) {
    if (p.initial_clients < 0) reject(path, "a row has a negative fleet size");
    if (p.cycles < 0 || p.cycles > c.cycles_target)
      reject(path, "a row's cycles lie outside [0, cycle target]");
  }
  return c;
}

/// The sweep kind's payload in v2 column order, one listing for both
/// directions: fleet size, cycles done, servers used, the four xoshiro
/// lanes, the Box-Muller cache and its flag, then six columns for each of
/// the five statistics.
void sweep_payload(auto& io, auto& c) {
  io.column(c.rows, &SweepPoint::initial_clients);
  io.column(c.rows, &SweepPoint::cycles);
  io.column(c.rows, &SweepPoint::servers_used);
  for (int k = 0; k < 4; ++k)
    io.column(c.rng, [k](auto& s) -> auto& { return s.s[k]; });
  io.column(c.rng, &util::Rng::State::cached_normal);
  io.column(c.rng, &util::Rng::State::has_cached_normal);
  io.stats(c.rows, &SweepPoint::lost_clients);
  io.stats(c.rows, &SweepPoint::active_slots);
  io.stats(c.rows, &SweepPoint::edge_energy);
  io.stats(c.rows, &SweepPoint::cloud_energy);
  io.stats(c.rows, &SweepPoint::total_energy);
}

/// The resilience kind's payload in v2 column order: fleet size, the done
/// byte, the degradation counters, six columns for each of the four
/// statistics, then the bytes ledger.
void resilience_payload(auto& io, auto& c) {
  io.column(c.rows, &ResiliencePoint::initial_clients);
  io.done(c.rows, c.cycles_target);
  io.column(c.rows, &ResiliencePoint::servers_used);
  io.column(c.rows, &ResiliencePoint::degraded_cycles);
  io.column(c.rows, &ResiliencePoint::edge_fallback_cycles);
  io.column(c.rows, &ResiliencePoint::fallback_client_cycles);
  io.column(c.rows, &ResiliencePoint::shed_client_cycles);
  io.column(c.rows, &ResiliencePoint::browned_client_cycles);
  io.column(c.rows, &ResiliencePoint::sensor_mute_client_cycles);
  io.stats(c.rows, &ResiliencePoint::lost_clients);
  io.stats(c.rows, &ResiliencePoint::edge_energy);
  io.stats(c.rows, &ResiliencePoint::cloud_energy);
  io.stats(c.rows, &ResiliencePoint::total_energy);
  io.column(c.rows, &ResiliencePoint::bytes_generated);
  io.column(c.rows, &ResiliencePoint::bytes_served);
  io.column(c.rows, &ResiliencePoint::bytes_recovered);
  io.column(c.rows, &ResiliencePoint::bytes_dropped);
  io.column(c.rows, &ResiliencePoint::bytes_pending);
  io.column(c.rows, &ResiliencePoint::bytes_lost);
}

}  // namespace

void save_checkpoint(const std::string& path, const FleetColumns& columns,
                     const Hash128& params_hash) {
  save_image(path, CheckpointKind::kSweep, kSweepRowBytes, columns,
             params_hash, [&](Writer& w) { sweep_payload(w, columns); });
}

FleetColumns load_fleet_checkpoint(const std::string& path,
                                   const Hash128& params_hash) {
  return restore<FleetColumns>(path, CheckpointKind::kSweep, params_hash,
                               [](Reader& r, FleetColumns& c) {
                                 c.rng.resize(c.rows.size());
                                 sweep_payload(r, c);
                               });
}

void save_checkpoint(const std::string& path,
                     const ResilienceColumns& columns,
                     const Hash128& params_hash) {
  save_image(path, CheckpointKind::kResilience, kResilienceRowBytes, columns,
             params_hash, [&](Writer& w) { resilience_payload(w, columns); });
}

ResilienceColumns load_resilience_checkpoint(const std::string& path,
                                             const Hash128& params_hash) {
  return restore<ResilienceColumns>(
      path, CheckpointKind::kResilience, params_hash,
      [](Reader& r, ResilienceColumns& c) { resilience_payload(r, c); });
}

// --------------------------------------------------------------- helpers

namespace {

void count_merge() {
  if (!obs::enabled()) return;
  static auto& merges = obs::registry().counter(obs::metric::kCkptMerges);
  merges.inc();
}

}  // namespace

FleetColumns merge_fleet_checkpoints(const std::vector<std::string>& paths,
                                     const Hash128& params_hash) {
  if (paths.empty())
    throw std::invalid_argument("merge_fleet_checkpoints: no shards");
  FleetColumns merged = load_fleet_checkpoint(paths.front(), params_hash);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    merged.merge_from(load_fleet_checkpoint(paths[i], params_hash));
    count_merge();
  }
  return merged;
}

ResilienceColumns merge_resilience_checkpoints(
    const std::vector<std::string>& paths, const Hash128& params_hash) {
  if (paths.empty())
    throw std::invalid_argument("merge_resilience_checkpoints: no shards");
  ResilienceColumns merged =
      load_resilience_checkpoint(paths.front(), params_hash);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    merged.merge_from(load_resilience_checkpoint(paths[i], params_hash));
    count_merge();
  }
  return merged;
}

Hash128 resilience_campaign_hash(const FleetParams& params,
                                 const fault::FaultPlan& plan,
                                 const ResiliencePolicy& policy) {
  CanonicalHasher h;
  hash_append(h, params);
  hash_append(h, plan);
  hash_append(h, policy);
  return h.digest();
}

}  // namespace beesim::core
