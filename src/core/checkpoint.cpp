#include "core/checkpoint.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/catalog.hpp"
#include "util/mmap.hpp"

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

/// Sequential column writer/reader over the payload region; every column
/// is one memcpy of count * sizeof(T) bytes in a fixed order.
class Writer {
 public:
  Writer(std::uint8_t* p, std::size_t size) : p_(p), end_(p + size) {}

  template <typename T>
  void column(const std::vector<T>& v) {
    const std::size_t bytes = v.size() * sizeof(T);
    if (bytes > static_cast<std::size_t>(end_ - p_))
      throw std::logic_error("checkpoint: payload overflow");
    if (bytes > 0) std::memcpy(p_, v.data(), bytes);
    p_ += bytes;
  }

  bool full() const noexcept { return p_ == end_; }

 private:
  std::uint8_t* p_;
  std::uint8_t* end_;
};

class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t size) : p_(p), end_(p + size) {}

  template <typename T>
  void column(std::vector<T>& v, std::size_t count) {
    // Compared by division so that no count, however large, forms a
    // pointer past the mapping.
    if (count > static_cast<std::size_t>(end_ - p_) / sizeof(T))
      throw std::logic_error("checkpoint: payload underflow");
    const std::size_t bytes = count * sizeof(T);
    v.resize(count);
    if (bytes > 0) std::memcpy(v.data(), p_, bytes);
    p_ += bytes;
  }

  bool drained() const noexcept { return p_ == end_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// Per-row payload widths: every column's element size summed, in the
// exact serialization order of the write_/read_ functions below.
constexpr std::size_t kStatRowBytes = 8 + 5 * 8;  // n + mean/m2/sum/min/max
constexpr std::size_t kSweepRowBytes =
    3 * 4 + 4 * 8 + 8 + 1 + 5 * kStatRowBytes;
constexpr std::size_t kResilienceRowBytes =
    4 + 1 + 3 * 4 + 4 * 8 + 4 * kStatRowBytes + 6 * 8;

void stat_columns_out(Writer& w, const StatColumns& s) {
  w.column(s.n);
  w.column(s.mean);
  w.column(s.m2);
  w.column(s.sum);
  w.column(s.min);
  w.column(s.max);
}

void stat_columns_in(Reader& r, StatColumns& s, std::size_t count) {
  r.column(s.n, count);
  r.column(s.mean, count);
  r.column(s.m2, count);
  r.column(s.sum, count);
  r.column(s.min, count);
  r.column(s.max, count);
}

struct Header {
  CheckpointKind kind = CheckpointKind::kSweep;
  std::uint64_t points = 0;
  std::uint64_t seed = 0;
  Hash128 params_hash;
  std::int32_t cycles_target = 0;
  std::uint64_t payload_bytes = 0;
};

/// Maps `<path>.tmp.<pid>`, sizes it for `payload_bytes`, and writes the
/// header; the caller fills the payload and then calls seal() to stamp
/// the checksum and move the file over `path`. Until seal() returns the
/// previous file at `path` is untouched, so a save that crashes or throws
/// never costs the last good checkpoint; an unsealed builder unlinks its
/// temporary file.
class FileBuilder {
 public:
  FileBuilder(const std::string& path, const Header& h)
      : path_(path), temp_(path + ".tmp." + std::to_string(::getpid())) {
    try {
      file_ = util::MappedFile::create(temp_, kHeaderBytes + h.payload_bytes);
    } catch (...) {
      std::remove(temp_.c_str());
      throw;
    }
    std::uint8_t* base = file_.mutable_data();
    std::memcpy(base + kOffMagic, kMagic, sizeof kMagic);
    put_u32(base, kOffVersion, kVersion);
    put_u32(base, kOffKind, static_cast<std::uint32_t>(h.kind));
    put_u64(base, kOffPoints, h.points);
    put_u64(base, kOffSeed, h.seed);
    put_u64(base, kOffHashHi, h.params_hash.hi);
    put_u64(base, kOffHashLo, h.params_hash.lo);
    put_u32(base, kOffCyclesTarget,
            static_cast<std::uint32_t>(h.cycles_target));
    put_u32(base, kOffCyclesTarget + 4, 0);  // reserved
    put_u64(base, kOffPayloadBytes, h.payload_bytes);
    put_u64(base, kOffChecksum, 0);
    put_u64(base, kOffChecksum + 8, 0);  // reserved
  }

  Writer payload() {
    return Writer(file_.mutable_data() + kHeaderBytes,
                  file_.size() - kHeaderBytes);
  }

  void seal() {
    std::uint8_t* base = file_.mutable_data();
    put_u64(base, kOffChecksum, checksum(base, file_.size()));
    if (obs::enabled()) {
      static auto& saves = obs::registry().counter(obs::metric::kCkptSaves);
      static auto& bytes =
          obs::registry().counter(obs::metric::kCkptBytesWritten);
      saves.inc();
      bytes.inc(file_.size());
    }
    file_.reset();
    util::replace_file(temp_, path_);
    sealed_ = true;
  }

  ~FileBuilder() {
    if (sealed_) return;
    file_.reset();
    std::remove(temp_.c_str());
  }

  FileBuilder(const FileBuilder&) = delete;
  FileBuilder& operator=(const FileBuilder&) = delete;

 private:
  std::string path_;
  std::string temp_;
  util::MappedFile file_;
  bool sealed_ = false;
};

/// Maps `path` and validates everything shared between kinds: magic,
/// version, kind, size arithmetic, the whole-file checksum, and the
/// point count against the payload size.
struct LoadedFile {
  util::MappedFile file;
  Header header;

  Reader payload() const {
    return Reader(file.data() + kHeaderBytes, file.size() - kHeaderBytes);
  }
};

LoadedFile open_checkpoint(const std::string& path) {
  LoadedFile loaded;
  try {
    loaded.file = util::MappedFile::open_readonly(path);
  } catch (const std::runtime_error& e) {
    reject(path, e.what());
  }
  const util::MappedFile& file = loaded.file;
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

}  // namespace

// ----------------------------------------------------------------- sweep

void save_checkpoint(const std::string& path, const FleetColumns& columns,
                     const Hash128& params_hash) {
  obs::ScopedTimer timer(obs::metric::kCkptSaveTime);
  Header h;
  h.kind = CheckpointKind::kSweep;
  h.points = columns.size();
  h.seed = columns.seed;
  h.params_hash = params_hash;
  h.cycles_target = columns.cycles_target;
  h.payload_bytes = columns.size() * kSweepRowBytes;
  FileBuilder builder(path, h);
  Writer w = builder.payload();
  w.column(columns.clients);
  w.column(columns.cycles_done);
  w.column(columns.servers_used);
  w.column(columns.rng_s0);
  w.column(columns.rng_s1);
  w.column(columns.rng_s2);
  w.column(columns.rng_s3);
  w.column(columns.rng_cached_normal);
  w.column(columns.rng_has_cached);
  stat_columns_out(w, columns.lost_clients);
  stat_columns_out(w, columns.active_slots);
  stat_columns_out(w, columns.edge_energy);
  stat_columns_out(w, columns.cloud_energy);
  stat_columns_out(w, columns.total_energy);
  if (!w.full()) throw std::logic_error("checkpoint: sweep payload short");
  builder.seal();
}

FleetColumns load_fleet_checkpoint(const std::string& path,
                                   const Hash128& params_hash) {
  obs::ScopedTimer timer(obs::metric::kCkptRestoreTime);
  LoadedFile loaded = open_checkpoint(path);
  require_kind(path, loaded, CheckpointKind::kSweep);
  require_hash(path, loaded, params_hash);
  FleetColumns columns;
  columns.seed = loaded.header.seed;
  columns.cycles_target = loaded.header.cycles_target;
  const auto count = static_cast<std::size_t>(loaded.header.points);
  Reader r = loaded.payload();
  r.column(columns.clients, count);
  r.column(columns.cycles_done, count);
  r.column(columns.servers_used, count);
  r.column(columns.rng_s0, count);
  r.column(columns.rng_s1, count);
  r.column(columns.rng_s2, count);
  r.column(columns.rng_s3, count);
  r.column(columns.rng_cached_normal, count);
  r.column(columns.rng_has_cached, count);
  stat_columns_in(r, columns.lost_clients, count);
  stat_columns_in(r, columns.active_slots, count);
  stat_columns_in(r, columns.edge_energy, count);
  stat_columns_in(r, columns.cloud_energy, count);
  stat_columns_in(r, columns.total_energy, count);
  if (!r.drained()) throw std::logic_error("checkpoint: sweep payload long");
  return columns;
}

// ------------------------------------------------------------ resilience

void save_checkpoint(const std::string& path,
                     const ResilienceColumns& columns,
                     const Hash128& params_hash) {
  obs::ScopedTimer timer(obs::metric::kCkptSaveTime);
  Header h;
  h.kind = CheckpointKind::kResilience;
  h.points = columns.size();
  h.seed = columns.seed;
  h.params_hash = params_hash;
  h.cycles_target = columns.cycles_target;
  h.payload_bytes = columns.size() * kResilienceRowBytes;
  FileBuilder builder(path, h);
  Writer w = builder.payload();
  w.column(columns.clients);
  w.column(columns.done);
  w.column(columns.servers_used);
  w.column(columns.degraded_cycles);
  w.column(columns.edge_fallback_cycles);
  w.column(columns.fallback_client_cycles);
  w.column(columns.shed_client_cycles);
  w.column(columns.browned_client_cycles);
  w.column(columns.sensor_mute_client_cycles);
  stat_columns_out(w, columns.lost_clients);
  stat_columns_out(w, columns.edge_energy);
  stat_columns_out(w, columns.cloud_energy);
  stat_columns_out(w, columns.total_energy);
  w.column(columns.bytes_generated);
  w.column(columns.bytes_served);
  w.column(columns.bytes_recovered);
  w.column(columns.bytes_dropped);
  w.column(columns.bytes_pending);
  w.column(columns.bytes_lost);
  if (!w.full())
    throw std::logic_error("checkpoint: resilience payload short");
  builder.seal();
}

ResilienceColumns load_resilience_checkpoint(const std::string& path,
                                             const Hash128& params_hash) {
  obs::ScopedTimer timer(obs::metric::kCkptRestoreTime);
  LoadedFile loaded = open_checkpoint(path);
  require_kind(path, loaded, CheckpointKind::kResilience);
  require_hash(path, loaded, params_hash);
  ResilienceColumns columns;
  columns.seed = loaded.header.seed;
  columns.cycles_target = loaded.header.cycles_target;
  const auto count = static_cast<std::size_t>(loaded.header.points);
  Reader r = loaded.payload();
  r.column(columns.clients, count);
  r.column(columns.done, count);
  r.column(columns.servers_used, count);
  r.column(columns.degraded_cycles, count);
  r.column(columns.edge_fallback_cycles, count);
  r.column(columns.fallback_client_cycles, count);
  r.column(columns.shed_client_cycles, count);
  r.column(columns.browned_client_cycles, count);
  r.column(columns.sensor_mute_client_cycles, count);
  stat_columns_in(r, columns.lost_clients, count);
  stat_columns_in(r, columns.edge_energy, count);
  stat_columns_in(r, columns.cloud_energy, count);
  stat_columns_in(r, columns.total_energy, count);
  r.column(columns.bytes_generated, count);
  r.column(columns.bytes_served, count);
  r.column(columns.bytes_recovered, count);
  r.column(columns.bytes_dropped, count);
  r.column(columns.bytes_pending, count);
  r.column(columns.bytes_lost, count);
  if (!r.drained())
    throw std::logic_error("checkpoint: resilience payload long");
  return columns;
}

// --------------------------------------------------------------- helpers

CheckpointInfo inspect_checkpoint(const std::string& path) {
  LoadedFile loaded = open_checkpoint(path);
  CheckpointInfo info;
  info.version = kVersion;
  info.kind = loaded.header.kind;
  info.points = loaded.header.points;
  info.seed = loaded.header.seed;
  info.params_hash = loaded.header.params_hash;
  info.cycles_target = loaded.header.cycles_target;
  info.payload_bytes = loaded.header.payload_bytes;
  return info;
}

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
