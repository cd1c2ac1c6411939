#include "service/chunk.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/file_io.hpp"
#include "obs/provenance.hpp"

namespace pp::service {
namespace {

constexpr const char* kMagic = "poprank-chunk-v1";

// Doubles travel as their u64 bit pattern: "%.17g" round-trips on one
// libc, but the cache must be bit-exact across any producer/consumer
// pair, so no decimal detour.
u64 double_bits(double v) { return std::bit_cast<u64>(v); }
double bits_double(u64 b) { return std::bit_cast<double>(b); }

}  // namespace

std::vector<ChunkSpec> chunk_ranges(u64 trials, u64 chunk_trials) {
  PP_ASSERT(chunk_trials >= 1);
  std::vector<ChunkSpec> out;
  out.reserve((trials + chunk_trials - 1) / chunk_trials);
  for (u64 begin = 0; begin < trials; begin += chunk_trials) {
    ChunkSpec c;
    c.index = out.size();
    c.begin = begin;
    c.end = begin + chunk_trials < trials ? begin + chunk_trials : trials;
    out.push_back(c);
  }
  return out;
}

u64 default_chunk_trials(u64 trials) {
  // ~16 chunks per point: enough slack for 4 threads to stay busy and
  // for an interrupted run to lose at most 1/16 of the point, small
  // enough that the cache directory stays browsable.  Never a function
  // of the thread count (see header).
  const u64 chunks = 16;
  const u64 per = (trials + chunks - 1) / chunks;
  return per >= 1 ? per : 1;
}

std::string chunk_key_material(const TrialSpec& spec, u64 master_seed,
                               const ChunkSpec& chunk) {
  std::string out = obs::spec_to_kv(spec);
  out += "master_seed=" + std::to_string(master_seed) + ";";
  out += "chunk=" + std::to_string(chunk.begin) + "-" +
         std::to_string(chunk.end) + ";";
  out += "format=1;";
  return out;
}

std::string chunk_file_name(const std::string& key_material) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "chunk-%016" PRIx64 ".result",
                obs::fnv1a64(key_material));
  return buf;
}

std::string serialize_chunk(const std::string& key_material,
                            const ChunkSpec& chunk, const TrialRange& range) {
  PP_ASSERT(range.begin == chunk.begin && range.end == chunk.end);
  PP_ASSERT(range.records.size() == chunk.end - chunk.begin);
  std::ostringstream out;
  out << kMagic << "\n";
  out << "key " << key_material << "\n";
  out << "range " << chunk.begin << " " << chunk.end << "\n";
  for (const TrialRecord& r : range.records) {
    out << "trial " << r.trial << " " << r.seed << " " << r.interactions
        << " " << r.productive_steps << " " << r.fault_events << " "
        << double_bits(r.parallel_time) << " " << (r.silent ? 1 : 0) << " "
        << (r.valid ? 1 : 0) << "\n";
  }
  out << "counters";
  for (const u64 v : range.counters.counter) out << " " << v;
  out << "\n";
  for (u64 s = 0; s < obs::kNumSketches; ++s) {
    out << "sketch " << s;
    for (const u64 v : range.counters.sketch[s]) out << " " << v;
    out << "\n";
  }
  // wall_us is outside the determinism contract (it records the compute
  // cost of whichever run filled the cache) but kept for diagnostics.
  out << "wall_us " << range.counters.wall_us << "\n";
  out << "end\n";
  return out.str();
}

ChunkLoad load_chunk(const std::string& dir, const std::string& key_material,
                     const ChunkSpec& chunk) {
  ChunkLoad out;
  const std::string path = dir + "/" + chunk_file_name(key_material);
  const std::optional<std::string> content = read_file(path);
  if (!content.has_value()) {
    out.status = CacheProbe::kMiss;
    return out;
  }
  out.status = CacheProbe::kStale;  // until every check below passes

  std::istringstream in(*content);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return out;
  if (!std::getline(in, line) || line != "key " + key_material) return out;
  if (!std::getline(in, line) ||
      line != "range " + std::to_string(chunk.begin) + " " +
                  std::to_string(chunk.end)) {
    return out;
  }

  TrialRange range;
  range.begin = chunk.begin;
  range.end = chunk.end;
  range.records.reserve(chunk.end - chunk.begin);
  for (u64 t = chunk.begin; t < chunk.end; ++t) {
    std::istringstream ls;
    if (!std::getline(in, line)) return out;
    ls.str(line);
    std::string tag;
    TrialRecord r;
    u64 pt_bits = 0, silent = 0, valid = 0;
    ls >> tag >> r.trial >> r.seed >> r.interactions >> r.productive_steps >>
        r.fault_events >> pt_bits >> silent >> valid;
    if (!ls || tag != "trial" || r.trial != t) return out;
    r.parallel_time = bits_double(pt_bits);
    r.silent = silent != 0;
    r.valid = valid != 0;
    range.records.push_back(r);
  }

  {
    if (!std::getline(in, line)) return out;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "counters") return out;
    for (u64& v : range.counters.counter) ls >> v;
    if (!ls) return out;
  }
  for (u64 s = 0; s < obs::kNumSketches; ++s) {
    if (!std::getline(in, line)) return out;
    std::istringstream ls(line);
    std::string tag;
    u64 idx = 0;
    ls >> tag >> idx;
    if (tag != "sketch" || idx != s) return out;
    for (u64& v : range.counters.sketch[s]) ls >> v;
    if (!ls) return out;
  }
  {
    if (!std::getline(in, line)) return out;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag >> range.counters.wall_us;
    if (!ls || tag != "wall_us") return out;
  }
  if (!std::getline(in, line) || line != "end") return out;

  out.status = CacheProbe::kHit;
  out.range = std::move(range);
  return out;
}

std::string store_chunk(const std::string& dir,
                        const std::string& key_material,
                        const ChunkSpec& chunk, const TrialRange& range) {
  const std::string path = dir + "/" + chunk_file_name(key_material);
  if (!write_file_atomic(path, serialize_chunk(key_material, chunk, range))) {
    return "";
  }
  return path;
}

const char* cache_probe_name(CacheProbe p) {
  switch (p) {
    case CacheProbe::kHit:
      return "hit";
    case CacheProbe::kMiss:
      return "miss";
    case CacheProbe::kStale:
      return "stale";
  }
  return "?";
}

}  // namespace pp::service
