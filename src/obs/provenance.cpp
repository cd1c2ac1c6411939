#include "obs/provenance.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/file_io.hpp"
#include "runner/sink.hpp"  // json_escape

// Build provenance, injected by CMake onto this translation unit only.
#ifndef PP_GIT_SHA
#define PP_GIT_SHA "unknown"
#endif
#ifndef PP_BUILD_TYPE
#define PP_BUILD_TYPE "unknown"
#endif
#ifndef PP_SANITIZE
#define PP_SANITIZE "none"
#endif

namespace pp::obs {

BuildInfo build_info() {
  return BuildInfo{PP_GIT_SHA, PP_BUILD_TYPE, PP_SANITIZE, PP_OBS != 0};
}

u64 fnv1a64(std::string_view s) {
  u64 h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// ---- canonical key=value serialisation ----------------------------------

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void put(std::string& out, std::string_view key, std::string_view value) {
  // The kv grammar has no escaping; refuse values that would corrupt it
  // (labels and protocol names in this repo are /-and-dash identifiers).
  PP_ASSERT_MSG(value.find(';') == std::string_view::npos &&
                    value.find('=') == std::string_view::npos,
                "spec kv value must not contain ';' or '='");
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back(';');
}

void put_u(std::string& out, std::string_view key, u64 v) {
  put(out, key, std::to_string(v));
}

void put_d(std::string& out, std::string_view key, double v) {
  put(out, key, fmt_double(v));
}

template <typename E>
void put_enum(std::string& out, std::string_view key, E v) {
  put_u(out, key, static_cast<u64>(v));
}

// How TrialSpec::init serialises: the runner's implicit default, the
// named uniform-random functor (behaviourally the same draw), or an
// opaque custom generator (recorded honestly, not replayable).
std::string init_kind(const TrialSpec& spec) {
  if (!spec.init) return "default";
  if (spec.init.target<UniformRandomGen>() != nullptr) return "uniform-random";
  return "custom";
}

}  // namespace

std::string spec_to_kv(const TrialSpec& spec) {
  std::string out;
  put(out, "protocol", spec.protocol);
  put_u(out, "n", spec.n);
  put(out, "factory", spec.factory ? "custom" : "registry");
  put(out, "init", init_kind(spec));
  put_enum(out, "engine", spec.engine);
  put_u(out, "max_interactions", spec.max_interactions);
  put(out, "label", spec.label);

  const SchedulerSpec& s = spec.scheduler;
  put_enum(out, "sched.kind", s.kind);
  put_enum(out, "sched.graph", s.graph);
  put_u(out, "sched.degree", s.degree);
  put_u(out, "sched.graph_seed", s.graph_seed);
  put_u(out, "sched.graph_accelerated", s.graph_accelerated ? 1 : 0);
  put_enum(out, "sched.kernel", s.kernel);
  put_u(out, "sched.kernel_power", s.kernel_power);
  put_u(out, "sched.dense_reference", s.dense_reference ? 1 : 0);
  put_enum(out, "sched.dynamics", s.dynamics);
  put_d(out, "sched.edge_birth", s.edge_birth);
  put_d(out, "sched.edge_death", s.edge_death);
  put_u(out, "sched.rewire_period", s.rewire_period);
  put_enum(out, "sched.adversary", s.adversary);
  put_d(out, "sched.churn_rate", s.churn_rate);
  put_u(out, "sched.churn_faults", s.churn_faults);
  put_u(out, "sched.churn_active", s.churn_active);
  put_enum(out, "sched.churn_reset", s.churn_reset);
  put_u(out, "sched.partition_blocks", s.partition_blocks);
  put_u(out, "sched.partition_split", s.partition_split);
  put_u(out, "sched.partition_heal", s.partition_heal);
  put_u(out, "sched.partition_cycles", s.partition_cycles);
  return out;
}

bool spec_is_replayable(const TrialSpec& spec) {
  if (spec.factory) return false;  // opaque; registry lookup is the record
  if (spec.protocol.empty() || spec.n == 0) return false;
  const std::string init = init_kind(spec);
  return init == "default" || init == "uniform-random";
}

std::string spec_hash(const TrialSpec& spec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a64:%016llx",
                static_cast<unsigned long long>(fnv1a64(spec_to_kv(spec))));
  return buf;
}

TrialSpec spec_from_kv(const std::string& kv) {
  TrialSpec spec;
  SchedulerSpec& s = spec.scheduler;
  u64 pos = 0;
  while (pos < kv.size()) {
    const u64 eq = kv.find('=', pos);
    PP_ASSERT_MSG(eq != std::string::npos, "malformed spec kv: missing '='");
    const u64 semi = kv.find(';', eq + 1);
    PP_ASSERT_MSG(semi != std::string::npos, "malformed spec kv: missing ';'");
    const std::string key = kv.substr(pos, eq - pos);
    const std::string val = kv.substr(eq + 1, semi - eq - 1);
    pos = semi + 1;

    const auto as_u = [&val] { return std::strtoull(val.c_str(), nullptr, 10); };
    const auto as_d = [&val] { return std::strtod(val.c_str(), nullptr); };

    if (key == "protocol") {
      spec.protocol = val;
    } else if (key == "n") {
      spec.n = as_u();
    } else if (key == "factory") {
      PP_ASSERT_MSG(val == "registry",
                    "spec_from_kv: custom factories are not replayable");
    } else if (key == "init") {
      PP_ASSERT_MSG(val == "default" || val == "uniform-random",
                    "spec_from_kv: custom init generators are not replayable");
      if (val == "uniform-random") spec.init = gen_uniform_random();
    } else if (key == "engine") {
      spec.engine = static_cast<EngineKind>(as_u());
    } else if (key == "max_interactions") {
      spec.max_interactions = as_u();
    } else if (key == "label") {
      spec.label = val;
    } else if (key == "sched.kind") {
      s.kind = static_cast<SchedulerKind>(as_u());
    } else if (key == "sched.graph") {
      s.graph = static_cast<GraphKind>(as_u());
    } else if (key == "sched.degree") {
      s.degree = as_u();
    } else if (key == "sched.graph_seed") {
      s.graph_seed = as_u();
    } else if (key == "sched.graph_accelerated") {
      s.graph_accelerated = as_u() != 0;
    } else if (key == "sched.kernel") {
      s.kernel = static_cast<WeightKernel>(as_u());
    } else if (key == "sched.kernel_power") {
      s.kernel_power = as_u();
    } else if (key == "sched.dense_reference") {
      s.dense_reference = as_u() != 0;
    } else if (key == "sched.dynamics") {
      s.dynamics = static_cast<GraphDynamics>(as_u());
    } else if (key == "sched.edge_birth") {
      s.edge_birth = as_d();
    } else if (key == "sched.edge_death") {
      s.edge_death = as_d();
    } else if (key == "sched.rewire_period") {
      s.rewire_period = as_u();
    } else if (key == "sched.adversary") {
      s.adversary = static_cast<AdversaryPolicy>(as_u());
    } else if (key == "sched.churn_rate") {
      s.churn_rate = as_d();
    } else if (key == "sched.churn_faults") {
      s.churn_faults = as_u();
    } else if (key == "sched.churn_active") {
      s.churn_active = as_u();
    } else if (key == "sched.churn_reset") {
      s.churn_reset = static_cast<ChurnReset>(as_u());
    } else if (key == "sched.partition_blocks") {
      s.partition_blocks = as_u();
    } else if (key == "sched.partition_split") {
      s.partition_split = as_u();
    } else if (key == "sched.partition_heal") {
      s.partition_heal = as_u();
    } else if (key == "sched.partition_cycles") {
      s.partition_cycles = as_u();
    } else {
      PP_ASSERT_MSG(false, "spec_from_kv: unknown key");
    }
  }
  return spec;
}

// ---- flat-JSON field extraction -----------------------------------------

std::string manifest_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const u64 at = line.find(needle);
  if (at == std::string::npos) return "";
  u64 i = at + needle.size();
  if (i >= line.size()) return "";
  if (line[i] == '"') {  // string value; unescape the writer's escapes
    std::string out;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      char c = line[i];
      if (c == '\\' && i + 1 < line.size()) {
        const char e = line[++i];
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
      }
      out.push_back(c);
    }
    return out;
  }
  // bare scalar: number / true / false
  u64 end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

ReplayPoint parse_manifest_point(const std::string& line) {
  PP_ASSERT_MSG(manifest_field(line, "kind") == "point",
                "parse_manifest_point: not a point record");
  ReplayPoint out;
  out.replayable = manifest_field(line, "replayable") == "true";
  PP_ASSERT_MSG(out.replayable,
                "parse_manifest_point: point recorded as non-replayable");
  out.spec = spec_from_kv(manifest_field(line, "spec"));
  out.master_seed =
      std::strtoull(manifest_field(line, "master_seed").c_str(), nullptr, 10);
  out.trials =
      std::strtoull(manifest_field(line, "trials").c_str(), nullptr, 10);
  return out;
}

// ---- the sidecar writer -------------------------------------------------

ManifestWriter ManifestWriter::open(const std::string& artifact_path,
                                    u64 run_id) {
  ManifestWriter w;
  const std::string path = artifact_path + ".manifest.json";
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) {
    std::fprintf(stderr, "WARNING: cannot write manifest %s\n", path.c_str());
    return w;  // disabled
  }
  const BuildInfo b = build_info();
  f << "{\"kind\":\"manifest\",\"artifact\":\"" << json_escape(artifact_path)
    << "\",\"run_id\":" << run_id << ",\"git_sha\":\"" << json_escape(b.git_sha)
    << "\",\"build_type\":\"" << json_escape(b.build_type)
    << "\",\"sanitize\":\"" << json_escape(b.sanitize)
    << "\",\"obs\":" << (b.obs_enabled ? "true" : "false") << "}\n";
  if (!f.good()) return w;
  w.path_ = path;
  w.run_id_ = run_id;
  return w;
}

void ManifestWriter::append_point(const TrialSpec& spec, const TrialSet& set,
                                  u64 n, double param) const {
  if (!enabled()) return;
  const std::string kv = spec_to_kv(spec);
  const std::string model = spec.engine == EngineKind::kScheduled
                                ? spec.scheduler.to_string()
                                : engine_kind_name(spec.engine);
  // Composed in memory, appended with one O_APPEND write: concurrent
  // writers (two benches sharing a sidecar path) interleave whole
  // records, never bytes within one (common/file_io.hpp).
  std::ostringstream f;
  f << "{\"kind\":\"point\",\"label\":\"" << json_escape(spec.label)
    << "\",\"n\":" << n << ",\"param\":" << fmt_double(param)
    << ",\"master_seed\":" << set.master_seed
    << ",\"trials\":" << set.stats.trials << ",\"threads\":" << set.threads
    << ",\"scheduler\":\"" << json_escape(model) << "\",\"spec\":\""
    << json_escape(kv) << "\",\"spec_hash\":\"" << spec_hash(spec)
    << "\",\"replayable\":" << (spec_is_replayable(spec) ? "true" : "false")
    << ",\"counters\":" << set.counters.to_json() << "}";
  append_line(path_, f.str());
}

}  // namespace pp::obs
