#include "obs/provenance.hpp"

#include <charconv>
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

// A u64 over the whole token: no sign, space or trailing byte.
bool read_u64(std::string_view t, u64& out) {
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  return ec == std::errc() && end == t.data() + t.size();
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
  put(out, "n", std::to_string(spec.n));
  put(out, "factory", spec.factory ? "custom" : "registry");
  put(out, "init", init_kind(spec));
  put(out, "engine", engine_kind_name(spec.engine));
  put(out, "max_interactions", std::to_string(spec.max_interactions));
  put(out, "label", spec.label);
  put(out, "sched", spec.scheduler.to_string());
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

std::optional<TrialSpec> spec_from_kv(std::string_view kv) {
  TrialSpec spec;
  u64 pos = 0;
  while (pos < kv.size()) {
    const u64 eq = kv.find('=', pos);
    const u64 semi = kv.find(';', pos);
    // A value holding '=' is malformed too: spec_to_kv never writes one.
    if (semi == std::string_view::npos || eq >= semi ||
        kv.find('=', eq + 1) < semi) {
      return std::nullopt;
    }
    const std::string_view key = kv.substr(pos, eq - pos);
    const std::string_view val = kv.substr(eq + 1, semi - eq - 1);
    pos = semi + 1;

    bool ok = true;
    if (key == "protocol") {
      spec.protocol = val;
    } else if (key == "n") {
      ok = read_u64(val, spec.n);
    } else if (key == "factory") {
      ok = val == "registry";  // a custom factory is not replayable
    } else if (key == "init") {  // nor is a custom init generator
      ok = val == "default" || val == "uniform-random";
      if (val == "uniform-random") spec.init = gen_uniform_random();
    } else if (key == "engine") {  // an unknown name fails the last check
      for (const EngineKind k : {EngineKind::kAccelerated, EngineKind::kUniform,
                                 EngineKind::kScheduled}) {
        if (val == engine_kind_name(k)) spec.engine = k;
      }
    } else if (key == "max_interactions") {
      ok = read_u64(val, spec.max_interactions);
    } else if (key == "label") {
      spec.label = val;
    } else if (key == "sched") {
      const std::optional<SchedulerSpec> s = parse_scheduler_spec(val);
      ok = s.has_value();
      if (ok) spec.scheduler = *s;
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  // Keys missing, repeated or out of order: not spec_to_kv's own output.
  if (spec_to_kv(spec) != kv) return std::nullopt;
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
  const std::optional<TrialSpec> spec =
      spec_from_kv(manifest_field(line, "spec"));
  PP_ASSERT_MSG(spec.has_value(), "parse_manifest_point: malformed spec");
  out.spec = *spec;
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
  // Composed in memory, appended with one O_APPEND write: concurrent
  // writers (two benches sharing a sidecar path) interleave whole
  // records, never bytes within one (common/file_io.hpp).
  std::ostringstream f;
  f << "{\"kind\":\"point\",\"label\":\"" << json_escape(spec.label)
    << "\",\"n\":" << n << ",\"param\":" << fmt_double(param)
    << ",\"master_seed\":" << set.master_seed
    << ",\"trials\":" << set.stats.trials << ",\"threads\":" << set.threads
    << ",\"scheduler\":\"" << json_escape(spec.model_name())
    << "\",\"spec\":\"" << json_escape(kv) << "\",\"spec_hash\":\""
    << spec_hash(spec)
    << "\",\"replayable\":" << (spec_is_replayable(spec) ? "true" : "false")
    << ",\"counters\":" << set.counters.to_json() << "}";
  append_line(path_, f.str());
}

}  // namespace pp::obs
