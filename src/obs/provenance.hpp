// Run provenance manifests: every BENCH/CSV/JSONL artifact gains a
// sidecar `<artifact>.manifest.json` (JSON-lines) recording enough to
// replay any of its measurement points bit-for-bit:
//
//   header  {"kind":"manifest","artifact":...,"git_sha":...,
//            "build_type":...,"sanitize":...,"obs":true,"run_id":...}
//   point   {"kind":"point","label":...,"n":...,"param":...,
//            "master_seed":...,"trials":...,"threads":...,
//            "scheduler":"churn[0.02/uniform-state]",
//            "spec":"protocol=ag;n=64;factory=registry;init=default;
//                    engine=scheduled;max_interactions=...;label=...;
//                    sched=churn[0.02/uniform-state];",
//            "spec_hash":"fnv1a64:...","replayable":true,
//            "counters":{...}}
//
// The "spec" field is the load-bearing one: a canonical key=value
// serialisation of the full TrialSpec, the scheduler as its display name
// (whose doubles print exactly), that spec_from_kv() parses back into an
// equivalent spec.  Because the runner derives every trial's RNG stream
// from (master_seed, label, trial) alone, re-running the parsed spec
// with the recorded master seed reproduces each TrialRecord bit for bit
// — tests/test_obs.cpp pins exactly that round trip, and the manifest
// needs no access to the original binary's command line.
//
// Replayability has two honest exceptions, flagged per point: an
// explicit ProtocolFactory without a registry name, and a custom
// ConfigGenerator other than gen_uniform_random() (recognised by its
// named functor; behaviourally identical to the runner's default).
// Points carrying either are recorded with "replayable":false rather
// than silently mis-recorded.
//
// spec_hash is FNV-1a 64 over the canonical spec string — cheap for the
// stdlib-only python checker to recompute, and a stable join key between
// BENCH records, manifests and bench/history.jsonl.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "runner/runner.hpp"

namespace pp::obs {

/// Build-time provenance, injected by CMake into provenance.cpp alone
/// (PP_GIT_SHA / PP_BUILD_TYPE / PP_SANITIZE) so a SHA bump does not
/// rebuild the world.  Values read "unknown" under a bare compile.
struct BuildInfo {
  const char* git_sha;
  const char* build_type;
  const char* sanitize;
  bool obs_enabled;
};
BuildInfo build_info();

/// FNV-1a 64 (the library-wide string hash family; see
/// rng/seed_sequence.hpp for the seeded variant).
u64 fnv1a64(std::string_view s);

/// Canonical key=value;... serialisation of `spec`: the TrialSpec
/// fields, the engine by engine_kind_name, and the scheduler as one
/// `sched=<SchedulerSpec::to_string()>` field, its only written form.
std::string spec_to_kv(const TrialSpec& spec);

/// Parses spec_to_kv() output back into a TrialSpec; nullopt for anything
/// spec_to_kv() would not write, or would write for a non-replayable
/// factory or init.  Never asserts.
std::optional<TrialSpec> spec_from_kv(std::string_view kv);

/// True when spec_to_kv() captures everything needed to re-run `spec`:
/// a registry-named protocol (or none needed) and a default or
/// uniform-random initial-configuration generator.
bool spec_is_replayable(const TrialSpec& spec);

/// "fnv1a64:<hex>" over the canonical serialisation.
std::string spec_hash(const TrialSpec& spec);

/// Everything needed to replay one manifest point.
struct ReplayPoint {
  TrialSpec spec;
  u64 master_seed = 0;
  u64 trials = 0;
  bool replayable = false;
};

/// Parses one manifest "point" line (minimal flat-JSON field extraction;
/// asserts the line is a point record).
ReplayPoint parse_manifest_point(const std::string& line);

/// Extracts a top-level scalar field from one line of flat JSON emitted
/// by this library's writers; returns "" when absent.  Exposed for the
/// tests and any tooling that wants to stay parser-free.
std::string manifest_field(const std::string& line, const std::string& key);

/// Append-only JSON-lines sidecar writer for one artifact.  A
/// default-constructed writer is disabled and swallows writes, mirroring
/// BenchLog's unwritable-path behaviour.
class ManifestWriter {
 public:
  ManifestWriter() = default;

  /// Truncates `<artifact_path>.manifest.json` and stamps the header.
  /// `run_id` ties the sidecar to its BENCH file (0 for sinks, which
  /// have no run header).
  static ManifestWriter open(const std::string& artifact_path, u64 run_id);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Appends one point record; `set` supplies master_seed, threads,
  /// trial count and the merged counter dump.
  void append_point(const TrialSpec& spec, const TrialSet& set, u64 n,
                    double param) const;

 private:
  std::string path_;
  u64 run_id_ = 0;
};

}  // namespace pp::obs
