// The parallel Monte-Carlo trial runner.
//
// A TrialSpec describes one measurement point: which protocol to build
// (factory-registry name or an explicit factory), how to generate the
// starting configuration, which engine drives the schedule (accelerated /
// uniform / any interaction model from src/schedulers — hostile ones
// included), and the interaction budget.  run_trials() fans `trials`
// independent copies out over a ThreadPool and returns per-trial records
// plus merged aggregates.
//
// Determinism guarantee.  Trial t's generator is seeded with
// derive_seed(master_seed, label, t) — exactly the derivation the legacy
// serial harness (analysis/experiment.cpp) uses — and each trial writes
// only to its own slot of a preallocated record array.  Aggregates are
// folded from that array in trial-index order after the fan-out completes.
// Results are therefore bit-identical for every thread count and schedule,
// and identical to a serial run with the same master seed.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/stats.hpp"
#include "core/engine.hpp"
#include "core/protocol.hpp"
#include "obs/counters.hpp"
#include "runner/seed_stream.hpp"
#include "runner/thread_pool.hpp"
#include "schedulers/scheduler.hpp"

namespace pp {

enum class EngineKind {
  kAccelerated,  ///< exact geometric null-skipping (the default)
  kUniform,      ///< faithful one-interaction-at-a-time reference engine
  kScheduled,    ///< pluggable interaction model; see TrialSpec::scheduler
};

const char* engine_kind_name(EngineKind k);

struct TrialSpec {
  /// Protocol to instantiate: a factory-registry name ("ag",
  /// "ring-of-traps", ...) with population n, or an explicit factory that
  /// overrides both.
  std::string protocol;
  u64 n = 0;
  ProtocolFactory factory;

  /// Starting-configuration generator (analysis/experiment.hpp /
  /// core/initial.hpp); defaults to uniform_random over all states.
  ConfigGenerator init;

  EngineKind engine = EngineKind::kAccelerated;

  /// Interaction model for EngineKind::kScheduled (plain data — each trial
  /// builds its scheduler from this and the resolved population size, so
  /// specs stay copyable and threads share nothing mutable).  Hostile
  /// models (adversarial, churn, partition) and the weighted/dynamic-graph
  /// families run through this path too; run_trials() builds one shared
  /// scheduler per trial set, so expensive per-spec state (a topology, a
  /// weight kernel's tables) is constructed once, not per trial.
  SchedulerSpec scheduler;

  /// Budget on scheduler interactions (for the adversarial schedulers that
  /// is productive firings — they have no null steps).
  u64 max_interactions = ~static_cast<u64>(0);

  /// Seed-derivation namespace; specs with different labels draw
  /// independent streams from the same master seed.
  std::string label = "runner";

  /// The factory to actually use (explicit one, else registry lookup).
  ProtocolFactory resolve_factory() const;
};

/// The per-trial outcome, reduced to what analysis and sinks consume.
struct TrialRecord {
  u64 trial = 0;  ///< trial index; records arrive sorted by this field
  u64 seed = 0;   ///< the derived per-trial seed (for replaying one trial)
  u64 interactions = 0;
  u64 productive_steps = 0;
  u64 fault_events = 0;  ///< environmental faults injected (churn events,
                         ///< partition split/heal transitions)
  double parallel_time = 0;
  bool silent = false;
  bool valid = false;
};

/// Trial-index-ordered fold of all records (see runner.cpp): bit-identical
/// for every thread count.
struct AggregateStats {
  u64 trials = 0;
  /// Trials that ended without reaching silence: the interaction budget
  /// ran out or, under a graph-restricted scheduler, the run got locally
  /// stuck (no productive edge left on the topology).
  u64 timeouts = 0;
  u64 invalid = 0;  ///< silent but not a valid ranking (never expected)
  /// Total environmental faults injected across the set (churn events and
  /// partition split/heal transitions).
  u64 fault_events = 0;
  RunningStat parallel_time;
  RunningStat interactions;
  RunningStat productive_steps;

  void fold(const TrialRecord& r);
};

struct TrialSet {
  AggregateStats stats;
  /// One record per trial, ordered by trial index; cleared when
  /// RunnerOptions::keep_records is false.
  std::vector<TrialRecord> records;

  /// Merged observability metrics (obs/counters.hpp), folded in trial
  /// order — bit-identical for every thread count, like the stats.
  /// deterministic_empty() when POPRANK_OBS=OFF.
  obs::CounterBlock counters;

  /// The master seed the set ran under (echoed for provenance manifests;
  /// per-trial seeds derive from it and the spec label).
  u64 master_seed = 0;

  // Throughput bookkeeping (wall clock, not part of the determinism
  // guarantee).
  double wall_seconds = 0;
  double trials_per_sec = 0;
  u64 threads = 1;

  /// Quantile summary of parallel times; requires keep_records.
  Summary summary() const;
  /// The parallel times alone, trial order (requires keep_records).
  std::vector<double> parallel_times() const;
};

struct RunnerOptions {
  u64 trials = 100;
  u64 threads = 0;  ///< pool size; 0 = hardware concurrency
  u64 master_seed = kDefaultRootSeed;
  bool keep_records = true;
};

/// Runs opt.trials independent trials of `spec` on a fresh pool.
TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt);

/// Same, reusing a caller-owned pool (opt.threads is ignored).
TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt,
                    ThreadPool& pool);

/// Runs one trial of `spec` with an explicit seed — the replay tool behind
/// TrialRecord::seed, also the kernel the parallel fan-out executes.
TrialRecord run_one_trial(const TrialSpec& spec, u64 trial_index, u64 seed);

/// One contiguous slice of a trial set — the unit the sharded service
/// computes and its chunk-result cache stores (src/service/).
struct TrialRange {
  u64 begin = 0;
  u64 end = 0;  ///< exclusive
  /// Records for trials [begin, end), ordered by trial index.
  std::vector<TrialRecord> records;
  /// Per-trial counter blocks merged in trial-index order (sums, so a
  /// chunk-order merge of range counters equals the runner's trial-order
  /// merge bit for bit).
  obs::CounterBlock counters;
};

/// The fan-out kernel behind run_trials(): runs every trial of `ranges` —
/// disjoint [begin, end) slices of one trial set of `spec`, bounds set by
/// the caller — as a single parallel_for on `pool`, one trial per index,
/// with the standard derive_seed(master_seed, label, trial) derivation
/// and one scheduler shared by all trials.  Fills each range's records
/// and counters.  `range_done(i)` (optional) fires once per range, on the
/// thread that finished range i's last trial, after its counters are
/// merged; it must not touch the other ranges.
///
/// Because a trial's stream depends only on (master_seed, label, trial),
/// folding the records of any partition of [0, trials) back together in
/// trial-index order reproduces run_trials() bit for bit, however the
/// trials were scheduled.
void run_trial_ranges(const TrialSpec& spec, u64 master_seed,
                      std::vector<TrialRange>& ranges, ThreadPool& pool,
                      const std::function<void(u64)>& range_done = {});

}  // namespace pp
