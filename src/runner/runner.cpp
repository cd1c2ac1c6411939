#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/assert.hpp"
#include "core/initial.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "protocols/factory.hpp"

namespace pp {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kAccelerated:
      return "accelerated";
    case EngineKind::kUniform:
      return "uniform";
    case EngineKind::kScheduled:
      return "scheduled";
  }
  return "?";
}

std::string TrialSpec::model_name() const {
  if (engine == EngineKind::kScheduled) return scheduler.to_string();
  return engine_kind_name(engine);
}

ProtocolFactory TrialSpec::resolve_factory() const {
  if (factory) return factory;
  PP_ASSERT_MSG(!protocol.empty() && n > 0,
                "TrialSpec needs either a factory or protocol+n");
  const std::string name = protocol;
  const u64 size = n;
  return [name, size] { return make_protocol(name, size); };
}

void AggregateStats::fold(const TrialRecord& r) {
  ++trials;
  if (!r.silent) {
    ++timeouts;
  } else if (!r.valid) {
    ++invalid;
  }
  fault_events += r.fault_events;
  parallel_time.push(r.parallel_time);
  interactions.push(static_cast<double>(r.interactions));
  productive_steps.push(static_cast<double>(r.productive_steps));
  const bool overflow =
      __builtin_add_overflow(total_interactions, r.interactions,
                             &total_interactions) ||
      __builtin_add_overflow(total_productive_steps, r.productive_steps,
                             &total_productive_steps);
  PP_ASSERT_MSG(!overflow, "trial-set interaction sum overflows u64");
}

Summary TrialSet::summary() const {
  PP_ASSERT_MSG(!records.empty(), "summary() needs keep_records");
  return summarize(parallel_times());
}

std::vector<double> TrialSet::parallel_times() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const TrialRecord& r : records) out.push_back(r.parallel_time);
  return out;
}

namespace {

// One trial of the fan-out, on a sibling of `prototype` (the spec's
// protocol, built once per trial set).  `shared_scheduler` likewise lets
// run_trial_ranges() build one (immutable, thread-safe) scheduler for the
// whole trial set instead of once per trial — graph topologies can be
// O(n^2) to construct.
TrialRecord run_one_trial_impl(const TrialSpec& spec, u64 trial_index,
                               u64 seed, const Protocol& prototype,
                               const Scheduler* shared_scheduler,
                               obs::CounterBlock* block) {
#if PP_OBS
  const u64 t0_us = obs::now_us();
#endif
  // The block is per *trial*, so the merged counters inherit the runner's
  // thread-count-independent determinism.  Step tracing is per-thread
  // state scoped to the one flagged trial.
  obs::ScopedCounters counters(block);
  const bool step_trace = trial_index == obs::flagged_trial();
  if (step_trace) obs::set_step_trace(true);
  Rng rng(seed);
  ProtocolPtr p;
  {
    PP_OBS_SPAN("trial-setup", "\"trial\":" + std::to_string(trial_index));
    p = prototype.sibling();
    Configuration start;
    {
      PP_OBS_SPAN("protocol-init",
                  "\"trial\":" + std::to_string(trial_index));
      start = spec.init ? spec.init(*p, rng)
                        : initial::uniform_random(*p, rng);
    }
    PP_OBS_SPAN("protocol-reset",
                "\"trial\":" + std::to_string(trial_index));
    p->reset(std::move(start));
  }
  RunResult r;
  {
    PP_OBS_SPAN("scheduler-run",
                "\"trial\":" + std::to_string(trial_index));
    switch (spec.engine) {
      case EngineKind::kAccelerated: {
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        r = run_accelerated(*p, rng, ro);
        break;
      }
      case EngineKind::kUniform: {
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        r = run_uniform(*p, rng, ro);
        break;
      }
      case EngineKind::kScheduled: {
        SchedulerPtr own;
        const Scheduler* s = shared_scheduler;
        if (s == nullptr) {
          own = make_scheduler(spec.scheduler, p->num_agents());
          s = own.get();
        }
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        r = s->run(*p, rng, ro);
        break;
      }
    }
  }
  if (step_trace) obs::set_step_trace(false);
#if PP_OBS
  if (block != nullptr) block->wall_us = obs::now_us() - t0_us;
#endif
  TrialRecord rec;
  rec.trial = trial_index;
  rec.seed = seed;
  rec.interactions = r.interactions;
  rec.productive_steps = r.productive_steps;
  rec.fault_events = r.fault_events;
  rec.parallel_time = r.parallel_time;
  rec.silent = r.silent;
  rec.valid = r.valid;
  return rec;
}

}  // namespace

TrialRecord run_one_trial(const TrialSpec& spec, u64 trial_index, u64 seed) {
  const ProtocolPtr prototype = spec.resolve_factory()();
  return run_one_trial_impl(spec, trial_index, seed, *prototype, nullptr,
                            nullptr);
}

void run_trial_ranges(const TrialSpec& spec, u64 master_seed,
                      std::vector<TrialRange>& ranges, ThreadPool& pool,
                      const std::function<void(u64)>& range_done) {
  obs::init_from_env();  // POPRANK_TRACE / POPRANK_TRACE_TRIAL, idempotent
  const SeedStream seeds(master_seed, spec.label);

  // Index k of the fan-out is the k-th trial of the concatenated ranges;
  // range i owns indices [first[i], first[i + 1]).
  std::vector<u64> first(ranges.size() + 1, 0);
  for (u64 i = 0; i < ranges.size(); ++i) {
    TrialRange& r = ranges[i];
    PP_ASSERT(r.begin <= r.end);
    r.records.assign(r.end - r.begin, TrialRecord{});
    r.counters.clear();
    first[i + 1] = first[i] + (r.end - r.begin);
  }
  const u64 total = first.back();

  // One protocol build and one scheduler for all trials.  Every trial
  // runs on a sibling of the prototype, sharing its immutable tables; the
  // prototype itself is never reset.  Scheduler::run is const and all
  // per-run state is local, so threads can share the instance.
  ProtocolPtr prototype;
  SchedulerPtr shared_scheduler;
  if (total > 0) {
    {
      PP_OBS_SPAN("protocol-build", "\"trials\":" + std::to_string(total));
      prototype = spec.resolve_factory()();
    }
    if (spec.engine == EngineKind::kScheduled) {
      shared_scheduler =
          make_scheduler(spec.scheduler, prototype->num_agents());
    }
  }

#if PP_OBS
  // One counter block per trial, merged per range in trial order; skipped
  // entirely when the layer is compiled out.
  std::vector<obs::CounterBlock> blocks(total);
  obs::CounterBlock* const blocks_data = blocks.data();
#else
  obs::CounterBlock* const blocks_data = nullptr;
#endif

  // Heartbeat / stall watchdog, armed only via the environment
  // (POPRANK_HEARTBEAT / POPRANK_STALL_TIMEOUT).
  obs::ProgressMonitor monitor(
      obs::watchdog_options_from_env(spec.label, total, spec.n));

  // Trials still running per range.  The thread whose decrement empties a
  // range has, through the acq_rel chain, seen every other trial of it.
  std::vector<std::atomic<u64>> left(ranges.size());
  for (u64 i = 0; i < ranges.size(); ++i) {
    left[i].store(first[i + 1] - first[i], std::memory_order_relaxed);
    if (first[i + 1] == first[i] && range_done) range_done(i);
  }

  // Each trial writes only its own record slot and counter block.  The
  // shared spec, prototype and scheduler are read-only.
  pool.parallel_for(total, [&](u64 k) {
    const u64 i = static_cast<u64>(
        std::upper_bound(first.begin(), first.end(), k) - first.begin() - 1);
    TrialRange& r = ranges[i];
    const u64 t = r.begin + (k - first[i]);
    TrialRecord& rec = r.records[k - first[i]];
    monitor.trial_started(t);
    rec = run_one_trial_impl(spec, t, seeds.trial_seed(t), *prototype,
                             shared_scheduler.get(),
                             blocks_data == nullptr ? nullptr : blocks_data + k);
    monitor.trial_finished(t, rec.interactions);
    if (left[i].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
#if PP_OBS
    for (u64 j = first[i]; j < first[i + 1]; ++j) r.counters.merge(blocks[j]);
#endif
    if (range_done) range_done(i);
  });
}

TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt,
                    ThreadPool& pool) {
  PP_ASSERT(opt.trials >= 1);
  std::vector<TrialRange> all(1);
  all[0].end = opt.trials;

  // wall_seconds / trials_per_sec are documented as outside the
  // determinism contract, hence:
  // poprank-lint: allow(R1): wall-clock throughput bookkeeping only
  const auto t0 = std::chrono::steady_clock::now();
  run_trial_ranges(spec, opt.master_seed, all, pool);
  // poprank-lint: allow(R1): ditto — throughput bookkeeping only.
  const auto t1 = std::chrono::steady_clock::now();

  TrialSet out;
  out.threads = pool.size();
  out.master_seed = opt.master_seed;
  out.records = std::move(all[0].records);
  out.counters = all[0].counters;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();  // poprank-lint: allow(R1)
  out.trials_per_sec = out.wall_seconds > 0
                           ? static_cast<double>(opt.trials) / out.wall_seconds
                           : 0.0;

  // Deterministic aggregation: fold in trial-index order, never in
  // completion order.
  for (const TrialRecord& r : out.records) out.stats.fold(r);
  if (!opt.keep_records) {
    out.records.clear();
    out.records.shrink_to_fit();
  }
  return out;
}

TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt) {
  ThreadPool pool(opt.threads);
  return run_trials(spec, opt, pool);
}

}  // namespace pp
