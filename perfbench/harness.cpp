// Measurement harness of the repository benchmark (see run.py).
//
// One process runs one workload: a list of trial specs read from a spec
// file, each run as a trial set through the library's public entry points
// on one shared thread pool.
//
//   1. Run guard: refuse anything but a Release, sanitizer-free,
//      POPRANK_OBS=ON build of the library.
//   2. Set-up, repeated kSetupReps times: thread pool and one make_scheduler
//      per scheduled spec (the shared tables).  The cache directory is left
//      to run_trials_sharded, which creates it inside the timed trial sets.
//   3. One untimed warm-up round of one trial per pool thread and spec.
//   4. Timed rounds until --seconds have elapsed.  Round r runs every spec
//      once with a master seed derived from (--seed, r).  The "pool" path
//      calls run_trials; the "sharded" path calls service::
//      run_trials_sharded on an empty cache directory with 0 workers, then
//      the same sweep again on the warm cache.
//   5. With --trace 1: replay every timed trial with spans around each
//      library call, rebuilding trials exactly as run_trials does (same
//      SeedStream seeds, one shared scheduler per set), and require the
//      records and counters to match the untimed results bit for bit.
//      Then run round 0's specs through run_trials, the sharded service
//      (cold and warm, on the specs it can serve) and direct store_chunk /
//      load_chunk calls.
//
// Everything is written to <out>/raw.json (and <out>/trace.json with
// --trace 1); run.py turns that into metrics.  Exit codes: 0 ran (the
// correctness verdicts are in raw.json), 2 bad arguments, 3 refused build.
#include <sys/resource.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/initial.hpp"
#include "obs/counters.hpp"
#include "obs/provenance.hpp"
#include "protocols/factory.hpp"
#include "rng/seed_sequence.hpp"
#include "runner/runner.hpp"
#include "schedulers/scheduler.hpp"
#include "service/chunk.hpp"
#include "service/coordinator.hpp"
#include "span_recorder.hpp"

namespace fs = std::filesystem;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SpanRecorder;
using pp::u64;

namespace {

struct Args {
  std::string specs_path;
  std::string workload;
  std::string path = "pool";  // pool | sharded
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

// Set-up is timed this many times per run and reported as the median.
constexpr u64 kSetupReps = 31;

struct BenchSpec {
  std::string label;
  std::string init;       // as written in the spec file
  std::string scheduler;  // SchedulerSpec::to_string(), or accelerated-uniform
  double budget_parallel_time = 0;  // 0 = run to silence
  u64 trials = 0;
  pp::TrialSpec spec;
};

struct SetResult {
  int spec = 0;
  u64 round = 0;
  std::string pass;  // pool | cold | warm
  pp::TrialSet set;
  double wall_s = 0;
  double cpu_s = 0;
  pp::service::ServiceReport report;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--specs") a.specs_path = v;
    else if (k == "--workload") a.workload = v;
    else if (k == "--path") a.path = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else usage("unknown argument " + k);
  }
  if (a.specs_path.empty() || a.out.empty() || a.workload.empty()) {
    usage("--specs, --workload and --out are required");
  }
  if (a.path != "pool" && a.path != "sharded") usage("--path pool|sharded");
  return a;
}

// Scheduler names resolve against the conformance roster, so the spec file
// can only name models the library registers.
pp::SchedulerSpec resolve_scheduler(const std::string& name) {
  for (const pp::SchedulerSpec& s : pp::all_scheduler_specs()) {
    if (s.to_string() == name) return s;
  }
  usage("unknown scheduler " + name);
}

// Line format: label protocol n init scheduler edge_death_per_n
// budget_parallel_time trials.  init is uniform-random or k-distant:<k>.
std::vector<BenchSpec> load_specs(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::vector<BenchSpec> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    BenchSpec b;
    std::string protocol;
    u64 n = 0;
    double death_per_n = 0;
    if (!(ls >> b.label >> protocol >> n >> b.init >> b.scheduler >>
          death_per_n >> b.budget_parallel_time >> b.trials) ||
        b.trials == 0) {
      usage("bad spec line: " + line);
    }
    if (pp::preferred_population(protocol, n) != n) {
      usage("n=" + std::to_string(n) + " is not a preferred size of " +
            protocol);
    }
    pp::TrialSpec& s = b.spec;
    s.protocol = protocol;
    s.n = n;
    s.label = b.label;
    // An unset generator is the runner's uniform-random default.
    if (b.init.rfind("k-distant:", 0) == 0) {
      const u64 k = std::stoull(b.init.substr(10));
      s.init = [k](const pp::Protocol& p, pp::Rng& rng) {
        return pp::initial::k_distant(p, k, rng);
      };
    } else if (b.init != "uniform-random") {
      usage("unknown init " + b.init);
    }
    if (b.scheduler != "accelerated-uniform") {
      s.engine = pp::EngineKind::kScheduled;
      s.scheduler = resolve_scheduler(b.scheduler);
      if (death_per_n > 0) {
        s.scheduler.edge_death = death_per_n / static_cast<double>(n);
      }
      b.scheduler = s.scheduler.to_string();
    }
    if (b.budget_parallel_time > 0) {
      s.max_interactions =
          static_cast<u64>(b.budget_parallel_time * static_cast<double>(n));
    }
    out.push_back(std::move(b));
  }
  if (out.empty()) usage("no specs in " + path);
  return out;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

bool same_double(double a, double b) {
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

bool same_record(const pp::TrialRecord& a, const pp::TrialRecord& b) {
  return a.trial == b.trial && a.seed == b.seed &&
         a.interactions == b.interactions &&
         a.productive_steps == b.productive_steps &&
         a.fault_events == b.fault_events &&
         same_double(a.parallel_time, b.parallel_time) &&
         a.silent == b.silent && a.valid == b.valid;
}

bool same_records(const std::vector<pp::TrialRecord>& a,
                  const std::vector<pp::TrialRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_record(a[i], b[i])) return false;
  }
  return true;
}

bool same_stat(const pp::RunningStat& a, const pp::RunningStat& b) {
  return a.count() == b.count() && same_double(a.mean(), b.mean()) &&
         same_double(a.variance(), b.variance()) &&
         same_double(a.min(), b.min()) && same_double(a.max(), b.max());
}

// Equality after service::normalize_throughput: everything inside the
// determinism contract.
bool same_set(pp::TrialSet a, pp::TrialSet b) {
  pp::service::normalize_throughput(&a);
  pp::service::normalize_throughput(&b);
  const pp::AggregateStats& x = a.stats;
  const pp::AggregateStats& y = b.stats;
  return a.master_seed == b.master_seed && same_records(a.records, b.records) &&
         pp::obs::CounterBlock::deterministic_equal(a.counters, b.counters) &&
         x.trials == y.trials && x.timeouts == y.timeouts &&
         x.invalid == y.invalid && x.fault_events == y.fault_events &&
         same_stat(x.parallel_time, y.parallel_time) &&
         same_stat(x.interactions, y.interactions) &&
         same_stat(x.productive_steps, y.productive_steps);
}

u64 failed_trials(const BenchSpec& b, const pp::TrialSet& set) {
  u64 failed = 0;
  for (const pp::TrialRecord& r : set.records) {
    // Run-to-silence specs must end silent with a valid ranking; a
    // budget-capped spec completes by exhausting its budget, but must
    // never go silent in an invalid configuration.
    const bool ok = b.budget_parallel_time > 0 ? (!r.silent || r.valid)
                                                : (r.silent && r.valid);
    if (!ok) ++failed;
  }
  return failed;
}

u64 round_seed(u64 seed, u64 round) {
  return pp::derive_seed(seed, "perfbench-round", round);
}

class Bench {
 public:
  Bench(Args args, std::vector<BenchSpec> specs)
      : a_(std::move(args)), specs_(std::move(specs)) {}

  int run();

 private:
  void setup();
  std::vector<SetResult> run_round(u64 round, u64 master_seed,
                                   bool warm_up = false);
  void replay();
  void service_pass();
  void check(const std::string& name, bool ok);
  std::string raw_json() const;

  Args a_;
  std::vector<BenchSpec> specs_;
  u64 threads_ = 0;
  std::unique_ptr<pp::ThreadPool> pool_;
  std::vector<double> setup_s_;
  std::vector<double> scheduler_build_ms_;  // per spec, last set-up
  std::vector<SetResult> timed_;
  u64 rounds_ = 0;
  double timed_wall_s_ = 0;
  std::vector<std::pair<std::string, bool>> checks_;

  // --trace 1 only.
  SpanRecorder rec_;
  std::vector<Span> main_spans_;
  double replay_round0_wall_s_ = 0;
  double pool_pass_wall_s_ = 0;
  // The part of the pool pass spent on specs the service can serve; the
  // cold and warm passes stay 0 on a workload without one.
  double pool_served_wall_s_ = 0;
  double cold_pass_wall_s_ = 0;
  double warm_pass_wall_s_ = 0;
  u64 warm_hits_ = 0;
  u64 warm_chunks_ = 0;
  std::vector<u64> chunk_bytes_;
  // Round 0 of the replay, per spec: records and per-trial counters.
  std::vector<std::vector<pp::TrialRecord>> round0_records_;
  std::vector<std::vector<pp::obs::CounterBlock>> round0_blocks_;
};

void Bench::check(const std::string& name, bool ok) {
  if (!ok) std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
  for (auto& [n, v] : checks_) {
    if (n == name) {
      v = v && ok;
      return;
    }
  }
  checks_.emplace_back(name, ok);
}

std::string cache_dir_for(const std::string& out, const std::string& tag) {
  return out + "/cache-" + tag;
}

void Bench::setup() {
  scheduler_build_ms_.assign(specs_.size(), 0.0);
  for (u64 rep = 0; rep < kSetupReps; ++rep) {
    pool_.reset();  // joined outside the timed region
    const double t0 = perfbench::now_us();
    pool_ = std::make_unique<pp::ThreadPool>(threads_);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const pp::TrialSpec& s = specs_[i].spec;
      if (s.engine != pp::EngineKind::kScheduled) continue;
      const double s0 = perfbench::now_us();
      const pp::SchedulerPtr sched = pp::make_scheduler(s.scheduler, s.n);
      scheduler_build_ms_[i] = (perfbench::now_us() - s0) / 1e3;
    }
    setup_s_.push_back((perfbench::now_us() - t0) / 1e6);
  }
}

std::vector<SetResult> Bench::run_round(u64 round, u64 master_seed,
                                       bool warm_up) {
  // The sharded sweep runs every point cold on an empty cache, then every
  // point again on the warm cache.
  const bool sharded = a_.path == "sharded";
  const std::vector<const char*> passes =
      sharded ? std::vector<const char*>{"cold", "warm"}
              : std::vector<const char*>{"pool"};
  pp::service::ServiceOptions sopt;
  sopt.cache_dir = cache_dir_for(a_.out, "r" + std::to_string(round));
  sopt.workers = 0;
  fs::remove_all(sopt.cache_dir);
  pp::RunnerOptions opt;
  opt.master_seed = master_seed;
  std::vector<SetResult> out;
  for (const char* pass : passes) {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      opt.trials = warm_up ? threads_ : specs_[i].trials;
      SetResult r;
      r.spec = static_cast<int>(i);
      r.round = round;
      r.pass = pass;
      const double c0 = cpu_seconds();
      const double t0 = perfbench::now_us();
      r.set = sharded ? pp::service::run_trials_sharded(specs_[i].spec, opt,
                                                        sopt, &r.report)
                      : pp::run_trials(specs_[i].spec, opt, *pool_);
      r.wall_s = (perfbench::now_us() - t0) / 1e6;
      r.cpu_s = cpu_seconds() - c0;
      out.push_back(std::move(r));
    }
  }
  if (!sharded) return out;
  fs::remove_all(sopt.cache_dir);
  const std::size_t k = specs_.size();
  for (std::size_t i = 0; i < k; ++i) {
    const SetResult& cold = out[i];
    const SetResult& warm = out[k + i];
    check("warm_pass_all_hits",
          warm.report.cache_hits == warm.report.chunks &&
              warm.report.chunks > 0);
    check("warm_equals_cold", same_set(cold.set, warm.set));
  }
  return out;
}

// Rebuilds every timed trial the way run_trials does, with spans around
// each library call, on the same pool.
void Bench::replay() {
  const std::size_t k = specs_.size();
  round0_records_.assign(k, {});
  round0_blocks_.assign(k, {});
  ScopedSpan root(rec_, main_spans_, "bench.replay", 0);
  for (const SetResult& timed : timed_) {
    if (timed.pass == "warm") continue;
    const BenchSpec& b = specs_[static_cast<std::size_t>(timed.spec)];
    const pp::TrialSpec& spec = b.spec;
    const int si = timed.spec;
    const u64 trials = b.trials;
    std::vector<std::vector<Span>> spans(trials);
    std::vector<pp::TrialRecord> records(trials);
    std::vector<pp::obs::CounterBlock> blocks(trials);
    const double t0 = perfbench::now_us();
    {
      ScopedSpan set_span(rec_, main_spans_, "runner.run_trials", root.id(),
                          si);
      const pp::SeedStream seeds(timed.set.master_seed, spec.label);
      pp::SchedulerPtr shared;
      if (spec.engine == pp::EngineKind::kScheduled) {
        pp::ProtocolPtr probe;
        {
          ScopedSpan s(rec_, main_spans_, "protocols.make_protocol",
                       set_span.id(), si);
          probe = pp::make_protocol(spec.protocol, spec.n);
        }
        ScopedSpan s(rec_, main_spans_, "schedulers.make_scheduler",
                     set_span.id(), si);
        shared = pp::make_scheduler(spec.scheduler, probe->num_agents());
      }
      const u64 set_id = set_span.id();
      pool_->parallel_for(trials, [&](u64 t) {
        std::vector<Span>& sink = spans[t];
        const auto ti = static_cast<std::int64_t>(t);
        ScopedSpan trial(rec_, sink, "runner.trial", set_id, si, ti);
        pp::obs::ScopedCounters counters(&blocks[t]);
        pp::Rng rng(seeds.trial_seed(t));
        pp::ProtocolPtr p;
        {
          ScopedSpan s(rec_, sink, "protocols.make_protocol", trial.id(), si,
                       ti);
          p = pp::make_protocol(spec.protocol, spec.n);
        }
        {
          pp::Configuration c;
          {
            ScopedSpan s(rec_, sink, "core.initial", trial.id(), si, ti);
            c = spec.init ? spec.init(*p, rng)
                          : pp::initial::uniform_random(*p, rng);
          }
          ScopedSpan s(rec_, sink, "core.reset", trial.id(), si, ti);
          p->reset(c);
        }
        pp::RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        pp::RunResult res;
        if (shared) {
          ScopedSpan s(rec_, sink, "schedulers.run", trial.id(), si, ti);
          res = shared->run(*p, rng, ro);
        } else {
          ScopedSpan s(rec_, sink, "core.run_accelerated", trial.id(), si,
                       ti);
          res = pp::run_accelerated(*p, rng, ro);
        }
        pp::TrialRecord& r = records[t];
        r.trial = t;
        r.seed = seeds.trial_seed(t);
        r.interactions = res.interactions;
        r.productive_steps = res.productive_steps;
        r.fault_events = res.fault_events;
        r.parallel_time = res.parallel_time;
        r.silent = res.silent;
        r.valid = res.valid;
      });
    }
    if (timed.round == 0) {
      replay_round0_wall_s_ += (perfbench::now_us() - t0) / 1e6;
    }
    for (std::vector<Span>& s : spans) rec_.absorb(s);
    pp::obs::CounterBlock merged;
    for (const pp::obs::CounterBlock& blk : blocks) merged.merge(blk);
    check("traced_records_equal_untraced",
          same_records(records, timed.set.records));
    check("traced_counters_equal_untraced",
          pp::obs::CounterBlock::deterministic_equal(merged,
                                                     timed.set.counters));
    if (timed.round == 0) {
      round0_records_[static_cast<std::size_t>(si)] = std::move(records);
      round0_blocks_[static_cast<std::size_t>(si)] = std::move(blocks);
    }
  }
}

// Round 0's specs through run_trials, the sharded service (cold, warm) and
// direct chunk store/load of the replayed ranges.  The service passes skip
// specs it cannot serialise (k-distant starts): it would only hand them to
// the plain runner in process.
void Bench::service_pass() {
  const u64 seed0 = round_seed(a_.seed, 0);
  pp::RunnerOptions opt;
  opt.master_seed = seed0;
  const std::size_t k = specs_.size();
  std::vector<bool> served(k);
  bool any_served = false;
  for (std::size_t i = 0; i < k; ++i) {
    served[i] = pp::obs::spec_is_replayable(specs_[i].spec);
    any_served = any_served || served[i];
  }
  std::vector<pp::TrialSet> pool_sets(k);
  {
    ScopedSpan pass(rec_, main_spans_, "bench.pool_pass", 0);
    const double t0 = perfbench::now_us();
    for (std::size_t i = 0; i < k; ++i) {
      opt.trials = specs_[i].trials;
      ScopedSpan s(rec_, main_spans_, "runner.run_trials", pass.id(),
                   static_cast<int>(i));
      const double s0 = perfbench::now_us();
      pool_sets[i] = pp::run_trials(specs_[i].spec, opt, *pool_);
      if (served[i]) pool_served_wall_s_ += (perfbench::now_us() - s0) / 1e6;
    }
    pool_pass_wall_s_ = (perfbench::now_us() - t0) / 1e6;
  }

  const std::string cache = cache_dir_for(a_.out, "service");
  fs::remove_all(cache);
  pp::service::ServiceOptions sopt;
  sopt.cache_dir = cache;
  sopt.workers = 0;
  for (const char* pass_name : {"service.cold_pass", "service.warm_pass"}) {
    if (!any_served) break;
    const bool warm = std::string(pass_name) == "service.warm_pass";
    ScopedSpan pass(rec_, main_spans_, pass_name, 0);
    const double t0 = perfbench::now_us();
    for (std::size_t i = 0; i < k; ++i) {
      if (!served[i]) continue;
      opt.trials = specs_[i].trials;
      pp::service::ServiceReport rep;
      pp::TrialSet set;
      {
        ScopedSpan s(rec_, main_spans_, "service.run_trials_sharded",
                     pass.id(), static_cast<int>(i));
        set = pp::service::run_trials_sharded(specs_[i].spec, opt, sopt, &rep);
      }
      check("sharded_equals_run_trials", same_set(set, pool_sets[i]));
      check("service_served_spec", !rep.fallback_in_process && rep.chunks > 0);
      if (warm) {
        warm_hits_ += rep.cache_hits;
        warm_chunks_ += rep.chunks;
        check("warm_pass_all_hits", rep.cache_hits == rep.chunks);
      }
    }
    (warm ? warm_pass_wall_s_ : cold_pass_wall_s_) =
        (perfbench::now_us() - t0) / 1e6;
  }
  fs::remove_all(cache);

  // The cache's write and read side on this workload's own records.
  const std::string dir = cache_dir_for(a_.out, "chunks");
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScopedSpan pass(rec_, main_spans_, "bench.chunk_io", 0);
  for (std::size_t i = 0; i < k; ++i) {
    const int si = static_cast<int>(i);
    const u64 trials = specs_[i].trials;
    const std::vector<pp::service::ChunkSpec> chunks =
        pp::service::chunk_ranges(trials,
                                  pp::service::default_chunk_trials(trials));
    for (const pp::service::ChunkSpec& c : chunks) {
      pp::TrialRange range;
      range.begin = c.begin;
      range.end = c.end;
      for (u64 t = c.begin; t < c.end; ++t) {
        range.records.push_back(round0_records_[i][t]);
        range.counters.merge(round0_blocks_[i][t]);
      }
      const std::string key =
          pp::service::chunk_key_material(specs_[i].spec, seed0, c);
      chunk_bytes_.push_back(
          pp::service::serialize_chunk(key, c, range).size());
      std::string stored;
      {
        ScopedSpan s(rec_, main_spans_, "service.store_chunk", pass.id(), si);
        stored = pp::service::store_chunk(dir, key, c, range);
      }
      pp::service::ChunkLoad load;
      {
        ScopedSpan s(rec_, main_spans_, "service.load_chunk", pass.id(), si);
        load = pp::service::load_chunk(dir, key, c);
      }
      check("chunk_round_trip",
            !stored.empty() && load.status == pp::service::CacheProbe::kHit &&
                same_records(load.range.records, range.records) &&
                pp::obs::CounterBlock::deterministic_equal(
                    load.range.counters, range.counters));
    }
  }
  fs::remove_all(dir);
}

int Bench::run() {
  const pp::obs::BuildInfo bi = pp::obs::build_info();
  if (std::string(bi.build_type) != "Release" ||
      std::string(bi.sanitize) != "none" || !bi.obs_enabled) {
    std::fprintf(stderr,
                 "perfbench: refusing a timed run on build_type=%s "
                 "sanitize=%s obs=%d (need Release, none, 1)\n",
                 bi.build_type, bi.sanitize, bi.obs_enabled ? 1 : 0);
    return 3;
  }
  threads_ = pp::ThreadPool::resolve_threads(0);
  fs::create_directories(a_.out);

  setup();

  // Untimed warm-up: page in the code and the allocator's arenas.
  run_round(~static_cast<u64>(0),
            pp::derive_seed(a_.seed, "perfbench-warmup", 0), true);

  const double start = perfbench::now_us();
  for (u64 r = 0;; ++r) {
    if (r > 0 && (perfbench::now_us() - start) / 1e6 >= a_.seconds) break;
    std::vector<SetResult> round = run_round(r, round_seed(a_.seed, r));
    for (SetResult& s : round) timed_.push_back(std::move(s));
    rounds_ = r + 1;
  }
  timed_wall_s_ = (perfbench::now_us() - start) / 1e6;

  if (a_.path == "sharded") {
    // The sharded results must also equal plain run_trials (round 0).
    pp::RunnerOptions opt;
    opt.master_seed = round_seed(a_.seed, 0);
    for (const SetResult& s : timed_) {
      if (s.round != 0 || s.pass != "cold") continue;
      opt.trials = specs_[static_cast<std::size_t>(s.spec)].trials;
      check("sharded_equals_run_trials",
            same_set(s.set,
                     pp::run_trials(specs_[static_cast<std::size_t>(s.spec)]
                                        .spec,
                                    opt, *pool_)));
    }
  }

  if (a_.trace) {
    replay();
    service_pass();
    std::vector<std::string> labels;
    for (const BenchSpec& b : specs_) labels.push_back(b.label);
    rec_.absorb(main_spans_);
    if (!rec_.write_chrome_trace(a_.out + "/trace.json", a_.workload,
                                 labels)) {
      std::fprintf(stderr, "perfbench: cannot write %s/trace.json\n",
                   a_.out.c_str());
      return 2;
    }
  }

  std::ofstream raw(a_.out + "/raw.json");
  raw << raw_json();
  if (!raw) {
    std::fprintf(stderr, "perfbench: cannot write %s/raw.json\n",
                 a_.out.c_str());
    return 2;
  }
  return 0;
}

// --- raw.json --------------------------------------------------------------

void put_num(std::string& o, const char* key, double v, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g%s", key, v, comma ? "," : "");
  o += buf;
}

// Sequential appends: GCC 12 reports a false -Wrestrict on chained
// operator+ over std::string temporaries.
void put_u64(std::string& o, const char* key, u64 v, bool comma = true) {
  o += '"';
  o += key;
  o += "\":";
  o += std::to_string(v);
  if (comma) o += ',';
}

void put_str(std::string& o, const char* key, const std::string& v,
             bool comma = true) {
  o += '"';
  o += key;
  o += "\":\"";
  o += v;
  o += '"';
  if (comma) o += ',';
}

std::string Bench::raw_json() const {
  const pp::obs::BuildInfo bi = pp::obs::build_info();
  std::string o = "{";
  put_str(o, "workload", a_.workload);
  put_u64(o, "seed", a_.seed);
  put_u64(o, "trace", a_.trace ? 1 : 0);
  put_u64(o, "threads", threads_);
  put_u64(o, "nproc", static_cast<u64>(sysconf(_SC_NPROCESSORS_ONLN)));
  o += "\"build\":{";
  put_str(o, "git_sha", bi.git_sha);
  put_str(o, "build_type", bi.build_type);
  put_str(o, "sanitize", bi.sanitize);
  o += "\"obs\":";
  o += bi.obs_enabled ? "true}," : "false},";

  o += "\"specs\":[";
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const BenchSpec& b = specs_[i];
    o += i == 0 ? "{" : ",{";
    put_str(o, "label", b.label);
    put_str(o, "protocol", b.spec.protocol);
    put_u64(o, "n", b.spec.n);
    put_str(o, "init", b.init);
    put_str(o, "scheduler", b.scheduler);
    put_num(o, "budget_parallel_time", b.budget_parallel_time);
    put_num(o, "scheduler_build_ms", scheduler_build_ms_[i]);
    put_u64(o, "trials", b.trials, false);
    o += "}";
  }
  o += "],\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s_.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", setup_s_[i]);
    o += buf;
  }
  o += "],";
  put_num(o, "peak_rss_kb", static_cast<double>(peak_rss_kb()));
  put_u64(o, "rounds", rounds_);
  put_num(o, "timed_wall_s", timed_wall_s_);

  o += "\"sets\":[";
  for (std::size_t i = 0; i < timed_.size(); ++i) {
    const SetResult& s = timed_[i];
    const BenchSpec& b = specs_[static_cast<std::size_t>(s.spec)];
    u64 events = 0;
    u64 interactions = 0;
    u64 faults = 0;
    for (const pp::TrialRecord& r : s.set.records) {
      events += r.productive_steps;
      interactions += r.interactions;
      faults += r.fault_events;
    }
    o += i == 0 ? "{" : ",{";
    put_u64(o, "spec", static_cast<u64>(s.spec));
    put_u64(o, "round", s.round);
    put_str(o, "pass", s.pass);
    put_u64(o, "master_seed", s.set.master_seed);
    put_u64(o, "trials", s.set.stats.trials);
    put_u64(o, "failed", failed_trials(b, s.set));
    put_num(o, "wall_s", s.wall_s);
    put_num(o, "cpu_s", s.cpu_s);
    put_num(o, "pt_mean", s.set.stats.parallel_time.mean());
    put_num(o, "pt_var", s.set.stats.parallel_time.variance());
    put_num(o, "ev_mean", s.set.stats.productive_steps.mean());
    put_num(o, "ev_var", s.set.stats.productive_steps.variance());
    put_u64(o, "events", events);
    put_u64(o, "interactions", interactions);
    put_u64(o, "faults", faults);
    put_u64(o, "cache_hits", s.report.cache_hits);
    put_u64(o, "cache_misses", s.report.cache_misses);
    put_u64(o, "chunks", s.report.chunks);
    o += "\"counters\":";
    o += s.set.counters.to_json();
    o += '}';
  }
  o += "],\"checks\":{";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    o += i == 0 ? "\"" : ",\"";
    o += checks_[i].first;
    o += checks_[i].second ? "\":true" : "\":false";
  }
  o += "}";
  if (a_.trace) {
    o += ",\"trace\":{";
    put_num(o, "replay_round0_wall_s", replay_round0_wall_s_);
    put_num(o, "pool_pass_wall_s", pool_pass_wall_s_);
    put_num(o, "pool_served_wall_s", pool_served_wall_s_);
    put_num(o, "cold_pass_wall_s", cold_pass_wall_s_);
    put_num(o, "warm_pass_wall_s", warm_pass_wall_s_);
    put_u64(o, "warm_hits", warm_hits_);
    put_u64(o, "warm_chunks", warm_chunks_);
    o += "\"chunk_bytes\":[";
    for (std::size_t i = 0; i < chunk_bytes_.size(); ++i) {
      if (i > 0) o += ',';
      o += std::to_string(chunk_bytes_[i]);
    }
    o += "]}";
  }
  o += "}\n";
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  std::vector<BenchSpec> specs = load_specs(args.specs_path);
  Bench bench(std::move(args), std::move(specs));
  return bench.run();
}
