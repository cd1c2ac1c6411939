#include "runner/bench_log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/table.hpp"
#include "common/file_io.hpp"
#include "rng/seed_sequence.hpp"
#include "runner/sink.hpp"

namespace pp {

BenchLog BenchLog::open(const std::string& dir,
                        const std::string& experiment_id,
                        const RunInfo& info) {
  BenchLog log;
  const std::string path =
      (dir.empty() ? std::string(".") : dir) + "/BENCH_" +
      slugify(experiment_id) + ".json";
  // poprank-lint: allow(R1): run ids are wall-clock-salted by design so two
  // invocations of the same bench never collide; no trial result reads them.
  const u64 now = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(  // poprank-lint: allow(R1)
          std::chrono::system_clock::now().time_since_epoch())  // poprank-lint: allow(R1)
          .count());
  // A process-local counter keeps ids distinct even where system_clock
  // ticks coarser than the gap between two open() calls.
  static std::atomic<u64> open_count{0};
  const u64 nonce = open_count.fetch_add(1, std::memory_order_relaxed);
  const u64 run_id = derive_seed(info.seed ^ now, experiment_id, nonce);

  // Truncate: one file == one run.  Records from a previous invocation
  // must never survive into this run's trajectory.
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) {
    std::fprintf(stderr, "WARNING: cannot write %s; BENCH records dropped\n",
                 path.c_str());
    return log;
  }
  f << "{\"kind\":\"run\",\"experiment\":\"" << json_escape(experiment_id)
    << "\",\"run_id\":" << run_id << ",\"seed\":" << info.seed
    << ",\"threads\":" << info.threads << ",\"max_n\":" << info.max_n
    << ",\"size\":\"" << json_escape(info.size) << "\"}\n";
  log.path_ = path;
  log.run_id_ = run_id;
  log.manifest_ = obs::ManifestWriter::open(path, run_id);
  return log;
}

void BenchLog::append_point(const std::string& point, u64 n, double param,
                            const TrialSet& set,
                            const TrialSpec* spec) const {
  if (!enabled()) return;
  // The record is composed in memory and appended with one O_APPEND
  // write (common/file_io.hpp): concurrent writers — two benches
  // pointed at one CSV dir — can interleave whole records but never
  // bytes within one, so the JSON-lines file stays parseable.  (An
  // ofstream in app mode flushes in unspecified slices and gives no such
  // guarantee.)
  std::ostringstream f;
  char num[40];
  f << "{\"kind\":\"point\",\"run_id\":" << run_id_ << ",\"point\":\""
    << json_escape(point) << "\",\"n\":" << n;
  std::snprintf(num, sizeof(num), "%.6g", param);
  f << ",\"param\":" << num << ",\"trials\":" << set.stats.trials
    << ",\"threads\":" << set.threads;
  std::snprintf(num, sizeof(num), "%.6g", set.wall_seconds);
  f << ",\"wall_seconds\":" << num;
  std::snprintf(num, sizeof(num), "%.6g", set.trials_per_sec);
  f << ",\"trials_per_sec\":" << num;
  std::snprintf(num, sizeof(num), "%.17g", set.stats.parallel_time.mean());
  f << ",\"mean_parallel_time\":" << num
    << ",\"timeouts\":" << set.stats.timeouts
    << ",\"invalid\":" << set.stats.invalid
    << ",\"total_interactions\":" << set.stats.total_interactions
    << ",\"total_productive_steps\":" << set.stats.total_productive_steps;
  // Counters ride along only when something was recorded, so BENCH records
  // from a POPRANK_OBS=OFF build (and the committed regression baselines)
  // keep their exact pre-obs schema.
  if (!set.counters.deterministic_empty()) {
    f << ",\"counters\":" << set.counters.to_json();
  }
  f << "}";
  append_line(path_, f.str());  // silently dropped if the path went bad
  if (spec != nullptr) manifest_.append_point(*spec, set, n, param);
}

}  // namespace pp
