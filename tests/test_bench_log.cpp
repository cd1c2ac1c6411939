// The BENCH_*.json perf-trajectory log: one file == one run.
//
// Regression for a real footgun: records used to be appended across bench
// invocations, so re-running a bench silently mixed stale points from the
// previous run into the trajectory file.  BenchLog::open truncates and
// stamps a per-run id; these tests prove both halves of the fix.
#include "runner/bench_log.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pp {
namespace {

std::vector<std::string> lines_of(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TrialSet tiny_set(double t) {
  TrialSet set;
  TrialRecord r;
  r.silent = true;
  r.valid = true;
  r.parallel_time = t;
  r.interactions = 100;
  r.productive_steps = 10;
  set.records.push_back(r);
  set.stats.fold(r);
  set.threads = 1;
  return set;
}

TEST(BenchLog, WritesRunHeaderThenPoints) {
  const std::string dir = ::testing::TempDir();
  BenchLog::RunInfo info;
  info.seed = 7;
  info.threads = 2;
  info.max_n = 4096;
  info.size = "quick";
  const BenchLog log = BenchLog::open(dir, "T1: bench log test", info);
  ASSERT_TRUE(log.enabled());
  EXPECT_NE(log.path().find("BENCH_t1-bench-log-test.json"),
            std::string::npos);

  log.append_point("point-a", 16, 0.5, tiny_set(1.25));
  log.append_point("point-b", 32, 0.0, tiny_set(2.5));

  const auto lines = lines_of(log.path());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"kind\":\"run\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seed\":7"), std::string::npos);
  // The regression gate keys its missing-point logic off this field.
  EXPECT_NE(lines[0].find("\"max_n\":4096"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"point\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"point\":\"point-a\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"point\":\"point-b\""), std::string::npos);
  // Every line carries this run's id.
  const std::string id = "\"run_id\":" + std::to_string(log.run_id());
  for (const auto& line : lines) {
    EXPECT_NE(line.find(id), std::string::npos) << line;
  }
}

TEST(BenchLog, PointsCarryExactSums) {
  const std::string dir = ::testing::TempDir();
  const BenchLog log = BenchLog::open(dir, "T1b: bench log sums", {});
  ASSERT_TRUE(log.enabled());
  TrialSet set = tiny_set(1.0);
  TrialRecord big;
  big.interactions = u64{1} << 62;
  big.productive_steps = 3;
  set.stats.fold(big);
  log.append_point("point-a", 16, 0.0, set);
  const auto lines = lines_of(log.path());
  ASSERT_EQ(lines.size(), 2u);
  // Exact integers, not %g-rounded doubles: 100 + 2^62.
  EXPECT_NE(lines[1].find("\"total_interactions\":4611686018427388004"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"total_productive_steps\":13"),
            std::string::npos)
      << lines[1];
}

TEST(AggregateStatsDeathTest, SumOverflowAborts) {
  AggregateStats stats;
  TrialRecord r;
  r.interactions = u64{1} << 63;
  stats.fold(r);
  EXPECT_DEATH(stats.fold(r), "sum overflows");
}

TEST(BenchLog, ReopeningTruncatesStalePoints) {
  const std::string dir = ::testing::TempDir();
  BenchLog::RunInfo info;
  info.seed = 1;
  info.threads = 1;
  info.size = "standard";

  const BenchLog first = BenchLog::open(dir, "T2: rerun", info);
  ASSERT_TRUE(first.enabled());
  first.append_point("stale-1", 8, 0, tiny_set(1));
  first.append_point("stale-2", 16, 0, tiny_set(2));
  ASSERT_EQ(lines_of(first.path()).size(), 3u);

  // Re-running the same bench must start the file over: no stale points.
  const BenchLog second = BenchLog::open(dir, "T2: rerun", info);
  ASSERT_TRUE(second.enabled());
  EXPECT_EQ(second.path(), first.path()) << "same experiment, same file";
  auto lines = lines_of(second.path());
  ASSERT_EQ(lines.size(), 1u) << "only the fresh run header survives";
  EXPECT_NE(lines[0].find("\"kind\":\"run\""), std::string::npos);

  second.append_point("fresh", 8, 0, tiny_set(3));
  lines = lines_of(second.path());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("stale"), std::string::npos);
  EXPECT_EQ(lines[1].find("stale"), std::string::npos);
  EXPECT_NE(lines[1].find("\"point\":\"fresh\""), std::string::npos);
}

TEST(BenchLog, RunIdsDifferAcrossRuns) {
  const std::string dir = ::testing::TempDir();
  BenchLog::RunInfo info;
  info.seed = 5;
  info.threads = 1;
  info.size = "quick";
  const BenchLog a = BenchLog::open(dir, "T3: run ids", info);
  const BenchLog b = BenchLog::open(dir, "T3: run ids", info);
  EXPECT_NE(a.run_id(), b.run_id())
      << "identical settings must still produce distinct run ids";
}

TEST(BenchLog, DisabledLogSwallowsWrites) {
  BenchLog log;  // default-constructed: disabled
  EXPECT_FALSE(log.enabled());
  log.append_point("nowhere", 8, 0, tiny_set(1));  // must not crash

  // An unwritable directory degrades to a disabled log, not an abort.
  const BenchLog broken =
      BenchLog::open("/nonexistent-dir-for-bench-log-test", "T4: broken",
                     BenchLog::RunInfo{});
  EXPECT_FALSE(broken.enabled());
  broken.append_point("nowhere", 8, 0, tiny_set(1));
}

}  // namespace
}  // namespace pp
