// poprank_cli — run any protocol / start / size combination from the shell.
//
//   $ ./poprank_cli --protocol=tree-ranking --n=4096 --trials=10
//   $ ./poprank_cli --protocol=ring-of-traps --start=k-distant:4 --timeline
//   $ ./poprank_cli --list
//
// Flags:
//   --protocol=NAME   ag | ring-of-traps | line-of-traps | tree-ranking
//   --n=N             population size (snapped to a supported size)
//   --start=KIND      uniform | uniform-ranks | valid | all-in:S |
//                     k-distant:K        (default uniform)
//   --trials=T        number of independent runs (default 5)
//   --seed=S          root seed (default fixed; printed)
//   --budget=B        max interactions per run (default unlimited)
//   --timeline        print the convergence timeline of the first trial
//   --list            list protocols and exit
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "analysis/timeline.hpp"
#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"

namespace {

struct Args {
  std::string protocol = "tree-ranking";
  pp::u64 n = 1024;
  std::string start = "uniform";
  pp::u64 trials = 5;
  pp::u64 seed = pp::kDefaultRootSeed;
  pp::u64 budget = ~static_cast<pp::u64>(0);
  bool timeline = false;
  bool list = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return s.rfind(prefix, 0) == 0 ? s.c_str() + len : nullptr;
    };
    if (const char* v = val("--protocol=")) {
      a.protocol = v;
    } else if (const char* v = val("--n=")) {
      a.n = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--start=")) {
      a.start = v;
    } else if (const char* v = val("--trials=")) {
      a.trials = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed=")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--budget=")) {
      a.budget = std::strtoull(v, nullptr, 10);
    } else if (s == "--timeline") {
      a.timeline = true;
    } else if (s == "--list") {
      a.list = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
      return false;
    }
  }
  return true;
}

// Builds the --start generator for protocol `p`.  A spec the protocol
// cannot start from gets an empty generator and a one-line `error`, so the
// CLI rejects it here instead of aborting inside a trial.
pp::ConfigGenerator make_generator(const std::string& spec,
                                   const pp::Protocol& p, std::string& error) {
  if (spec == "uniform") return pp::gen_uniform_random();
  if (spec == "uniform-ranks") return pp::gen_uniform_random_ranks();
  if (spec == "valid") {
    return [](const pp::Protocol& q, pp::Rng&) {
      return pp::initial::valid_ranking(q);
    };
  }
  if (spec.rfind("all-in:", 0) == 0) {
    const pp::u64 s = std::strtoull(spec.c_str() + 7, nullptr, 10);
    if (s >= p.num_states()) {
      error = "--start=" + spec + ": state must be below " +
              std::to_string(p.num_states()) + " (the protocol's states)";
      return {};
    }
    return pp::gen_all_in_state(static_cast<pp::StateId>(s));
  }
  if (spec.rfind("k-distant:", 0) == 0) {
    const pp::u64 k = std::strtoull(spec.c_str() + 10, nullptr, 10);
    if (k >= p.num_ranks()) {
      error = "--start=" + spec + ": k must be below " +
              std::to_string(p.num_ranks()) + " (the protocol's ranks)";
      return {};
    }
    return pp::gen_k_distant(k);
  }
  error = "unknown --start=" + spec;
  return {};
}

// Builds the protocol for the validated arguments, then runs the trials
// and prints their summary.
int simulate(const Args& args, pp::u64 n) {
  const pp::ProtocolPtr protocol = pp::make_protocol(args.protocol, n);
  std::string error;
  const pp::ConfigGenerator gen = make_generator(args.start, *protocol, error);
  if (!gen) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  std::printf("protocol %s | n = %llu | start %s | %llu trials | seed %llu\n",
              args.protocol.c_str(), static_cast<unsigned long long>(n),
              args.start.c_str(),
              static_cast<unsigned long long>(args.trials),
              static_cast<unsigned long long>(args.seed));

  if (args.timeline) {
    pp::Rng rng(pp::derive_seed(args.seed, "cli-timeline"));
    protocol->reset(gen(*protocol, rng));
    pp::Timeline tl;
    pp::RunOptions opt;
    opt.max_interactions = args.budget;
    opt.on_change = tl.observer();
    const pp::RunResult r = pp::run_accelerated(*protocol, rng, opt);
    tl.finish(*protocol, r);
    pp::Table table = tl.to_table("convergence timeline (trial 0)");
    std::fputs(table.to_string().c_str(), stdout);
    std::printf("\n");
  }

  pp::TrialSpec spec;
  spec.protocol = args.protocol;
  spec.n = n;
  spec.init = gen;
  spec.max_interactions = args.budget;
  spec.label = "cli-" + args.protocol + "-" + args.start;
  pp::RunnerOptions opt;
  opt.trials = args.trials;
  opt.master_seed = args.seed;
  const pp::TrialSet set = pp::run_trials(spec, opt);
  const pp::Summary s = set.summary();
  std::printf("parallel time: %s\n", s.to_string().c_str());
  if (set.stats.timeouts > 0) {
    std::printf("timeouts     : %llu of %llu trials hit the budget\n",
                static_cast<unsigned long long>(set.stats.timeouts),
                static_cast<unsigned long long>(args.trials));
  }
  if (set.stats.invalid > 0) {
    std::printf("INVALID      : %llu trials (this is a bug)\n",
                static_cast<unsigned long long>(set.stats.invalid));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;
  if (args.list) {
    for (const auto name : pp::protocol_names()) {
      const pp::ProtocolPtr p =
          pp::make_protocol(name, pp::preferred_population(name, 256));
      std::printf("%-16s min n = %-4llu extra states at n=256: %llu\n",
                  std::string(name).c_str(),
                  static_cast<unsigned long long>(pp::min_population(name)),
                  static_cast<unsigned long long>(p->num_extra_states()));
    }
    return 0;
  }

  if (args.trials == 0) {
    std::fprintf(stderr, "--trials must be at least 1\n");
    return 2;
  }
  const auto names = pp::protocol_names();
  if (std::find(names.begin(), names.end(), args.protocol) == names.end()) {
    std::fprintf(stderr, "unknown --protocol=%s (see --list)\n",
                 args.protocol.c_str());
    return 2;
  }
  // Reject before snapping: a line-of-traps snap walks canonical sizes up
  // to n, and the snap itself may land past the limit.
  const pp::u64 n = args.n > pp::Protocol::kMaxAgents
                        ? args.n
                        : pp::preferred_population(args.protocol, args.n);
  if (n > pp::Protocol::kMaxAgents) {
    std::fprintf(stderr, "--n=%llu is past the largest population (%llu)\n",
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(pp::Protocol::kMaxAgents));
    return 2;
  }
  // The shape builders allocate O(n) tables; a size the machine cannot
  // hold is an input error, not a crash.
  try {
    return simulate(args, n);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "not enough memory for %s at --n=%llu\n",
                 args.protocol.c_str(),
                 static_cast<unsigned long long>(args.n));
    return 2;
  }
}
