// Scheduler tour — one protocol, every interaction model in the standard
// menu (uniform flavours, random matching, weighted kernels, churn,
// partition, the graph-restricted topologies and the dynamic graphs).
//
// Runs the chosen protocol from the same random starting configuration
// seed under each scheduler and prints what the model does to
// stabilisation.  The interesting contrasts: every complete-mixing model
// ranks the population — churn and partition merely pay a premium for the
// fault storm / split phases, the spatial weighted[ring-decay] kernel for
// its distance-decaying meeting rates — while sparse graph-restricted
// topologies (cycle, random regular) usually strand it: two agents left
// in the same state interact only if they happen to be adjacent, and near
// the end of a ranking they rarely are.  The dynamic[cycle/...] rows then
// close the argument: the same sparse cycle with edge-Markovian churn or
// periodic rewiring stabilises every run — ranking needs mixing, not
// density.  The adversarial schedulers are a small-n analysis tool; see
// bench_adversarial.
//
//   $ ./scheduler_tour [protocol] [n] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "schedulers/scheduler.hpp"

int main(int argc, char** argv) {
  const std::string proto = argc > 1 ? argv[1] : "ag";
  const pp::u64 raw_n = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;
  const pp::u64 seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2025;
  const pp::u64 n = pp::preferred_population(proto, raw_n);

  const std::vector<pp::SchedulerSpec> specs = pp::standard_scheduler_menu();

  std::printf("protocol %s, n = %llu, seed %llu\n\n", proto.c_str(),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(seed));
  std::printf("%-36s %10s %14s %14s %8s %6s\n", "scheduler", "time",
              "interactions", "productive", "silent", "valid");

  for (const auto& spec : specs) {
    pp::ProtocolPtr p = pp::make_protocol(proto, n);
    pp::Rng rng(seed);
    p->reset(pp::initial::uniform_random(*p, rng));

    const pp::SchedulerPtr scheduler = pp::make_scheduler(spec, n);
    pp::RunOptions opt;
    opt.max_interactions = 20 * n * n * n;  // strand-proof budget
    const pp::RunResult r = scheduler->run(*p, rng, opt);

    std::printf("%-36s %10.1f %14llu %14llu %8s %6s\n",
                std::string(scheduler->name()).c_str(), r.parallel_time,
                static_cast<unsigned long long>(r.interactions),
                static_cast<unsigned long long>(r.productive_steps),
                r.silent ? "yes" : "no", r.valid ? "yes" : "no");
  }
  std::printf(
      "\nparallel time: interactions/n, except random-matching (rounds).\n"
      "silent=no under a sparse graph means the run got locally stuck —\n"
      "the protocol's progress needs meetings the topology never offers.\n"
      "the dynamic[cycle/...] rows are the same cycle with edge-Markovian\n"
      "churn / periodic rewiring: local stuckness passes, silence is "
      "reached.\n");
  return 0;
}
