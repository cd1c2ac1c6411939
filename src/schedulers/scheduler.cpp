#include "schedulers/scheduler.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "schedulers/adversarial.hpp"
#include "schedulers/churn.hpp"
#include "schedulers/dynamic_graph.hpp"
#include "schedulers/graph_restricted.hpp"
#include "schedulers/partition.hpp"
#include "schedulers/random_matching.hpp"
#include "schedulers/uniform.hpp"
#include "schedulers/weighted.hpp"

namespace pp {

const char* scheduler_kind_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kUniform:
      return "uniform";
    case SchedulerKind::kAcceleratedUniform:
      return "accelerated-uniform";
    case SchedulerKind::kRandomMatching:
      return "random-matching";
    case SchedulerKind::kGraphRestricted:
      return "graph-restricted";
    case SchedulerKind::kWeighted:
      return "weighted";
    case SchedulerKind::kDynamicGraph:
      return "dynamic";
    case SchedulerKind::kAdversarial:
      return "adversarial";
    case SchedulerKind::kChurn:
      return "churn";
    case SchedulerKind::kPartition:
      return "partition";
  }
  return "?";
}

std::vector<SchedulerKind> scheduler_kinds() {
  return {SchedulerKind::kAcceleratedUniform, SchedulerKind::kUniform,
          SchedulerKind::kRandomMatching,     SchedulerKind::kGraphRestricted,
          SchedulerKind::kWeighted,           SchedulerKind::kDynamicGraph,
          SchedulerKind::kAdversarial,        SchedulerKind::kChurn,
          SchedulerKind::kPartition};
}

const char* weight_kernel_name(WeightKernel k) {
  switch (k) {
    case WeightKernel::kUniform:
      return "uniform";
    case WeightKernel::kRingDecay:
      return "ring-decay";
    case WeightKernel::kLineDecay:
      return "line-decay";
    case WeightKernel::kTrapDecay:
      return "trap-decay";
  }
  return "?";
}

const char* graph_dynamics_name(GraphDynamics d) {
  switch (d) {
    case GraphDynamics::kEdgeMarkovian:
      return "markov";
    case GraphDynamics::kPeriodicRewire:
      return "rewire";
  }
  return "?";
}

const char* adversary_policy_name(AdversaryPolicy p) {
  switch (p) {
    case AdversaryPolicy::kRandomProductive:
      return "random-productive";
    case AdversaryPolicy::kMaxLoad:
      return "max-load";
    case AdversaryPolicy::kMinRankCoverage:
      return "min-rank-coverage";
    case AdversaryPolicy::kStubborn:
      return "stubborn";
  }
  return "?";
}

std::vector<AdversaryPolicy> adversary_policies() {
  return {AdversaryPolicy::kRandomProductive, AdversaryPolicy::kMaxLoad,
          AdversaryPolicy::kMinRankCoverage, AdversaryPolicy::kStubborn};
}

const char* churn_reset_name(ChurnReset r) {
  switch (r) {
    case ChurnReset::kUniformState:
      return "uniform-state";
    case ChurnReset::kUniformRank:
      return "uniform-rank";
    case ChurnReset::kStateZero:
      return "state-zero";
  }
  return "?";
}

std::vector<SchedulerSpec> standard_scheduler_menu() {
  std::vector<SchedulerSpec> menu;
  SchedulerSpec s;
  s.kind = SchedulerKind::kAcceleratedUniform;
  menu.push_back(s);
  s.kind = SchedulerKind::kUniform;
  menu.push_back(s);
  s.kind = SchedulerKind::kRandomMatching;
  menu.push_back(s);
  s.kind = SchedulerKind::kWeighted;
  s.kernel = WeightKernel::kUniform;  // sanity anchor: must match uniform
  menu.push_back(s);
  s.kernel = WeightKernel::kRingDecay;  // the positional spatial model
  menu.push_back(s);
  s.kernel = WeightKernel::kTrapDecay;  // the state-space spatial model
  menu.push_back(s);
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kChurn;
  menu.push_back(s);
  s.kind = SchedulerKind::kPartition;
  menu.push_back(s);
  s.kind = SchedulerKind::kGraphRestricted;
  s.graph = GraphKind::kComplete;
  menu.push_back(s);
  s.graph = GraphKind::kRandomRegular;
  s.degree = 4;
  menu.push_back(s);
  s.graph = GraphKind::kCycle;
  menu.push_back(s);
  // The headline contrast: the same sparse cycle that strands ranking
  // when static, made dynamic both ways.
  s.kind = SchedulerKind::kDynamicGraph;
  s.dynamics = GraphDynamics::kEdgeMarkovian;
  menu.push_back(s);
  s.dynamics = GraphDynamics::kPeriodicRewire;
  menu.push_back(s);
  return menu;
}

std::vector<SchedulerSpec> all_scheduler_specs() {
  std::vector<SchedulerSpec> specs = standard_scheduler_menu();
  SchedulerSpec s;
  s.kind = SchedulerKind::kAdversarial;
  for (const AdversaryPolicy policy : adversary_policies()) {
    s.adversary = policy;
    specs.push_back(s);
  }
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kChurn;
  for (const ChurnReset reset : {ChurnReset::kUniformRank,
                                 ChurnReset::kStateZero}) {
    s.churn_reset = reset;  // kUniformState is already in the menu
    specs.push_back(s);
  }
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kPartition;
  s.partition_blocks = 3;  // the 2-block default is already in the menu
  specs.push_back(s);
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kWeighted;
  s.kernel = WeightKernel::kLineDecay;  // ring and uniform are in the menu
  specs.push_back(s);
  s.kernel = WeightKernel::kRingDecay;
  s.kernel_power = 2;  // the steep-decay variant
  specs.push_back(s);
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kDynamicGraph;  // cycle variants are in the menu
  s.graph = GraphKind::kRandomRegular;
  s.degree = 4;
  s.dynamics = GraphDynamics::kPeriodicRewire;
  specs.push_back(s);
  s.graph = GraphKind::kComplete;  // starts dense, decays to stationarity
  s.dynamics = GraphDynamics::kEdgeMarkovian;
  specs.push_back(s);
  // The dense Θ(n²) reference paths of the two hierarchically-sampled
  // models: conformance must keep pinning the transparent implementations
  // the cross-validation tests compare the scalable paths against.
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kWeighted;
  s.kernel = WeightKernel::kRingDecay;
  s.dense_reference = true;
  specs.push_back(s);
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kDynamicGraph;
  s.graph = GraphKind::kCycle;
  s.dynamics = GraphDynamics::kEdgeMarkovian;
  s.dense_reference = true;
  specs.push_back(s);
  // The churn copy-and-rebuild fault path: same role — the transparent
  // O(n)-per-fault implementation the move_agent fast path is pinned
  // bit-identical against.
  s = SchedulerSpec{};
  s.kind = SchedulerKind::kChurn;
  s.dense_reference = true;
  specs.push_back(s);
  return specs;
}

namespace {

// The topology part of graph-restricted/dynamic display names, delegated
// to InteractionGraph::describe so spec names and graph-derived scheduler
// names can never drift apart (GraphRestrictedScheduler builds its name
// from the graph's description; sinks and BENCH labels key on the
// equality).
std::string graph_family_name(const SchedulerSpec& s) {
  return InteractionGraph::describe(s.graph, s.degree, s.graph_seed);
}

}  // namespace

std::string SchedulerSpec::to_string() const {
  switch (kind) {
    case SchedulerKind::kGraphRestricted:
      return "graph-restricted[" + graph_family_name(*this) + "]";
    case SchedulerKind::kWeighted: {
      std::string out = std::string("weighted[") + weight_kernel_name(kernel);
      if (kernel_power != 1) {
        out += "^";
        out += std::to_string(kernel_power);
      }
      if (dense_reference) out += "/dense-ref";
      out += "]";
      return out;
    }
    case SchedulerKind::kDynamicGraph: {
      // Like churn below: no commas (the name doubles as a CSV cell), and
      // every knob deviating from its default is encoded so distinct specs
      // never share a display name.
      std::string out = "dynamic[" + graph_family_name(*this) + "/";
      out += graph_dynamics_name(dynamics);
      if (dynamics == GraphDynamics::kEdgeMarkovian) {
        char rate[32];
        if (edge_birth != 0) {
          std::snprintf(rate, sizeof(rate), "/b%g", edge_birth);
          out += rate;
        }
        if (edge_death != 0.01) {
          std::snprintf(rate, sizeof(rate), "/d%g", edge_death);
          out += rate;
        }
      } else if (rewire_period != 0) {
        out += "/T";
        out += std::to_string(rewire_period);
      }
      if (dynamics == GraphDynamics::kEdgeMarkovian && dense_reference) {
        out += "/dense-ref";
      }
      out += "]";
      return out;
    }
    case SchedulerKind::kAdversarial:
      return std::string("adversarial[") + adversary_policy_name(adversary) +
             "]";
    case SchedulerKind::kChurn: {
      // No commas: the name doubles as a CSV cell in the sinks.  Every
      // knob that deviates from its default is encoded, so two distinct
      // specs never share a display name (parameter sweeps rely on it).
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%g", churn_rate);
      std::string out = std::string("churn[") + rate;
      if (churn_faults != 1) {
        out += "x";
        out += std::to_string(churn_faults);
      }
      out += std::string("/") + churn_reset_name(churn_reset);
      if (churn_active != 0) {
        out += "/a";
        out += std::to_string(churn_active);
      }
      if (dense_reference) out += "/dense-ref";
      out += "]";
      return out;
    }
    case SchedulerKind::kPartition: {
      std::string out = "partition[" + std::to_string(partition_blocks) +
                        "-blocks";
      if (partition_split != 0) {
        out += "/s";
        out += std::to_string(partition_split);
      }
      if (partition_heal != 0) {
        out += "/h";
        out += std::to_string(partition_heal);
      }
      if (partition_cycles != 3) {
        out += "/c";
        out += std::to_string(partition_cycles);
      }
      out += "]";
      return out;
    }
    default:
      return scheduler_kind_name(kind);
  }
}

SchedulerPtr make_scheduler(const SchedulerSpec& spec, u64 n) {
  switch (spec.kind) {
    case SchedulerKind::kUniform:
      return std::make_unique<UniformScheduler>();
    case SchedulerKind::kAcceleratedUniform:
      return std::make_unique<AcceleratedUniformScheduler>();
    case SchedulerKind::kRandomMatching:
      return std::make_unique<RandomMatchingScheduler>();
    case SchedulerKind::kGraphRestricted: {
      auto graph = std::make_shared<const InteractionGraph>(
          InteractionGraph::make(spec.graph, n, spec.degree, spec.graph_seed));
      return std::make_unique<GraphRestrictedScheduler>(std::move(graph));
    }
    case SchedulerKind::kWeighted:
      // Pinning n here both precomputes the kernel tables (shared by every
      // trial of a runner sweep) and rejects infeasible populations at
      // construction, where the caller is.
      return std::make_unique<WeightedScheduler>(
          spec.kernel, spec.kernel_power, n, spec.dense_reference);
    case SchedulerKind::kDynamicGraph:
      return std::make_unique<DynamicGraphScheduler>(spec, n);
    case SchedulerKind::kAdversarial:
      return std::make_unique<AdversarialScheduler>(spec.adversary);
    case SchedulerKind::kChurn:
      return std::make_unique<ChurnScheduler>(
          spec.churn_rate, spec.churn_faults, spec.churn_active,
          spec.churn_reset, spec.dense_reference);
    case SchedulerKind::kPartition:
      return std::make_unique<PartitionScheduler>(
          spec.partition_blocks, spec.partition_split, spec.partition_heal,
          spec.partition_cycles);
  }
  PP_ASSERT_MSG(false, "unknown SchedulerKind");
  return nullptr;
}

}  // namespace pp
