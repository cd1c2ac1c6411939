#include "schedulers/scheduler.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

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

namespace {

// The topology part of graph-restricted/dynamic display names, delegated
// to InteractionGraph::describe so spec names and graph-derived scheduler
// names can never drift apart (GraphRestrictedScheduler builds its name
// from the graph's description; sinks and BENCH labels key on the
// equality).
std::string graph_family_name(const SchedulerSpec& s) {
  return InteractionGraph::describe(s.graph, s.degree, s.graph_seed);
}

// "%.{p}g" for the smallest p from 6 up whose strtod reads back `v`
// exactly: %g's own spelling wherever that is exact, and never one
// spelling for two doubles.
std::string fmt_double(double v) {
  char buf[32];
  for (int p = 6;; ++p) {
    std::snprintf(buf, sizeof(buf), "%.*g", p, v);
    if (p == 17 || std::strtod(buf, nullptr) == v) return buf;
  }
}

// "<prefix><v>" when v is off its default, else nothing.
std::string knob(const char* prefix, u64 v, u64 def) {
  return v == def ? "" : prefix + std::to_string(v);
}

std::string knob(const char* prefix, double v, double def) {
  return v == def ? "" : prefix + fmt_double(v);
}

// A u64 or double over the whole token: no sign, space or trailing byte
// slips through, and a double must be finite.
template <typename T>
bool read_number(std::string_view t, T& out) {
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  return ec == std::errc() && end == t.data() + t.size() &&
         std::isfinite(static_cast<double>(out));
}

// An enum by its *_name spelling, searched over the kind list `all`.
template <typename E>
bool read_enum(std::string_view t, const std::vector<E>& all,
               const char* (*name)(E), E& out) {
  for (const E e : all) {
    if (t == name(e)) {
      out = e;
      return true;
    }
  }
  return false;
}

// A topology as graph_family_name spells it, less the "/g<seed>" of a
// non-default random-regular seed (a field of its own).
bool read_graph(std::string_view t, SchedulerSpec& s) {
  constexpr std::string_view kPre = "random-", kPost = "-regular";
  if (t.size() > kPre.size() + kPost.size() && t.starts_with(kPre) &&
      t.ends_with(kPost)) {
    s.graph = GraphKind::kRandomRegular;
    return read_number(
        t.substr(kPre.size(), t.size() - kPre.size() - kPost.size()),
        s.degree);
  }
  return read_enum(t,
                   {GraphKind::kComplete, GraphKind::kCycle, GraphKind::kPath,
                    GraphKind::kRouting},
                   graph_kind_name, s.graph);
}

// One '/'-separated field between the brackets of a name, recognised by
// its spelling alone; which fields a kind prints, and in what order, the
// caller's final to_string() comparison checks.
bool read_field(std::string_view t, SchedulerSpec& s) {
  const auto split = [t](char c) {  // "<a><c><b>" -> {a, b}
    const u64 at = std::min(t.find(c), t.size());
    return std::pair{t.substr(0, at), t.substr(std::min(at + 1, t.size()))};
  };
  const auto [kernel, power] = split('^');
  if (read_enum(kernel,
                {WeightKernel::kUniform, WeightKernel::kRingDecay,
                 WeightKernel::kLineDecay, WeightKernel::kTrapDecay},
                weight_kernel_name, s.kernel)) {
    return kernel.size() == t.size() || read_number(power, s.kernel_power);
  }
  if (t == "dense-ref") {
    s.dense_reference = true;
    return true;
  }
  if (read_graph(t, s) ||
      read_enum(t, adversary_policies(), adversary_policy_name, s.adversary) ||
      read_enum(t, {GraphDynamics::kEdgeMarkovian,
                    GraphDynamics::kPeriodicRewire},
                graph_dynamics_name, s.dynamics) ||
      read_enum(t, {ChurnReset::kUniformState, ChurnReset::kUniformRank,
                    ChurnReset::kStateZero},
                churn_reset_name, s.churn_reset)) {
    return true;
  }
  constexpr std::string_view kBlocks = "-blocks";
  if (t.ends_with(kBlocks)) {
    return read_number(t.substr(0, t.size() - kBlocks.size()),
                       s.partition_blocks);
  }
  const std::pair<char, u64 SchedulerSpec::*> counts[] = {
      {'g', &SchedulerSpec::graph_seed},
      {'T', &SchedulerSpec::rewire_period},
      {'a', &SchedulerSpec::churn_active},
      {'s', &SchedulerSpec::partition_split},
      {'h', &SchedulerSpec::partition_heal},
      {'c', &SchedulerSpec::partition_cycles}};
  for (const auto& [prefix, field] : counts) {
    if (t.starts_with(prefix)) return read_number(t.substr(1), s.*field);
  }
  if (t.starts_with('b')) return read_number(t.substr(1), s.edge_birth);
  if (t.starts_with('d')) return read_number(t.substr(1), s.edge_death);
  const auto [rate, faults] = split('x');  // churn's "<rate>x<faults>"
  return read_number(rate, s.churn_rate) &&
         (rate.size() == t.size() || read_number(faults, s.churn_faults));
}

// `specs` followed by the roster entries `names`, each parsed back.
std::vector<SchedulerSpec> parse_all(
    std::vector<SchedulerSpec> specs,
    std::initializer_list<std::string_view> names) {
  for (const std::string_view name : names) {
    const std::optional<SchedulerSpec> s = parse_scheduler_spec(name);
    PP_ASSERT_MSG(s.has_value(), "roster entry is not a canonical name");
    specs.push_back(*s);
  }
  return specs;
}

}  // namespace

std::vector<SchedulerSpec> standard_scheduler_menu() {
  return parse_all({}, {
      "accelerated-uniform", "uniform", "random-matching",
      // The uniform kernel is the sanity anchor (it must match uniform);
      // ring-decay is the positional and trap-decay the state-space
      // spatial model.
      "weighted[uniform]", "weighted[ring-decay]", "weighted[trap-decay]",
      "churn[0.02/uniform-state]", "partition[2-blocks]",
      "graph-restricted[complete]", "graph-restricted[random-4-regular]",
      "graph-restricted[cycle]",
      // The headline contrast: the same sparse cycle that strands ranking
      // when static, made dynamic both ways.
      "dynamic[cycle/markov]", "dynamic[cycle/rewire]"});
}

std::vector<SchedulerSpec> all_scheduler_specs() {
  return parse_all(standard_scheduler_menu(), {
      "adversarial[random-productive]", "adversarial[max-load]",
      "adversarial[min-rank-coverage]", "adversarial[stubborn]",
      "churn[0.02/uniform-rank]", "churn[0.02/state-zero]",
      "partition[3-blocks]", "weighted[line-decay]",
      "weighted[ring-decay^2]",  // the steep-decay variant
      "dynamic[random-4-regular/rewire]",
      "dynamic[complete/markov]",  // starts dense, decays to stationarity
      // The dense Θ(n²) reference paths of the two hierarchically-sampled
      // models, and churn's copy-and-rebuild fault path: conformance must
      // keep pinning the transparent implementations the cross-validation
      // tests compare the scalable paths against.
      "weighted[ring-decay/dense-ref]", "dynamic[cycle/markov/dense-ref]",
      "churn[0.02/uniform-state/dense-ref]"});
}

std::string SchedulerSpec::to_string() const {
  // No commas: the name doubles as a CSV cell in the sinks.  Every knob
  // the kind reads that is off its default is encoded, doubles exactly
  // (fmt_double), so two distinct specs never share a display name
  // (parameter sweeps and chunk keys rely on it).
  const SchedulerSpec d;
  const std::string dense = dense_reference ? "/dense-ref" : "";
  switch (kind) {
    case SchedulerKind::kGraphRestricted:
      return "graph-restricted[" + graph_family_name(*this) + "]";
    case SchedulerKind::kWeighted:
      return std::string("weighted[") + weight_kernel_name(kernel) +
             knob("^", kernel_power, d.kernel_power) + dense + "]";
    case SchedulerKind::kDynamicGraph: {
      const std::string out = "dynamic[" + graph_family_name(*this) + "/" +
                              graph_dynamics_name(dynamics);
      if (dynamics == GraphDynamics::kPeriodicRewire) {
        return out + knob("/T", rewire_period, d.rewire_period) + "]";
      }
      return out + knob("/b", edge_birth, d.edge_birth) +
             knob("/d", edge_death, d.edge_death) + dense + "]";
    }
    case SchedulerKind::kAdversarial:
      return std::string("adversarial[") + adversary_policy_name(adversary) +
             "]";
    case SchedulerKind::kChurn:
      return "churn[" + fmt_double(churn_rate) +
             knob("x", churn_faults, d.churn_faults) + "/" +
             churn_reset_name(churn_reset) +
             knob("/a", churn_active, d.churn_active) + dense + "]";
    case SchedulerKind::kPartition:
      return "partition[" + std::to_string(partition_blocks) + "-blocks" +
             knob("/s", partition_split, d.partition_split) +
             knob("/h", partition_heal, d.partition_heal) +
             knob("/c", partition_cycles, d.partition_cycles) + "]";
    default:
      return scheduler_kind_name(kind);
  }
}

std::optional<SchedulerSpec> parse_scheduler_spec(std::string_view text) {
  SchedulerSpec s;
  const u64 open = std::min(text.find('['), text.size());
  if (!read_enum(text.substr(0, open), scheduler_kinds(), scheduler_kind_name,
                 s.kind)) {
    return std::nullopt;
  }
  if (open < text.size()) {
    if (!text.ends_with(']')) return std::nullopt;
    const std::string_view body = text.substr(open + 1, text.size() - open - 2);
    for (u64 at = 0; at <= body.size();) {
      const u64 next = std::min(body.find('/', at), body.size());
      if (!read_field(body.substr(at, next - at), s)) return std::nullopt;
      at = next + 1;
    }
  }
  // The one check that makes the name canonical: a default written out,
  // a field the kind does not print, a reordered field or another
  // spelling of a number all print differently.
  if (s.to_string() != text) return std::nullopt;
  return s;
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
