#include "obs/counters.hpp"

namespace pp::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kProductiveSteps:
      return "productive_steps";
    case Counter::kNullSkips:
      return "null_skips";
    case Counter::kFenwickUpdates:
      return "fenwick_updates";
    case Counter::kGroupTouches:
      return "group_touches";
    case Counter::kRosterGrows:
      return "roster_grows";
    case Counter::kRosterRejections:
      return "roster_rejections";
    case Counter::kFaultEvents:
      return "fault_events";
    case Counter::kFaultAgentMoves:
      return "fault_agent_moves";
    case Counter::kFaultStateTouches:
      return "fault_state_touches";
    case Counter::kTrapRowPasses:
      return "trap_row_passes";
    case Counter::kCount:
      break;
  }
  return "?";
}

const char* sketch_name(Sketch s) {
  switch (s) {
    case Sketch::kNullSkipGap:
      return "null_skip_gap";
    case Sketch::kFenwickDepth:
      return "fenwick_depth";
    case Sketch::kGroupSize:
      return "group_size";
    case Sketch::kFaultBurst:
      return "fault_burst";
    case Sketch::kCount:
      break;
  }
  return "?";
}

void CounterBlock::merge(const CounterBlock& other) {
  for (u32 c = 0; c < kNumCounters; ++c) counter[c] += other.counter[c];
  for (u32 s = 0; s < kNumSketches; ++s) {
    for (u32 b = 0; b < kSketchBuckets; ++b) {
      sketch[s][b] += other.sketch[s][b];
    }
  }
  wall_us += other.wall_us;
}

u64 CounterBlock::sketch_count(Sketch s) const {
  u64 total = 0;
  for (const u64 b : sketch[static_cast<u32>(s)]) total += b;
  return total;
}

bool CounterBlock::deterministic_empty() const {
  for (u32 c = 0; c < kNumCounters; ++c) {
    if (counter[c] != 0) return false;
  }
  for (u32 s = 0; s < kNumSketches; ++s) {
    if (sketch_count(static_cast<Sketch>(s)) != 0) return false;
  }
  return true;
}

bool CounterBlock::deterministic_equal(const CounterBlock& a,
                                       const CounterBlock& b) {
  return a.counter == b.counter && a.sketch == b.sketch;
}

std::string CounterBlock::to_json(bool include_wall) const {
  // Sequential appends rather than operator+ chains: one buffer, no
  // temporaries, and it sidesteps GCC 12's bogus -Wrestrict on
  // (const char* + string&&) under -O2 (upstream PR 105329), which the
  // hardened -Werror build would otherwise trip over.
  std::string out = "{\"counters\":{";
  for (u32 c = 0; c < kNumCounters; ++c) {
    if (c != 0) out += ",";
    out += '"';
    out += counter_name(static_cast<Counter>(c));
    out += "\":";
    out += std::to_string(counter[c]);
  }
  out += "},\"sketches\":{";
  for (u32 s = 0; s < kNumSketches; ++s) {
    if (s != 0) out += ",";
    out += '"';
    out += sketch_name(static_cast<Sketch>(s));
    out += "\":{\"count\":";
    out += std::to_string(sketch_count(static_cast<Sketch>(s)));
    out += ",\"buckets\":{";
    bool first = true;
    for (u32 b = 0; b < kSketchBuckets; ++b) {
      if (sketch[s][b] == 0) continue;
      if (!first) out += ",";
      first = false;
      out += '"';
      out += std::to_string(b);
      out += "\":";
      out += std::to_string(sketch[s][b]);
    }
    out += "}}";
  }
  out += "}";
  if (include_wall) out += ",\"wall_us\":" + std::to_string(wall_us);
  out += "}";
  return out;
}

}  // namespace pp::obs
