// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library (make_protocol, the initial:: generators, Protocol::reset,
// make_scheduler, run_accelerated / Scheduler::run, the service entry
// points), never inside the library.  Each span carries its name, start,
// end, parent span, spec label index and trial index; the workload name
// is stamped on every event when the trace is written.  Nothing touches
// the disk until write_chrome_trace() at the end of the run.
//
// Threading: a ScopedSpan appends to a caller-chosen std::vector<Span>.
// Trial spans go into a per-trial slot owned by that trial, set-level
// spans into the main thread's vector, so recording takes no lock; the
// only shared state is the atomic id counter.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds since the process's first call (steady clock), with
/// sub-microsecond resolution.
double now_us();

/// Small per-thread index in first-use order, for the trace's tid lanes.
std::uint32_t thread_index();

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double start_us = 0;
  double end_us = 0;
  int spec = -1;             ///< index into the spec table, -1 = none
  std::int64_t trial = -1;   ///< trial index, -1 = not a per-trial span
  std::uint32_t tid = 0;
};

class SpanRecorder {
 public:
  std::uint64_t next_id() { return next_.fetch_add(1); }

  /// Moves `spans` into the recorder.  Call from one thread at a time.
  void absorb(std::vector<Span>& spans);

  /// Writes {"traceEvents":[...]} (Chrome trace_event "X" events; args
  /// carry id, parent, workload, spec and trial).  Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path, const std::string& workload,
                          const std::vector<std::string>& spec_labels) const;

 private:
  std::atomic<std::uint64_t> next_{1};
  std::vector<Span> spans_;
};

/// RAII span appended to `sink` when it closes.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::vector<Span>& sink, const char* name,
             std::uint64_t parent, int spec = -1, std::int64_t trial = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  std::vector<Span>& sink_;
  Span span_;
};

}  // namespace perfbench
