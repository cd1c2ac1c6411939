#include "span_recorder.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

void SpanRecorder::absorb(std::vector<Span>& spans) {
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

bool SpanRecorder::write_chrome_trace(
    const std::string& path, const std::string& workload,
    const std::vector<std::string>& spec_labels) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* label =
        s.spec >= 0 ? spec_labels[static_cast<std::size_t>(s.spec)].c_str()
                    : "";
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"workload\":\"%s\",\"spec\":\"%s\","
                 "\"trial\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.tid, s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), workload.c_str(),
                 label, static_cast<long long>(s.trial));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, std::vector<Span>& sink,
                       const char* name, std::uint64_t parent, int spec,
                       std::int64_t trial)
    : sink_(sink) {
  span_.name = name;
  span_.id = rec.next_id();
  span_.parent = parent;
  span_.spec = spec;
  span_.trial = trial;
  span_.tid = thread_index();
  span_.start_us = now_us();
}

ScopedSpan::~ScopedSpan() {
  span_.end_us = now_us();
  sink_.push_back(span_);
}

}  // namespace perfbench
