#include "runner/sink.hpp"

#include <cmath>
#include <cstdio>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace pp {
namespace {

std::unique_ptr<std::ofstream> open_or_die(const std::string& path) {
  auto f = std::make_unique<std::ofstream>(path);
  PP_ASSERT_MSG(f->good(), "sink: cannot open output file");
  return f;
}

/// Round-trip-exact double formatting (17 significant digits).  NaN/inf
/// would serialize as bare tokens no CSV/JSON reader agrees on, and every
/// producer upstream (Summary, RunningStat, RunResult) is clamped to stay
/// finite on degenerate inputs — a non-finite value reaching a sink is a
/// pipeline bug, caught here rather than in whatever parses the artifact.
std::string fmt(double v) {
  PP_ASSERT_MSG(std::isfinite(v), "sink: non-finite value in output record");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string spec_name(const TrialSpec& spec) {
  return spec.protocol.empty() ? std::string("custom") : spec.protocol;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- CSV -----------------------------------------------------------------

CsvSink::CsvSink(const std::string& path)
    : file_(open_or_die(path)),
      out_(file_.get()),
      manifest_(obs::ManifestWriter::open(path, 0)) {}

CsvSink::CsvSink(std::ostream& out) : out_(&out) {}

void CsvSink::set_mode(Mode m) {
  PP_ASSERT_MSG(mode_ == Mode::kUnset || mode_ == m,
                "CsvSink cannot mix trial and aggregate rows");
  if (mode_ != Mode::kUnset) return;
  mode_ = m;
  if (m == Mode::kTrials) {
    *out_ << "label,protocol,n,engine,trial,seed,parallel_time,interactions,"
             "productive_steps,fault_events,silent,valid\n";
  } else {
    *out_ << "label,protocol,n,engine,trials,threads,timeouts,invalid,"
             "fault_events,mean_parallel_time,stddev_parallel_time,"
             "min_parallel_time,max_parallel_time,wall_seconds,"
             "trials_per_sec\n";
  }
}

void CsvSink::write_trials(const TrialSpec& spec, const TrialSet& set) {
  PP_OBS_SPAN("sink-flush");
  set_mode(Mode::kTrials);
  const std::string prefix = spec.label + "," + spec_name(spec) + "," +
                             std::to_string(spec.n) + "," +
                             spec.model_name() + ",";
  for (const TrialRecord& r : set.records) {
    *out_ << prefix << r.trial << "," << r.seed << ","
          << fmt(r.parallel_time) << "," << r.interactions << ","
          << r.productive_steps << "," << r.fault_events << ","
          << (r.silent ? 1 : 0) << "," << (r.valid ? 1 : 0) << "\n";
  }
  out_->flush();
  manifest_.append_point(spec, set, spec.n, 0);
}

void CsvSink::write_aggregate(const TrialSpec& spec, const TrialSet& set) {
  PP_OBS_SPAN("sink-flush");
  set_mode(Mode::kAggregates);
  const AggregateStats& a = set.stats;
  *out_ << spec.label << "," << spec_name(spec) << "," << spec.n << ","
        << spec.model_name() << "," << a.trials << ","
        << set.threads << "," << a.timeouts << "," << a.invalid << ","
        << a.fault_events << "," << fmt(a.parallel_time.mean()) << ","
        << fmt(a.parallel_time.stddev()) << "," << fmt(a.parallel_time.min())
        << "," << fmt(a.parallel_time.max()) << "," << fmt(set.wall_seconds)
        << "," << fmt(set.trials_per_sec) << "\n";
  out_->flush();
  manifest_.append_point(spec, set, spec.n, 0);
}

// ---- JSON-lines ----------------------------------------------------------

JsonlSink::JsonlSink(const std::string& path)
    : file_(open_or_die(path)),
      out_(file_.get()),
      manifest_(obs::ManifestWriter::open(path, 0)) {}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

void JsonlSink::write_trials(const TrialSpec& spec, const TrialSet& set) {
  PP_OBS_SPAN("sink-flush");
  const std::string prefix =
      "{\"kind\":\"trial\",\"label\":\"" + json_escape(spec.label) +
      "\",\"protocol\":\"" + json_escape(spec_name(spec)) +
      "\",\"n\":" + std::to_string(spec.n) + ",\"engine\":\"" +
      spec.model_name() + "\"";
  for (const TrialRecord& r : set.records) {
    *out_ << prefix << ",\"trial\":" << r.trial << ",\"seed\":" << r.seed
          << ",\"parallel_time\":" << fmt(r.parallel_time)
          << ",\"interactions\":" << r.interactions
          << ",\"productive_steps\":" << r.productive_steps
          << ",\"fault_events\":" << r.fault_events
          << ",\"silent\":" << (r.silent ? "true" : "false")
          << ",\"valid\":" << (r.valid ? "true" : "false") << "}\n";
  }
  out_->flush();
  manifest_.append_point(spec, set, spec.n, 0);
}

void JsonlSink::write_aggregate(const TrialSpec& spec, const TrialSet& set) {
  PP_OBS_SPAN("sink-flush");
  const AggregateStats& a = set.stats;
  *out_ << "{\"kind\":\"aggregate\",\"label\":\"" << json_escape(spec.label)
        << "\",\"protocol\":\"" << json_escape(spec_name(spec))
        << "\",\"n\":" << spec.n << ",\"engine\":\""
        << spec.model_name() << "\",\"trials\":" << a.trials
        << ",\"threads\":" << set.threads << ",\"timeouts\":" << a.timeouts
        << ",\"invalid\":" << a.invalid
        << ",\"fault_events\":" << a.fault_events
        << ",\"mean_parallel_time\":" << fmt(a.parallel_time.mean())
        << ",\"stddev_parallel_time\":" << fmt(a.parallel_time.stddev())
        << ",\"min_parallel_time\":" << fmt(a.parallel_time.min())
        << ",\"max_parallel_time\":" << fmt(a.parallel_time.max())
        << ",\"wall_seconds\":" << fmt(set.wall_seconds)
        << ",\"trials_per_sec\":" << fmt(set.trials_per_sec) << "}\n";
  out_->flush();
  manifest_.append_point(spec, set, spec.n, 0);
}

}  // namespace pp
