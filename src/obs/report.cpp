#include "src/obs/report.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace lcert::obs {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_value(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", *d);
    return buf;
  }
  return '"' + json_escape(std::get<std::string>(v)) + '"';
}

/// Table / CSV rendering: doubles get two decimals in the table (matching
/// the ratio columns the benches used to print) but full precision in CSV.
std::string display_value(const Value& v, bool full_precision) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, full_precision ? "%.10g" : "%.2f", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

std::vector<std::string> column_order(const std::vector<Record>& records) {
  std::vector<std::string> columns;
  for (const Record& r : records)
    for (const auto& [key, value] : r.fields())
      if (std::find(columns.begin(), columns.end(), key) == columns.end())
        columns.push_back(key);
  return columns;
}

void append_histogram_json(std::ostringstream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"min\":" << h.min
     << ",\"max\":" << h.max << ",\"mean\":" << json_value(Value(h.mean()))
     << ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) os << ',';
    first = false;
    const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
    const std::uint64_t hi = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    os << "{\"lo\":" << lo << ",\"hi\":" << hi << ",\"count\":" << h.buckets[b] << '}';
  }
  os << "]}";
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

const Value* Record::find(std::string_view key) const {
  for (const auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

Record& Record::put(std::string key, Value v) {
  for (auto& [k, existing] : fields_)
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  fields_.emplace_back(std::move(key), std::move(v));
  return *this;
}

Report Report::from_cli(std::string experiment, int& argc, char** argv) {
  Report report(std::move(experiment));
  int write_at = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      report.set_output(argv[++i]);
      continue;
    }
    if (arg.rfind("--metrics-out=", 0) == 0) {
      report.set_output(std::string(arg.substr(std::strlen("--metrics-out="))));
      continue;
    }
    if (arg == "--trace-out" && i + 1 < argc) {
      report.set_trace_output(argv[++i]);
      continue;
    }
    if (arg.rfind("--trace-out=", 0) == 0) {
      report.set_trace_output(std::string(arg.substr(std::strlen("--trace-out="))));
      continue;
    }
    argv[write_at++] = argv[i];
  }
  argc = write_at;
  argv[argc] = nullptr;
  if (report.out_path_.empty())
    if (const char* env = std::getenv("LCERT_METRICS"); env != nullptr && *env != '\0')
      report.set_output(env);
  if (report.trace_path_.empty())
    if (const char* env = std::getenv("LCERT_TRACE"); env != nullptr && *env != '\0')
      report.set_trace_output(env);
  registry().set_enabled(true);
  if (!report.trace_path_.empty()) trace_sink().set_enabled(true);
  return report;
}

Record& Report::add() {
  records_.emplace_back();
  return records_.back();
}

void Report::print_table(std::FILE* out) const {
  if (records_.empty()) return;
  const std::vector<std::string> columns = column_order(records_);
  std::vector<std::size_t> widths;
  std::vector<bool> numeric(columns.size(), true);
  widths.reserve(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    std::size_t w = columns[c].size();
    for (const Record& r : records_) {
      const Value* v = r.find(columns[c]);
      if (v == nullptr) continue;
      if (std::holds_alternative<std::string>(*v)) numeric[c] = false;
      w = std::max(w, display_value(*v, false).size());
    }
    widths.push_back(w);
  }
  for (std::size_t c = 0; c < columns.size(); ++c)
    std::fprintf(out, "%s%-*s", c ? "  " : "", static_cast<int>(widths[c]),
                 columns[c].c_str());
  std::fprintf(out, "\n");
  for (const Record& r : records_) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const Value* v = r.find(columns[c]);
      const std::string cell = v == nullptr ? "-" : display_value(*v, false);
      // Numbers right-aligned, labels left-aligned.
      std::fprintf(out, "%s%*s", c ? "  " : "",
                   numeric[c] ? static_cast<int>(widths[c]) : -static_cast<int>(widths[c]),
                   cell.c_str());
    }
    std::fprintf(out, "\n");
  }
}

void Report::print_metrics(std::FILE* out) const {
  const MetricsSnapshot snap = registry().snapshot();
  if (!snap.counters.empty()) {
    std::fprintf(out, "counters:\n");
    for (const auto& [name, value] : snap.counters)
      if (value != 0) std::fprintf(out, "  %-40s %12llu\n", name.c_str(),
                                   static_cast<unsigned long long>(value));
  }
  {
    bool header = false;
    for (const auto& [name, q] : snap.quantiles) {
      if (q.count == 0) continue;
      if (!header) {
        std::fprintf(out, "quantiles:%43s %10s %10s %10s %10s\n", "count", "p50", "p90",
                     "p99", "max");
        header = true;
      }
      std::fprintf(out, "  %-40s %10llu %10llu %10llu %10llu %10llu\n", name.c_str(),
                   static_cast<unsigned long long>(q.count),
                   static_cast<unsigned long long>(q.p50),
                   static_cast<unsigned long long>(q.p90),
                   static_cast<unsigned long long>(q.p99),
                   static_cast<unsigned long long>(q.max));
    }
  }
  if (!snap.histograms.empty()) {
    bool header = false;
    for (const auto& [name, h] : snap.histograms) {
      if (h.count == 0) continue;
      if (!header) {
        std::fprintf(out, "histograms:%42s %10s %10s %10s\n", "count", "mean", "min", "max");
        header = true;
      }
      std::fprintf(out, "  %-40s %10llu %10.1f %10llu %10llu\n", name.c_str(),
                   static_cast<unsigned long long>(h.count), h.mean(),
                   static_cast<unsigned long long>(h.min),
                   static_cast<unsigned long long>(h.max));
    }
  }
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"experiment\":\"" << json_escape(experiment_) << "\",\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(meta_[i].first) << "\":" << json_value(meta_[i].second);
  }
  os << "},\"records\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i) os << ',';
    os << '{';
    const auto& fields = records_[i].fields();
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f) os << ',';
      os << '"' << json_escape(fields[f].first) << "\":" << json_value(fields[f].second);
    }
    os << '}';
  }
  os << "],\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(notes_[i]) << '"';
  }
  os << ']';

  const MetricsSnapshot snap = registry().snapshot();
  os << ",\"metrics\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":";
    append_histogram_json(os, h);
  }
  os << "},\"quantiles\":{";
  first = true;
  for (const auto& [name, q] : snap.quantiles) {
    if (q.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << q.count
       << ",\"dropped\":" << q.dropped << ",\"sum\":" << q.sum << ",\"min\":" << q.min
       << ",\"p50\":" << q.p50 << ",\"p90\":" << q.p90 << ",\"p99\":" << q.p99
       << ",\"max\":" << q.max << '}';
  }
  os << "}}";

  os << ",\"outliers\":[";
  const std::vector<OutlierRecord> outlier_top = outliers().top();
  for (std::size_t i = 0; i < outlier_top.size(); ++i) {
    if (i) os << ',';
    const OutlierRecord& rec = outlier_top[i];
    os << "{\"ns\":" << rec.ns << ",\"site\":\"" << json_escape(rec.site)
       << "\",\"scheme\":\"" << json_escape(rec.scheme) << "\",\"unit\":" << rec.unit
       << ",\"detail\":\"" << json_escape(rec.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string Report::csv() const {
  std::ostringstream os;
  const std::vector<std::string> columns = column_order(records_);
  for (std::size_t c = 0; c < columns.size(); ++c)
    os << (c ? "," : "") << csv_escape(columns[c]);
  os << '\n';
  for (const Record& r : records_) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const Value* v = r.find(columns[c]);
      os << (c ? "," : "") << (v == nullptr ? "" : csv_escape(display_value(*v, true)));
    }
    os << '\n';
  }
  return os.str();
}

bool Report::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const bool as_csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  out << (as_csv ? csv() : json());
  if (!as_csv) out << '\n';
  return static_cast<bool>(out);
}

bool Report::outputs_writable(std::string* error) const {
  for (const std::string* path : {&out_path_, &trace_path_}) {
    if (path->empty()) continue;
    // Append mode: creates a missing file but never truncates an artifact
    // that a failed run would then have destroyed.
    std::ofstream probe(*path, std::ios::app);
    if (!probe) {
      if (error != nullptr) *error = "cannot open " + *path + " for writing";
      return false;
    }
  }
  return true;
}

int Report::write_artifacts() const {
  if (!out_path_.empty()) {
    if (!write(out_path_)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n", out_path_.c_str());
      return 2;
    }
    std::fprintf(stderr, "metrics written to %s\n", out_path_.c_str());
  }
  if (!trace_path_.empty()) {
    const TraceSnapshot snap = trace_sink().take();
    // The rollup is both embedded in the artifact and printed here — the
    // human-readable flame summary of where the run's wall time went.
    const std::vector<TraceRollupRow> rollup = trace_rollup(snap);
    if (!rollup.empty()) {
      std::fprintf(stdout, "trace rollup:%33s %12s %12s %12s\n", "count", "total_ms",
                   "self_ms", "max_ms");
      for (const TraceRollupRow& row : rollup)
        std::fprintf(stdout, "  %-40s %4llu %12.3f %12.3f %12.3f\n", row.name.c_str(),
                     static_cast<unsigned long long>(row.count), row.total_ms,
                     row.self_ms, row.max_ms);
    }
    std::ofstream trace_file(trace_path_);
    bool ok = static_cast<bool>(trace_file);
    if (ok) {
      trace_file << chrome_trace_json(snap) << '\n';
      ok = static_cast<bool>(trace_file);
    }
    if (!ok) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", trace_path_.c_str());
      return 2;
    }
    std::fprintf(stderr, "trace written to %s (%zu events, %llu dropped)\n",
                 trace_path_.c_str(), snap.events.size(),
                 static_cast<unsigned long long>(snap.dropped));
  }
  return 0;
}

int Report::finish(std::FILE* out) {
  print_table(out);
  for (const std::string& line : notes_) std::fprintf(out, "%s\n", line.c_str());
  return write_artifacts();
}

StopwatchMs::StopwatchMs()
    : start_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

double StopwatchMs::elapsed() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return static_cast<double>(now - start_ns_) / 1e6;
}

}  // namespace lcert::obs
