// Structured experiment reporting shared by every bench binary and the CLI.
//
// A Report is a list of flat records ({scheme, n, max_bits, wall_ms, ...}),
// free-form metadata, and optional notes. finish() prints one aligned human
// table (replacing the per-bench printf tables) and, when an output path was
// given — `--metrics-out <file>` on the command line or the LCERT_METRICS
// environment variable — writes a machine-readable artifact that also embeds
// the full metrics snapshot. `.csv` paths get the records as CSV; everything
// else gets the JSON document:
//
//   { "experiment": ..., "meta": {...}, "records": [...], "notes": [...],
//     "metrics": {"counters": ..., "gauges": ..., "histograms": ...,
//                 "quantiles": ...},
//     "outliers": [...] }
//
// Phase spans (obs::TraceSpan) go to the trace sink and from there to the
// Chrome trace written by --trace-out, not into this document.
//
// EXPERIMENTS.md tables are regenerated from these artifacts, so record keys
// are a stable schema: renaming one is a breaking change to the bench
// trajectory.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace lcert::obs {

using Value = std::variant<std::int64_t, double, std::string>;

/// One table row / JSON object. Keys keep insertion order (they become the
/// table's columns, first-seen first).
class Record {
 public:
  Record& set(std::string key, double v) { return put(std::move(key), Value(v)); }
  Record& set(std::string key, std::string v) { return put(std::move(key), Value(std::move(v))); }
  Record& set(std::string key, const char* v) { return put(std::move(key), Value(std::string(v))); }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Record& set(std::string key, T v) {
    return put(std::move(key), Value(static_cast<std::int64_t>(v)));
  }

  const Value* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Value>>& fields() const noexcept { return fields_; }

 private:
  Record& put(std::string key, Value v);
  std::vector<std::pair<std::string, Value>> fields_;
};

class Report {
 public:
  explicit Report(std::string experiment) : experiment_(std::move(experiment)) {}

  /// Builds a report from a main()'s argument list: consumes (removes from
  /// argv) `--metrics-out <file>` / `--metrics-out=<file>` and
  /// `--trace-out <file>` / `--trace-out=<file>`, falls back to the
  /// LCERT_METRICS / LCERT_TRACE environment variables, and enables the
  /// metrics registry so the instrumented pipelines actually count. A trace
  /// output also enables the trace sink (timeline recording is otherwise
  /// off — its per-batch clocks are not free).
  static Report from_cli(std::string experiment, int& argc, char** argv);

  void set_output(std::string path) { out_path_ = std::move(path); }
  const std::string& output_path() const noexcept { return out_path_; }
  void set_trace_output(std::string path) { trace_path_ = std::move(path); }
  const std::string& trace_output_path() const noexcept { return trace_path_; }

  template <typename T>
  void meta(std::string key, T v) {
    Record r;
    r.set(std::move(key), std::move(v));
    meta_.push_back(r.fields().front());
  }

  /// Appends a record; the reference stays valid until the next append.
  Record& add();
  /// Free-form line printed after the table (paper-claim commentary).
  void note(std::string line) { notes_.push_back(std::move(line)); }

  std::size_t record_count() const noexcept { return records_.size(); }

  /// Aligned human table of all records (columns = union of keys).
  void print_table(std::FILE* out = stdout) const;
  /// Human summary of the current metrics snapshot (counters + histograms).
  void print_metrics(std::FILE* out = stdout) const;

  /// Serializers. json() embeds a fresh metrics snapshot and the outlier
  /// sample; csv() is records-only.
  std::string json() const;
  std::string csv() const;

  /// Writes by extension (.csv => CSV, else JSON). Returns false on I/O error.
  bool write(const std::string& path) const;

  /// Probes that every configured output path (metrics and trace) is
  /// writable, before the run burns any time. On failure, fills *error with
  /// a user-facing message and returns false. Probing opens in append mode,
  /// so an existing artifact is not clobbered by the check.
  bool outputs_writable(std::string* error = nullptr) const;

  /// Writes the metrics artifact and the Chrome trace (whichever paths are
  /// set), draining the trace sink. Returns 0, or 2 on any write failure
  /// (with a message on stderr) — never silently drops a report.
  int write_artifacts() const;

  /// Prints the table, the notes and (when tracing ran) the per-phase
  /// rollup, then writes the artifacts. Returns a main()-ready exit code
  /// (2 on write failure).
  int finish(std::FILE* out = stdout);

 private:
  std::string experiment_;
  std::string out_path_;
  std::string trace_path_;
  std::vector<std::pair<std::string, Value>> meta_;
  std::vector<Record> records_;
  std::vector<std::string> notes_;
};

/// Milliseconds-resolution stopwatch for the wall_ms record field.
class StopwatchMs {
 public:
  StopwatchMs();
  double elapsed() const;

 private:
  std::uint64_t start_ns_;
};

}  // namespace lcert::obs
