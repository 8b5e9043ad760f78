// Timeline tracing and latency attribution (DESIGN.md §14).
//
// A trace is a flat stream of fixed-size events — span begin/end, instants,
// counter samples — appended to per-thread buffers with no locks and no
// allocation on the hot path. Every event carries two orderings:
//
//   * ts_ns  — steady-clock nanoseconds, for the timeline exporters;
//   * logical — a caller-supplied sequence number derived from the *work
//     identity* (batch index, level index, edit index), never from arrival
//     order, so the multiset of (name, kind, logical, arg) tuples is
//     bit-identical for every thread count (pinned by tests/test_obs.cpp).
//
// Ring-buffer contract: each thread owns one fixed-capacity buffer taken on
// its first emit; when the buffer is full, recording STOPS for that thread
// and every further event is counted in dropped() — events are never
// overwritten and never silently lost. Buffers retire into the sink when
// their thread exits (the worker pool joins threads per call, mirroring the
// MetricsRegistry shard lifecycle): their events move to the sink and the
// emptied buffer goes on a spare list, so the next thread reuses it under a
// fresh tid instead of allocating and zeroing a new one. take() drains
// retired and live buffers.
//
// When tracing is disabled (the default), an emit is one relaxed load and a
// branch — cheap enough to leave in per-batch loops (the <1% overhead
// budget on the n=4096 prove bench is asserted in tests).
//
// Exporters: chrome_trace_json() emits the Chrome trace-event format
// (load via chrome://tracing or https://ui.perfetto.dev), with a per-phase
// rollup table embedded in the same document; logical_stream() is the
// canonical wall-clock-masked form the determinism tests compare.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lcert::obs {

enum class TraceEventKind : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kInstant = 2,
  kCounter = 3,
};

/// One recorded event. ts_ns and tid are wall-clock/scheduling facts (masked
/// by logical_stream); name_id, kind, logical and arg are deterministic.
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t logical = 0;
  std::int64_t arg = 0;
  std::uint32_t name_id = 0;
  std::uint32_t tid = 0;
  TraceEventKind kind = TraceEventKind::kInstant;
};

/// Drained trace: events of one thread are contiguous and in emission order
/// (buffers are concatenated whole, retired first), names indexed by name_id.
struct TraceSnapshot {
  std::vector<std::string> names;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;

  const std::string& name(const TraceEvent& e) const { return names[e.name_id]; }
};

class TraceSink {
 public:
  /// The process-wide sink (the CLI, benches and the library share it).
  static TraceSink& instance();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Per-thread buffer capacity in events. Applies to buffers taken after
  /// the call (spare buffers of the old size are freed); live buffers keep
  /// their size. Test/config knob.
  void set_capacity(std::size_t events_per_thread);
  std::size_t capacity() const;

  /// Finds or registers an event name. Takes a lock; hot call sites resolve
  /// their id once (function-local static), like MetricsRegistry handles.
  std::uint32_t name_id(std::string_view name);

  /// Appends one event to the calling thread's buffer (lock-free; drops and
  /// counts when the buffer is full). No-op when tracing is disabled.
  void emit(std::uint32_t name_id, TraceEventKind kind, std::uint64_t logical,
            std::int64_t arg) noexcept;

  /// Drains every retired and live buffer into one snapshot and resets the
  /// drop counts. Callers must be quiescent (no thread emitting) — the same
  /// contract as MetricsRegistry::reset.
  TraceSnapshot take();

  /// Events dropped since the last take()/reset() across all buffers.
  std::uint64_t dropped() const;

  /// Clears events and drop counts, keeping name registrations. Test-only;
  /// same quiescence contract as take().
  void reset();

 private:
  struct Buffer;
  struct BufferOwner;  ///< thread_local registrar; retires on thread exit

  TraceSink() = default;
  ~TraceSink();
  Buffer& local_buffer();
  std::unique_ptr<Buffer> acquire_buffer();
  void retire_buffer(std::unique_ptr<Buffer> buffer) noexcept;

  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;  ///< guards names, buffer list, retired events
  std::vector<std::string> names_;
  std::vector<Buffer*> buffers_;
  std::vector<std::unique_ptr<Buffer>> spare_;  ///< retired, emptied, reusable
  std::vector<TraceEvent> retired_events_;
  std::uint64_t retired_dropped_ = 0;
  std::size_t capacity_ = std::size_t{1} << 16;
  std::uint32_t next_tid_ = 0;
};

/// The process-wide sink.
inline TraceSink& trace_sink() { return TraceSink::instance(); }
/// One relaxed load; the gate every hot-path emit hides behind.
inline bool trace_enabled() noexcept { return TraceSink::instance().enabled(); }

/// Steady-clock nanoseconds (the trace timebase).
std::uint64_t trace_now_ns() noexcept;

/// RAII begin/end pair around a scope. The id comes from
/// TraceSink::name_id, resolved once at the call site.
class TraceSpan {
 public:
  explicit TraceSpan(std::uint32_t name_id, std::uint64_t logical = 0,
                     std::int64_t arg = 0) noexcept {
    if (!trace_enabled()) return;
    active_ = true;
    name_id_ = name_id;
    logical_ = logical;
    trace_sink().emit(name_id, TraceEventKind::kSpanBegin, logical, arg);
  }
  ~TraceSpan() {
    if (active_) trace_sink().emit(name_id_, TraceEventKind::kSpanEnd, logical_, 0);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
  std::uint32_t name_id_ = 0;
  std::uint64_t logical_ = 0;
};

/// Per-phase rollup computed from matched begin/end pairs: total wall time,
/// self time (total minus enclosed child spans on the same thread), and the
/// slowest single span. Reconciles with the metrics counters — e.g. the
/// number of "prover/prove_assignment" rows equals prover/prove_calls.
struct TraceRollupRow {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double max_ms = 0.0;
};

std::vector<TraceRollupRow> trace_rollup(const TraceSnapshot& snap);

/// Chrome trace-event JSON ({"traceEvents":[...]}) with the rollup and drop
/// count embedded under "rollup"/"dropped". Timestamps are microseconds
/// rebased to the earliest event.
std::string chrome_trace_json(const TraceSnapshot& snap);

/// Canonical wall-clock-masked form: one line per event, "name kind logical
/// arg", sorted — bit-identical across thread counts for deterministic
/// logical numbering (the determinism tests diff this string).
std::string logical_stream(const TraceSnapshot& snap);

// ---------------------------------------------------------------------------
// Outlier sampler: global top-K slowest units (verify batches, prove calls,
// incremental edits) with structured attribution, so e.g. the leaves>=4 DNF
// cliff shows up as "state=K4 boxes=29k" instead of folklore. Admission is a
// relaxed atomic floor check; the mutex and the attribution string are paid
// only by units slower than the current K-th — rejection costs one load.

struct OutlierRecord {
  std::uint64_t ns = 0;
  std::string site;    ///< "verify-batch", "prove", "incr-edit"
  std::string scheme;  ///< scheme name, empty when not applicable
  std::uint64_t unit = 0;  ///< first vertex of the batch / instance size / edit index
  std::string detail;  ///< scheme-provided attribution (automaton state, box count)
};

class OutlierSampler {
 public:
  static OutlierSampler& instance();

  void set_capacity(std::size_t k);  ///< default 16; 0 disables admission
  /// Cheap pre-check: true when ns would enter the current top-K.
  bool would_admit(std::uint64_t ns) const noexcept {
    return ns > floor_ns_.load(std::memory_order_relaxed);
  }
  /// Admits rec if still above the floor (re-checked under the lock).
  void record(OutlierRecord rec);
  /// Current top-K, slowest first.
  std::vector<OutlierRecord> top() const;
  void reset();

 private:
  OutlierSampler() = default;
  mutable std::mutex mutex_;
  std::vector<OutlierRecord> heap_;  ///< min-heap by ns
  std::size_t capacity_ = 16;
  std::atomic<std::uint64_t> floor_ns_{0};  ///< K-th slowest once full, else 0
};

inline OutlierSampler& outliers() { return OutlierSampler::instance(); }

}  // namespace lcert::obs
