#include "src/cert/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "src/cert/prove.hpp"
#include "src/obs/instrumented_scheme.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace lcert {

namespace {

// Handles resolved once; every add behind them is a relaxed-atomic bump in a
// thread-local shard (or a single branch when metrics are disabled).
struct EngineMetrics {
  obs::Counter bindings = obs::registry().counter("engine/bindings");
  obs::Counter views_bound = obs::registry().counter("engine/views_bound");
  obs::Counter vertices_verified = obs::registry().counter("engine/vertices_verified");
  obs::Counter batches = obs::registry().counter("engine/batches");
  obs::Counter rejections = obs::registry().counter("engine/rejections");
  obs::Counter busy_ns = obs::registry().counter("engine/worker_busy_ns");
  obs::Counter verify_calls = obs::registry().counter("engine/verify_calls");
  obs::Histogram batch_size = obs::registry().histogram("engine/batch_size");
  // Tracing-gated latency attribution (DESIGN.md §14): exact quantiles per
  // batch and per vertex, plus one instant event per batch keyed by the
  // deterministic block index. All behind trace_enabled() so the disabled
  // path keeps its once-per-worker clock discipline (<1% budget).
  obs::Quantile batch_ns = obs::registry().quantile("engine/verify_batch_ns");
  obs::Quantile vertex_ns = obs::registry().quantile("engine/verify_vertex_ns");
  std::uint32_t trace_batch = obs::trace_sink().name_id("engine/verify_batch");
  std::uint32_t trace_verify = obs::trace_sink().name_id("engine/verify_assignment");
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics metrics;
  return metrics;
}

}  // namespace

View make_view(const Graph& g, const std::vector<Certificate>& certificates, Vertex v) {
  if (certificates.size() != g.vertex_count())
    throw std::invalid_argument("make_view: wrong number of certificates");
  View view;
  view.id = g.id(v);
  view.certificate = certificates[v];
  view.neighbors.reserve(g.degree(v));
  for (Vertex w : g.neighbors(v)) view.neighbors.push_back({g.id(w), certificates[w]});
  return view;
}

ViewCache::Binding::Binding(const ViewCache& cache, const std::vector<Certificate>& certificates)
    : cache_(&cache), certificates_(&certificates) {
  if (certificates.size() != cache.vertex_count())
    throw std::invalid_argument("ViewCache::bind: wrong number of certificates");
  const std::span<const Vertex> adjacency = cache.adjacency_;
  const std::span<const VertexId> ids = cache.ids_;
  entries_.resize(adjacency.size());
  for (std::size_t k = 0; k < adjacency.size(); ++k) {
    const Vertex w = adjacency[k];
    entries_[k] = {ids[w], &certificates[w]};
  }
}

ViewCache::Binding ViewCache::bind(const std::vector<Certificate>& certificates) const {
  return Binding(*this, certificates);
}

VerificationOutcome verify_assignment(const Scheme& scheme, const ViewCache& cache,
                                      const std::vector<Certificate>& certificates,
                                      const RunOptions& options) {
  VerificationOutcome out;
  for (const Certificate& c : certificates) {
    out.max_certificate_bits = std::max(out.max_certificate_bits, c.bit_size);
    out.total_certificate_bits += c.bit_size;
    // Accounting guard (satellite of the obs layer): the bit-level encoder's
    // byte buffer must match the bit_size the reporter aggregates.
    assert(c.bytes.size() == (c.bit_size + 7) / 8);
  }

  const ViewCache::Binding binding = cache.bind(certificates);
  const std::size_t n = cache.vertex_count();
  const bool metrics_on = obs::registry().enabled();
  const bool tracing = obs::trace_enabled();
  const EngineMetrics& metrics = engine_metrics();
  if (metrics_on) {
    metrics.verify_calls.add();
    metrics.bindings.add();
    metrics.views_bound.add(n);
  }
  // Vertices are verified in contiguous batches through Scheme::verify_batch
  // (exception policy — CertificateTruncated rejects, anything else is a
  // scheme bug and propagates — lives there). Disjoint result slots keep the
  // outcome deterministic regardless of which worker runs which batch.
  constexpr std::size_t kBatch = 128;
  const std::size_t blocks = (n + kBatch - 1) / kBatch;
  // Thread count is a per-vertex decision (the auto cutoff is in vertices),
  // then passed explicitly so parallel_for's own resolution doesn't re-apply
  // the cutoff to the much smaller block count.
  const std::size_t workers = resolve_thread_count(options.num_threads, n);
  std::vector<std::uint8_t> rejected(n, 0);
  std::atomic<bool> stop{false};
  // Metric cost on this path (ISSUE budget: <5% at n=4096, measured <1% by
  // BM_EngineZeroCopySerial vs ...NoMetrics): counter bumps are per 128-vertex
  // block (~2ns each, thread-local shard), and the clock is read once per
  // worker — not per block — for engine/worker_busy_ns.
  parallel_for(
      blocks, workers,
      [&](std::size_t block) {
        if (options.stop_at_first_reject && stop.load(std::memory_order_relaxed)) return;
        const std::size_t begin = block * kBatch;
        const std::size_t count = std::min(kBatch, n - begin);
        ViewRef views[kBatch];
        std::uint8_t accept[kBatch];
        for (std::size_t i = 0; i < count; ++i)
          views[i] = binding.view(static_cast<Vertex>(begin + i));
        const std::uint64_t batch_t0 = tracing ? obs::trace_now_ns() : 0;
        scheme.verify_batch(std::span<const ViewRef>(views, count),
                            std::span<std::uint8_t>(accept, count));
        if (tracing) {
          const std::uint64_t batch_ns = obs::trace_now_ns() - batch_t0;
          metrics.batch_ns.record(batch_ns);
          metrics.vertex_ns.record(batch_ns / count);
          obs::trace_sink().emit(metrics.trace_batch, obs::TraceEventKind::kInstant,
                                 block, static_cast<std::int64_t>(count));
          if (obs::outliers().would_admit(batch_ns)) {
            obs::OutlierRecord rec;
            rec.ns = batch_ns;
            rec.site = "verify-batch";
            rec.scheme = scheme.name();
            rec.unit = begin;
            rec.detail =
                scheme.slow_batch_attribution(std::span<const ViewRef>(views, count));
            obs::outliers().record(std::move(rec));
          }
        }
        std::size_t block_rejections = 0;
        for (std::size_t i = 0; i < count; ++i)
          if (!accept[i]) {
            rejected[begin + i] = 1;
            ++block_rejections;
            if (options.stop_at_first_reject) stop.store(true, std::memory_order_relaxed);
          }
        if (metrics_on) {
          metrics.batches.add();
          metrics.vertices_verified.add(count);
          metrics.batch_size.record(count);
          if (block_rejections != 0) metrics.rejections.add(block_rejections);
        }
      },
      [&](auto&& run) {
        if (!metrics_on) {
          run();
          return;
        }
        using Clock = std::chrono::steady_clock;
        const Clock::time_point start = Clock::now();
        run();
        metrics.busy_ns.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                .count()));
      });
  for (Vertex v = 0; v < n; ++v)
    if (rejected[v]) out.rejecting.push_back(v);
  out.all_accept = out.rejecting.empty();
  return out;
}

VerificationOutcome verify_assignment(const Scheme& scheme, const Graph& g,
                                      const std::vector<Certificate>& certificates,
                                      const RunOptions& options) {
  return verify_assignment(scheme, ViewCache(g), certificates, options);
}

SchemeOutcome run_scheme(const Scheme& scheme, const Graph& g, const RunOptions& options) {
  SchemeOutcome out;
#ifndef NDEBUG
  // Cross-check the prover-side histogram against the engine's own bit
  // accounting below: if the scheme is instrumented, the sizes it recorded
  // during this assign() must be exactly what verify_assignment sums over
  // the certificate vector — divergence means the reporter and the
  // bit-level accounting no longer agree.
  const std::string hist_name = obs::InstrumentedScheme::size_histogram_name(scheme);
  const obs::HistogramSnapshot before = obs::registry().histogram_snapshot(hist_name);
#endif
  const auto certificates = prove_assignment(scheme, g, options).certificates;
  out.prover_succeeded = certificates.has_value();
  if (out.prover_succeeded) {
    const obs::TraceSpan span(engine_metrics().trace_verify);
    out.verification = verify_assignment(scheme, g, *certificates, options);
#ifndef NDEBUG
    const obs::HistogramSnapshot after = obs::registry().histogram_snapshot(hist_name);
    if (after.count - before.count == certificates->size() && !certificates->empty()) {
      assert(after.sum - before.sum == out.verification.total_certificate_bits);
      assert(after.max >= out.verification.max_certificate_bits);
    }
#endif
  }
  return out;
}

std::size_t certified_size_bits(const Scheme& scheme, const Graph& g) {
  const auto outcome = run_scheme(scheme, g);
  if (!outcome.prover_succeeded)
    throw std::logic_error(scheme.name() + ": prover failed on a yes-instance");
  if (!outcome.verification.all_accept)
    throw std::logic_error(scheme.name() + ": verifier rejected the prover's assignment");
  return outcome.verification.max_certificate_bits;
}

}  // namespace lcert
