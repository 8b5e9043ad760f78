#include "src/cert/prove.hpp"

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace lcert {

namespace {

struct ProverMetrics {
  obs::Counter prove_calls = obs::registry().counter("prover/prove_calls");
  obs::Counter memo_hits = obs::registry().counter("prover/memo_hits");
  obs::Counter memo_misses = obs::registry().counter("prover/memo_misses");
  obs::Counter feas_pruned = obs::registry().counter("prover/feas_pruned");
  obs::Counter feas_greedy = obs::registry().counter("prover/feas_greedy");
  obs::Counter feas_warm = obs::registry().counter("prover/feas_warm");
  obs::Counter feas_flow = obs::registry().counter("prover/feas_flow");
  obs::Counter feas_sat = obs::registry().counter("prover/feas_sat");
  obs::Quantile prove_ns = obs::registry().quantile("prover/prove_ns");
  std::uint32_t trace_memo_hits = obs::trace_sink().name_id("prover/memo_hits");
  std::uint32_t trace_memo_misses = obs::trace_sink().name_id("prover/memo_misses");
  std::uint32_t trace_prove = obs::trace_sink().name_id("prover/prove_assignment");
};

const ProverMetrics& prover_metrics() {
  static const ProverMetrics metrics;
  return metrics;
}

}  // namespace

ProverContext::ProverContext(std::size_t universe, const RunOptions& options)
    : options_(options), feasibility_(solve::SolverFactory::make(options.solver)) {
  // resolve_thread_count is monotone in the item count, so sizing for the
  // whole universe covers every flat fan-out the run can make.
  const std::size_t workers =
      resolve_thread_count(options.num_threads, universe == 0 ? 1 : universe);
  scratch_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    scratch_.push_back(std::make_unique<WorkerScratch>());
}

void ProverContext::count_memo_hits(std::size_t k) {
  if (k == 0) return;
  memo_hits_ += k;
  prover_metrics().memo_hits.add(k);
}

void ProverContext::count_memo_misses(std::size_t k) {
  if (k == 0) return;
  memo_misses_ += k;
  prover_metrics().memo_misses.add(k);
}

ProveResult prove_assignment(const Scheme& scheme, const Graph& g,
                             const RunOptions& options) {
  const ProverMetrics& metrics = prover_metrics();
  const obs::TraceSpan span(metrics.trace_prove);
  metrics.prove_calls.add();
  const bool tracing = obs::trace_enabled();
  const std::uint64_t t0 = tracing ? obs::trace_now_ns() : 0;
  ProverContext ctx(g.vertex_count(), options);
  ProveResult out;
  out.certificates = scheme.prove_batch(g, ctx);
  out.memo_hits = ctx.memo_hits();
  out.memo_misses = ctx.memo_misses();
  out.feas = ctx.feas_counts();
  metrics.feas_pruned.add(out.feas.pruned);
  metrics.feas_greedy.add(out.feas.greedy);
  metrics.feas_warm.add(out.feas.warm);
  metrics.feas_flow.add(out.feas.flow);
  metrics.feas_sat.add(out.feas.sat);
  if (tracing) {
    const std::uint64_t ns = obs::trace_now_ns() - t0;
    metrics.prove_ns.record(ns);
    // Counter samples: memo traffic is thread-count-invariant (the solve
    // passes run serially), so these land identically in every logical
    // stream.
    obs::trace_sink().emit(metrics.trace_memo_hits, obs::TraceEventKind::kCounter, 0,
                           static_cast<std::int64_t>(out.memo_hits));
    obs::trace_sink().emit(metrics.trace_memo_misses, obs::TraceEventKind::kCounter, 0,
                           static_cast<std::int64_t>(out.memo_misses));
    if (obs::outliers().would_admit(ns)) {
      obs::OutlierRecord rec;
      rec.ns = ns;
      rec.site = "prove";
      rec.scheme = scheme.name();
      rec.unit = g.vertex_count();
      rec.detail = "memo_hits=" + std::to_string(out.memo_hits) +
                   " memo_misses=" + std::to_string(out.memo_misses);
      obs::outliers().record(std::move(rec));
    }
  }
  return out;
}

}  // namespace lcert
