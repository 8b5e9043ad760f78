#include "src/incr/incremental.hpp"

#include <stdexcept>
#include <utility>

#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace lcert::incr {

namespace {

struct IncrMetrics {
  obs::Counter edits = obs::registry().counter("incr/edits");
  obs::Counter full_reproves = obs::registry().counter("incr/full_reproves");
  obs::Counter reproved = obs::registry().counter("incr/reproved_vertices");
  obs::Counter reverified = obs::registry().counter("incr/reverified_vertices");
  obs::Counter changed_certs = obs::registry().counter("incr/changed_certs");
  obs::Histogram dirty_path_len = obs::registry().histogram("incr/dirty_path_len");
  obs::Quantile edit_ns = obs::registry().quantile("incr/edit_ns");
  std::uint32_t trace_apply = obs::trace_sink().name_id("incr/apply");
};

const IncrMetrics& incr_metrics() {
  static const IncrMetrics metrics;
  return metrics;
}

// edit_seq is the deterministic logical id of the edit in its stream (edits
// apply serially per instance); ns is 0 when tracing was off for this edit.
void record(const IncrementalStats& st, const Scheme& scheme, std::uint64_t edit_seq,
            std::uint64_t ns) {
  const IncrMetrics& m = incr_metrics();
  m.edits.add();
  if (st.full_reprove) m.full_reproves.add();
  m.reproved.add(st.reproved_vertices);
  m.reverified.add(st.reverified_vertices);
  m.changed_certs.add(st.changed_certificates);
  m.dirty_path_len.record(st.dirty_path_len);
  if (ns != 0) {
    m.edit_ns.record(ns);
    obs::trace_sink().emit(m.trace_apply, obs::TraceEventKind::kInstant, edit_seq,
                           static_cast<std::int64_t>(st.dirty_path_len));
    if (obs::outliers().would_admit(ns)) {
      obs::OutlierRecord rec;
      rec.ns = ns;
      rec.site = "incr-edit";
      rec.scheme = scheme.name();
      rec.unit = edit_seq;
      rec.detail = "dirty_path_len=" + std::to_string(st.dirty_path_len) +
                   (st.full_reprove ? " full_reprove" : "") +
                   " reproved=" + std::to_string(st.reproved_vertices);
      obs::outliers().record(std::move(rec));
    }
  }
}

// Radius-1 re-verification of the certificates a cold re-prove changed:
// every changed vertex and its neighbours, or every vertex when all changed.
// Fills reverified_vertices and reverify_clean; a truncated certificate
// rejects, as it does in the engine.
void reverify(const Scheme& scheme, const Graph& g, const std::vector<Certificate>& certs,
              const std::vector<std::size_t>& changed, bool changed_all,
              IncrementalStats& st) {
  const ViewCache cache(g);
  const ViewCache::Binding binding = cache.bind(certs);
  std::vector<char> seen(g.vertex_count(), 0);
  const auto check = [&](Vertex v) {
    if (seen[v]) return;
    seen[v] = 1;
    ++st.reverified_vertices;
    bool ok = false;
    try {
      ok = scheme.verify(binding.view(v));
    } catch (const CertificateTruncated&) {
      // ok stays false
    }
    st.reverify_clean = st.reverify_clean && ok;
  };
  if (changed_all) {
    for (Vertex v = 0; v < g.vertex_count(); ++v) check(v);
    return;
  }
  for (Vertex v : changed) {
    check(v);
    for (Vertex w : g.neighbors(v)) check(w);
  }
}

}  // namespace

CertifiedInstance::CertifiedInstance(const Scheme& scheme, const RunOptions& options)
    : scheme_(scheme), options_(options),
      prover_(scheme.make_incremental_prover(options)) {}

const std::optional<std::vector<Certificate>>& CertifiedInstance::init(const Graph& g) {
  if (prover_ != nullptr) return prover_->init(g);
  graph_ = g;
  certs_ = prove_assignment(scheme_, g, options_).certificates;
  changed_.clear();
  changed_all_ = true;
  return certs_;
}

IncrementalStats CertifiedInstance::apply(const GraphEdit& edit) {
  const bool tracing = obs::trace_enabled();
  const std::uint64_t edit_seq = edit_seq_++;
  if (prover_ != nullptr) {
    const std::uint64_t t0 = tracing ? obs::trace_now_ns() : 0;
    const IncrementalStats st = prover_->apply(edit);
    record(st, scheme_, edit_seq, tracing ? obs::trace_now_ns() - t0 : 0);
    return st;
  }

  // Fallback: no incremental prover — every edit is a cold full re-prove.
  if (!graph_.has_value())
    throw std::logic_error("CertifiedInstance::apply before init");
  const std::uint64_t t0 = tracing ? obs::trace_now_ns() : 0;
  Graph next = apply_edit(*graph_, edit);
  ProveResult res = prove_assignment(scheme_, next, options_);

  IncrementalStats st;
  st.full_reprove = true;
  st.certified = res.certificates.has_value();
  st.memo_hits = res.memo_hits;
  st.memo_misses = res.memo_misses;
  st.reproved_vertices = next.vertex_count();

  changed_.clear();
  if (!certs_.has_value() || !res.certificates.has_value() ||
      certs_->size() != res.certificates->size()) {
    changed_all_ = certs_.has_value() || res.certificates.has_value();
  } else {
    changed_all_ = false;
    for (std::size_t v = 0; v < certs_->size(); ++v)
      if ((*certs_)[v] != (*res.certificates)[v]) changed_.push_back(v);
  }
  if (st.certified) {
    const std::size_t n = next.vertex_count();
    st.changed_certificates = changed_all_ ? n : changed_.size();
    if (n > 0)
      st.reuse_ratio =
          1.0 - static_cast<double>(st.changed_certificates) / static_cast<double>(n);
    if (changed_all_ || !changed_.empty())
      reverify(scheme_, next, *res.certificates, changed_, changed_all_, st);
  }
  certs_ = std::move(res.certificates);
  graph_ = std::move(next);
  record(st, scheme_, edit_seq, tracing ? obs::trace_now_ns() - t0 : 0);
  return st;
}

const std::optional<std::vector<Certificate>>& CertifiedInstance::certificates() const {
  return prover_ != nullptr ? prover_->certificates() : certs_;
}

const std::vector<std::size_t>& CertifiedInstance::changed_vertices() const {
  return prover_ != nullptr ? prover_->changed_vertices() : changed_;
}

bool CertifiedInstance::changed_all() const {
  return prover_ != nullptr ? prover_->changed_all() : changed_all_;
}

Graph CertifiedInstance::graph() const {
  if (prover_ != nullptr) return prover_->graph();
  if (!graph_.has_value())
    throw std::logic_error("CertifiedInstance::graph before init");
  return *graph_;
}

}  // namespace lcert::incr
