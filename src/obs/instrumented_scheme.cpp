#include "src/obs/instrumented_scheme.hpp"

#include <cassert>

#include "src/obs/trace.hpp"

namespace lcert::obs {

std::string InstrumentedScheme::size_histogram_name(const Scheme& scheme) {
  return "prover/" + scheme.name() + "/cert_bits";
}

InstrumentedScheme::InstrumentedScheme(std::unique_ptr<Scheme> inner)
    : inner_(std::move(inner)),
      cert_bits_(registry().histogram(size_histogram_name(*inner_))),
      assign_calls_(registry().counter("prover/assign_calls")),
      assign_refusals_(registry().counter("prover/assign_refusals")),
      trace_assign_(trace_sink().name_id("prover/assign")),
      trace_prove_batch_(trace_sink().name_id("prover/prove_batch")) {}

std::optional<std::vector<Certificate>> InstrumentedScheme::assign(const Graph& g) const {
  const TraceSpan span(trace_assign_);
  assign_calls_.add();
  auto certificates = inner_->assign(g);
  if (!certificates.has_value()) {
    assign_refusals_.add();
    return certificates;
  }
  for (const Certificate& c : *certificates) {
    // The histogram records bit_size; the byte buffer must agree with it, or
    // the bits encoder and the reporter have drifted apart.
    assert(c.bytes.size() == (c.bit_size + 7) / 8);
    cert_bits_.record(c.bit_size);
  }
  return certificates;
}

std::optional<std::vector<Certificate>> InstrumentedScheme::prove_batch(
    const Graph& g, ProverContext& ctx) const {
  const TraceSpan span(trace_prove_batch_);
  assign_calls_.add();
  auto certificates = inner_->prove_batch(g, ctx);
  if (!certificates.has_value()) {
    assign_refusals_.add();
    return certificates;
  }
  for (const Certificate& c : *certificates) {
    assert(c.bytes.size() == (c.bit_size + 7) / 8);
    cert_bits_.record(c.bit_size);
  }
  return certificates;
}

}  // namespace lcert::obs
