// Prover-side size accounting as a decorator.
//
// Wrapping a Scheme records every certificate the prover emits into the
// per-scheme histogram `prover/<scheme-name>/cert_bits` (the paper's
// performance measure, so max/mean certificate size per scheme falls out of
// the metrics snapshot), plus assignment counters and "prover/assign" /
// "prover/prove_batch" trace spans. The scheme registry wraps every entry it hands out, so the CLI,
// the benches and the audit sweep all get prover accounting for free;
// verification forwards straight to the inner scheme — verify_batch keeps
// its hot-path override.
#pragma once

#include <memory>

#include "src/cert/scheme.hpp"
#include "src/obs/metrics.hpp"

namespace lcert::obs {

class InstrumentedScheme final : public Scheme {
 public:
  explicit InstrumentedScheme(std::unique_ptr<Scheme> inner);

  /// Metric name the wrapper records certificate sizes into; also what
  /// engine::run_scheme's debug cross-check looks up.
  static std::string size_histogram_name(const Scheme& scheme);

  std::string name() const override { return inner_->name(); }
  bool holds(const Graph& g) const override { return inner_->holds(g); }
  std::optional<std::vector<Certificate>> assign(const Graph& g) const override;
  /// Forwards to the inner scheme's batch prover (so wrapped schemes keep
  /// their memoized/parallel path) and records sizes like assign() does.
  std::optional<std::vector<Certificate>> prove_batch(const Graph& g,
                                                      ProverContext& ctx) const override;
  bool verify(const ViewRef& view) const override { return inner_->verify(view); }
  void verify_batch(std::span<const ViewRef> views,
                    std::span<std::uint8_t> accept) const override {
    inner_->verify_batch(views, accept);
  }
  std::string slow_batch_attribution(std::span<const ViewRef> views) const override {
    return inner_->slow_batch_attribution(views);
  }
  /// Forwards so registry schemes keep their incremental path (the lcert::incr
  /// layer records its own counters; per-edit cert sizes are constant for
  /// every scheme with an incremental prover, so no size accounting is lost).
  std::unique_ptr<IncrementalProver> make_incremental_prover(
      const RunOptions& options) const override {
    return inner_->make_incremental_prover(options);
  }
  /// Forwards so the audit's SAT-guided forgery search sees through the
  /// wrapper (registry schemes are always wrapped).
  std::optional<RunForgerySurface> run_forgery_surface() const override {
    return inner_->run_forgery_surface();
  }

 private:
  std::unique_ptr<Scheme> inner_;
  Histogram cert_bits_;
  Counter assign_calls_;
  Counter assign_refusals_;
  std::uint32_t trace_assign_;
  std::uint32_t trace_prove_batch_;
};

}  // namespace lcert::obs
