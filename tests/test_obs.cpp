// lcert::obs — counters, gauges, log2 histograms, span nesting, exporters,
// and the instrumentation contract the engine and provers rely on:
//  - totals are bit-identical across worker-pool thread counts (shard cells
//    merge by addition, so determinism survives parallelism);
//  - every registry scheme's prover populates prover/<name>/cert_bits with
//    exactly the sizes the engine later accounts for;
//  - the JSON artifact is well-formed and carries records + metrics + trace.
// The ThreadSanitizer preset replays the *Parallel* tests here.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <set>
#include <string>

#include <chrono>
#include <thread>

#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/instrumented_scheme.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/obs/trace.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

using obs::registry;

/// Enables the process registry for the test body and leaves it disabled and
/// zeroed for whoever runs next in this binary.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry().reset();
    registry().set_enabled(true);
  }
  void TearDown() override {
    registry().set_enabled(false);
    registry().reset();
  }
};

TEST_F(ObsTest, CounterAccumulatesAndSnapshotReads) {
  const obs::Counter c = registry().counter("test/counter");
  c.add();
  c.add(41);
  EXPECT_EQ(registry().counter_value("test/counter"), 42u);
  EXPECT_EQ(registry().snapshot().counter("test/counter"), 42u);
  EXPECT_EQ(registry().counter_value("test/unregistered"), 0u);
}

TEST_F(ObsTest, GaugeIsLastWriteWins) {
  const obs::Gauge g = registry().gauge("test/gauge");
  g.set(7);
  g.set(-3);
  EXPECT_EQ(registry().snapshot().gauges.at("test/gauge"), -3);
}

TEST_F(ObsTest, DisabledRegistryIsInert) {
  const obs::Counter c = registry().counter("test/disabled");
  const obs::Histogram h = registry().histogram("test/disabled_hist");
  registry().set_enabled(false);
  c.add(5);
  h.record(5);
  registry().set_enabled(true);
  EXPECT_EQ(registry().counter_value("test/disabled"), 0u);
  EXPECT_EQ(registry().histogram_snapshot("test/disabled_hist").count, 0u);

  const obs::Counter inert;  // default-constructed handle: no registry at all
  inert.add();               // must not crash
}

TEST_F(ObsTest, HistogramBucketIsBitWidth) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  EXPECT_EQ(obs::histogram_bucket(1023), 10u);
  EXPECT_EQ(obs::histogram_bucket(1024), 11u);
  EXPECT_EQ(obs::histogram_bucket(~std::uint64_t{0}), 64u);
}

TEST_F(ObsTest, HistogramStats) {
  const obs::Histogram h = registry().histogram("test/hist");
  for (std::uint64_t v : {0u, 3u, 3u, 8u, 100u}) h.record(v);
  const obs::HistogramSnapshot snap = registry().histogram_snapshot("test/hist");
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 114u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.mean(), 114.0 / 5.0);
  EXPECT_EQ(snap.buckets[0], 1u);  // the zero
  EXPECT_EQ(snap.buckets[2], 2u);  // 3, 3
  EXPECT_EQ(snap.buckets[4], 1u);  // 8
  EXPECT_EQ(snap.buckets[7], 1u);  // 100
}

TEST_F(ObsTest, HandleLookupIsIdempotent) {
  const obs::Counter a = registry().counter("test/same");
  const obs::Counter b = registry().counter("test/same");
  a.add(1);
  b.add(2);
  EXPECT_EQ(registry().counter_value("test/same"), 3u);
}

// The determinism contract: shard cells merge by addition, so the totals of
// a parallel_for are the same for every thread count — including histogram
// buckets and extrema.
TEST_F(ObsTest, ParallelTotalsAreThreadCountInvariant) {
  const obs::Counter c = registry().counter("test/par_counter");
  const obs::Histogram h = registry().histogram("test/par_hist");
  constexpr std::size_t kItems = 1000;

  std::uint64_t counts[2], sums[2];
  obs::HistogramSnapshot hists[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    registry().reset();
    parallel_for(kItems, thread_counts[run], [&](std::size_t i) {
      c.add(i);
      h.record(i % 37);
    });
    counts[run] = registry().counter_value("test/par_counter");
    sums[run] = registry().histogram_snapshot("test/par_hist").sum;
    hists[run] = registry().histogram_snapshot("test/par_hist");
  }
  EXPECT_EQ(counts[0], kItems * (kItems - 1) / 2);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(hists[0].count, hists[1].count);
  EXPECT_EQ(hists[0].min, hists[1].min);
  EXPECT_EQ(hists[0].max, hists[1].max);
  EXPECT_EQ(hists[0].buckets, hists[1].buckets);
}

// Same invariance for the real pipeline: a full verify_assignment round must
// leave identical engine counters behind at num_threads 1 and 4 (only the
// wall-clock counter engine/worker_busy_ns may differ).
TEST_F(ObsTest, EngineCountersAreThreadCountInvariant) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);  // "path"
  Rng rng(11);
  Graph g = make_path(600);
  assign_random_ids(g, rng);
  const auto certs = scheme.assign(g);
  ASSERT_TRUE(certs.has_value());
  const ViewCache cache(g);

  std::map<std::string, std::uint64_t> totals[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    registry().reset();
    const auto outcome =
        verify_assignment(scheme, cache, *certs, RunOptions{thread_counts[run], false});
    ASSERT_TRUE(outcome.all_accept);
    totals[run] = registry().counters_snapshot();
    totals[run].erase("engine/worker_busy_ns");
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0].at("engine/vertices_verified"), 600u);
  EXPECT_EQ(totals[0].at("engine/views_bound"), 600u);
  EXPECT_EQ(totals[0].at("engine/batches"), (600 + 127) / 128);
  EXPECT_EQ(totals[0].at("engine/rejections"), 0u);
}

TEST_F(ObsTest, RejectionsAndTruncationsAreCounted) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  Rng rng(12);
  Graph g = make_path(32);
  assign_random_ids(g, rng);
  const auto certs = scheme.assign(g);
  ASSERT_TRUE(certs.has_value());
  std::vector<Certificate> empty(g.vertex_count());  // all-empty: every vertex rejects
  const auto outcome = verify_assignment(scheme, g, empty);
  EXPECT_FALSE(outcome.all_accept);
  EXPECT_EQ(registry().counter_value("engine/rejections"), 32u);
}

// --- minimal JSON validity checker (objects/arrays/strings/numbers/
// true/false/null), enough to prove the exporter emits well-formed JSON ----

bool skip_json_value(const std::string& s, std::size_t& i);

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

bool skip_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
      continue;
    }
    if (s[i] == '"') {
      ++i;
      return true;
    }
  }
  return false;
}

bool skip_json_value(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '"') return skip_string(s, i);
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++i;
    skip_ws(s, i);
    if (i < s.size() && s[i] == close) {
      ++i;
      return true;
    }
    while (true) {
      if (c == '{') {
        skip_ws(s, i);
        if (!skip_string(s, i)) return false;
        skip_ws(s, i);
        if (i >= s.size() || s[i] != ':') return false;
        ++i;
      }
      if (!skip_json_value(s, i)) return false;
      skip_ws(s, i);
      if (i >= s.size()) return false;
      if (s[i] == ',') {
        ++i;
        continue;
      }
      if (s[i] == close) {
        ++i;
        return true;
      }
      return false;
    }
  }
  if (std::strchr("-0123456789", c) != nullptr) {
    ++i;
    while (i < s.size() && std::strchr("0123456789.eE+-", s[i]) != nullptr) ++i;
    return true;
  }
  for (const char* lit : {"true", "false", "null"})
    if (s.compare(i, std::strlen(lit), lit) == 0) {
      i += std::strlen(lit);
      return true;
    }
  return false;
}

bool is_valid_json(const std::string& s) {
  std::size_t i = 0;
  if (!skip_json_value(s, i)) return false;
  skip_ws(s, i);
  return i == s.size();
}

TEST_F(ObsTest, JsonValidatorSelfTest) {
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,"x\"y"],"b":{},"c":null})"));
  EXPECT_FALSE(is_valid_json(R"({"a":1,})"));
  EXPECT_FALSE(is_valid_json(R"({"a")"));
  EXPECT_FALSE(is_valid_json("{}{}"));
}

TEST_F(ObsTest, ReportJsonRoundTrip) {
  registry().counter("test/json_counter").add(3);
  registry().histogram("test/json_hist").record(9);
  obs::Report report("unit-test");
  report.meta("seed", 1);
  report.add().set("scheme", "s\"1").set("n", 16).set("max_bits", 3).set("wall_ms", 0.5);
  report.add().set("scheme", "s2").set("n", 32).set("extra", "yes");
  report.note("a note");

  const std::string json = report.json();
  ASSERT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"experiment\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"s\\\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"max_bits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test/json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test/json_hist\""), std::string::npos);
}

TEST_F(ObsTest, ReportCsvHasUnionHeaderAndEscaping) {
  obs::Report report("unit-test");
  report.add().set("scheme", "a,b").set("n", 1);
  report.add().set("scheme", "c").set("n", 2).set("wall_ms", 1.25);
  const std::string csv = report.csv();
  EXPECT_EQ(csv, "scheme,n,wall_ms\n\"a,b\",1,\nc,2,1.25\n");
}

TEST_F(ObsTest, FromCliStripsMetricsFlagAndEnables) {
  registry().set_enabled(false);
  char prog[] = "prog", flag[] = "--metrics-out", path[] = "/tmp/x.json", keep[] = "other";
  char* argv[] = {prog, flag, path, keep, nullptr};
  int argc = 4;
  const obs::Report report = obs::Report::from_cli("cli-test", argc, argv);
  EXPECT_EQ(report.output_path(), "/tmp/x.json");
  EXPECT_TRUE(registry().enabled());
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "other");
  EXPECT_EQ(argv[2], nullptr);
}

// Every scheme the registry hands out is InstrumentedScheme-wrapped: after an
// honest prover run, prover/<name>/cert_bits holds exactly one sample per
// vertex and its sum matches the engine's certificate-bit accounting.
TEST_F(ObsTest, RegistrySweepProverHistogramMatchesEngineAccounting) {
  for (const auto& entry : scheme_registry()) {
    registry().reset();
    const auto scheme = entry.make();
    Rng rng(9000);
    const Graph g = entry.family.yes_instance(16, rng);
    const std::string hist_name = obs::InstrumentedScheme::size_histogram_name(*scheme);

    const auto outcome = run_scheme(*scheme, g);
    ASSERT_TRUE(outcome.prover_succeeded) << entry.key;
    ASSERT_TRUE(outcome.verification.all_accept) << entry.key;

    const obs::HistogramSnapshot h = registry().histogram_snapshot(hist_name);
    EXPECT_EQ(h.count, g.vertex_count()) << entry.key << " " << hist_name;
    EXPECT_EQ(h.sum, outcome.verification.total_certificate_bits) << entry.key;
    EXPECT_EQ(h.max, outcome.verification.max_certificate_bits) << entry.key;
    EXPECT_GE(registry().counter_value("prover/assign_calls"), 1u) << entry.key;
  }
}

// --- timeline tracing, quantiles, outlier attribution (DESIGN.md §14) ------

/// Like ObsTest, plus the trace sink and outlier sampler: enabled for the
/// body, drained + disabled + restored to default capacities afterwards so
/// tracing never leaks into unrelated tests in this binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry().reset();
    obs::trace_sink().reset();
    obs::outliers().reset();
    registry().set_enabled(true);
    obs::trace_sink().set_enabled(true);
  }
  void TearDown() override {
    obs::trace_sink().set_enabled(false);
    obs::trace_sink().set_capacity(std::size_t{1} << 16);
    obs::trace_sink().reset();
    obs::outliers().set_capacity(16);
    obs::outliers().reset();
    registry().set_enabled(false);
    registry().reset();
  }
};

TEST_F(TraceTest, EmitAndTakeRoundTrip) {
  const std::uint32_t id = obs::trace_sink().name_id("test/instant");
  obs::trace_sink().emit(id, obs::TraceEventKind::kInstant, 7, 42);
  const obs::TraceSnapshot snap = obs::trace_sink().take();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.name(snap.events[0]), "test/instant");
  EXPECT_EQ(snap.events[0].logical, 7u);
  EXPECT_EQ(snap.events[0].arg, 42);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_TRUE(obs::trace_sink().take().events.empty());  // drained
}

TEST_F(TraceTest, DisabledSinkIsInert) {
  obs::trace_sink().set_enabled(false);
  const std::uint32_t id = obs::trace_sink().name_id("test/invisible");
  obs::trace_sink().emit(id, obs::TraceEventKind::kInstant, 0, 0);
  {
    obs::TraceSpan span(id);
  }
  const obs::TraceSnapshot snap = obs::trace_sink().take();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped, 0u);
}

// Ring-buffer contract: a full buffer stops recording and counts drops —
// events are never overwritten and never silently lost.
TEST_F(TraceTest, OverflowStopsRecordingAndCountsDrops) {
  obs::trace_sink().reset();
  obs::trace_sink().set_capacity(8);
  // A fresh thread gets a buffer at the new capacity (set_capacity applies
  // to buffers created after the call; the main thread may hold an old one).
  std::thread writer([&] {
    const std::uint32_t id = obs::trace_sink().name_id("test/overflow");
    for (std::uint64_t i = 0; i < 20; ++i)
      obs::trace_sink().emit(id, obs::TraceEventKind::kInstant, i, 0);
  });
  writer.join();
  const obs::TraceSnapshot snap = obs::trace_sink().take();
  EXPECT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped, 12u);
  // The retained prefix is the *first* 8 events, in emission order.
  for (std::size_t i = 0; i < snap.events.size(); ++i)
    EXPECT_EQ(snap.events[i].logical, i);
}

// Worker threads of consecutive parallel_for calls reuse retired buffers
// (no fresh 2 MB ring per thread): nothing is dropped, and every worker
// thread still gets its own tid, never one of an earlier call's.
TEST_F(TraceTest, ReusedBuffersKeepEveryEventUnderFreshTids) {
  const std::uint32_t id = obs::trace_sink().name_id("test/reuse");
  obs::trace_sink().emit(id, obs::TraceEventKind::kInstant, 0, 0);
  const std::uint32_t main_tid = obs::trace_sink().take().events.at(0).tid;
  constexpr std::size_t kItems = 64;
  std::set<std::uint32_t> worker_tids[2];
  for (std::uint64_t call = 0; call < 2; ++call) {
    parallel_for(kItems, 4, [&](std::size_t i) {
      obs::trace_sink().emit(id, obs::TraceEventKind::kInstant, call * kItems + i, 0);
      // Slow items, so that every worker thread gets some.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    const obs::TraceSnapshot snap = obs::trace_sink().take();
    EXPECT_EQ(snap.dropped, 0u);
    ASSERT_EQ(snap.events.size(), kItems);
    std::set<std::uint64_t> logical;
    for (const obs::TraceEvent& e : snap.events) {
      logical.insert(e.logical);
      if (e.tid != main_tid) worker_tids[call].insert(e.tid);
    }
    EXPECT_EQ(logical.size(), kItems);
    EXPECT_EQ(*logical.begin(), call * kItems);
    EXPECT_FALSE(worker_tids[call].empty());
  }
  for (std::uint32_t tid : worker_tids[1]) EXPECT_EQ(worker_tids[0].count(tid), 0u) << tid;
}

// The determinism contract: logical sequence numbers come from work identity
// (batch block, level index), never arrival order, so the sorted
// (name, kind, logical, arg) stream is bit-identical across thread counts.
TEST_F(TraceTest, LogicalStreamIsThreadCountInvariant) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);  // "path"
  Rng rng(21);
  Graph g = make_path(700);
  assign_random_ids(g, rng);

  std::string streams[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int run = 0; run < 3; ++run) {
    registry().reset();
    obs::trace_sink().reset();
    const RunOptions options{thread_counts[run], true};
    const ProveResult proved = prove_assignment(scheme, g, options);
    ASSERT_TRUE(proved.certificates.has_value());
    const auto outcome = verify_assignment(scheme, g, *proved.certificates, options);
    ASSERT_TRUE(outcome.all_accept);
    streams[run] = obs::logical_stream(obs::trace_sink().take());
  }
  EXPECT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
  // The run actually traced the pipeline: spans and per-batch instants.
  EXPECT_NE(streams[0].find("prover/prove_assignment"), std::string::npos);
  EXPECT_NE(streams[0].find("engine/verify_batch"), std::string::npos);
}

// Acceptance: the exported Chrome trace is valid JSON and its span events
// reconcile with the metrics counters (one prover/prove_assignment begin per
// prover/prove_calls increment).
TEST_F(TraceTest, ChromeTraceJsonIsValidAndReconcilesWithCounters) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  Rng rng(22);
  Graph g = make_path(300);
  assign_random_ids(g, rng);
  for (int i = 0; i < 3; ++i) {
    const ProveResult proved = prove_assignment(scheme, g, RunOptions{1, true});
    ASSERT_TRUE(proved.certificates.has_value());
  }
  const std::uint64_t prove_calls = registry().counter_value("prover/prove_calls");
  ASSERT_EQ(prove_calls, 3u);

  const obs::TraceSnapshot snap = obs::trace_sink().take();
  std::uint64_t begins = 0;
  for (const obs::TraceEvent& e : snap.events)
    if (e.kind == obs::TraceEventKind::kSpanBegin &&
        snap.name(e) == "prover/prove_assignment")
      ++begins;
  EXPECT_EQ(begins, prove_calls);

  const std::string json = obs::chrome_trace_json(snap);
  ASSERT_TRUE(is_valid_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"rollup\""), std::string::npos);
  EXPECT_NE(json.find("prover/prove_assignment"), std::string::npos);
}

TEST_F(TraceTest, RollupPairsSpansAndComputesSelfTime) {
  const std::uint32_t outer = obs::trace_sink().name_id("test/outer");
  const std::uint32_t inner = obs::trace_sink().name_id("test/inner");
  {
    obs::TraceSpan a(outer);
    obs::TraceSpan b(inner);
  }
  const auto rows = obs::trace_rollup(obs::trace_sink().take());
  ASSERT_EQ(rows.size(), 2u);
  const auto find = [&](const std::string& name) -> const obs::TraceRollupRow* {
    for (const auto& r : rows)
      if (r.name == name) return &r;
    return nullptr;
  };
  const obs::TraceRollupRow* o = find("test/outer");
  const obs::TraceRollupRow* i = find("test/inner");
  ASSERT_NE(o, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(o->count, 1u);
  EXPECT_EQ(i->count, 1u);
  EXPECT_GE(o->total_ms, i->total_ms);  // inner nests inside outer
  EXPECT_GE(o->total_ms, o->self_ms);   // self excludes the inner span
  EXPECT_LE(o->max_ms, o->total_ms + 1e-9);
}

// Acceptance: with tracing off, the per-batch instrumentation must be a
// structural no-op (no events, no quantile samples) and an emit attempt must
// be cheap. The time bound is deliberately generous (sanitizer builds): the
// real <1% budget is asserted on the n=4096 prove bench, this test only pins
// that the disabled path never grows a lock or an allocation.
TEST_F(TraceTest, DisabledTracingIsStructurallyFree) {
  obs::trace_sink().set_enabled(false);
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  Rng rng(23);
  Graph g = make_path(256);
  assign_random_ids(g, rng);
  const ProveResult proved = prove_assignment(scheme, g, RunOptions{2, true});
  ASSERT_TRUE(proved.certificates.has_value());
  verify_assignment(scheme, g, *proved.certificates, RunOptions{2, false});
  EXPECT_TRUE(obs::trace_sink().take().events.empty());
  EXPECT_EQ(registry().quantile_snapshot("engine/verify_batch_ns").count, 0u);
  EXPECT_EQ(registry().quantile_snapshot("prover/prove_ns").count, 0u);

  constexpr int kCalls = 100000;
  const std::uint32_t id = obs::trace_sink().name_id("test/disabled");
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i)
    obs::trace_sink().emit(id, obs::TraceEventKind::kInstant, 0, 0);
  const double ns_per_call =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
          .count() /
      kCalls;
  EXPECT_LT(ns_per_call, 1000.0);  // one relaxed load + branch, with huge margin
}

TEST_F(TraceTest, QuantilesAreExactOnSmallStreams) {
  const obs::Quantile q = registry().quantile("test/q");
  for (std::uint64_t v = 1; v <= 100; ++v) q.record(v);
  const obs::QuantileSnapshot snap = registry().quantile_snapshot("test/q");
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.sum, 5050u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_EQ(snap.p50, 50u);  // nearest-rank on the full stream: exact
  EXPECT_EQ(snap.p90, 90u);
  EXPECT_EQ(snap.p99, 99u);
  EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
}

TEST_F(TraceTest, QuantileAggregatesStayExactPastSampleCap) {
  const obs::Quantile q = registry().quantile("test/q_overflow");
  constexpr std::uint64_t kN = 10000;  // > the 8192 per-thread sample cap
  std::uint64_t sum = 0;
  for (std::uint64_t v = 1; v <= kN; ++v) {
    q.record(v);
    sum += v;
  }
  const obs::QuantileSnapshot snap = registry().quantile_snapshot("test/q_overflow");
  EXPECT_EQ(snap.count, kN);       // count/sum/min/max never sampled
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, kN);
  EXPECT_EQ(snap.dropped, kN - 8192);  // percentile samples beyond the cap
  EXPECT_GT(snap.p50, 0u);             // percentiles still computed on retained
}

TEST_F(TraceTest, QuantileTotalsAreThreadCountInvariant) {
  const obs::Quantile q = registry().quantile("test/q_par");
  obs::QuantileSnapshot snaps[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    registry().reset();
    parallel_for(2000, thread_counts[run], [&](std::size_t i) { q.record(i % 97 + 1); });
    snaps[run] = registry().quantile_snapshot("test/q_par");
  }
  EXPECT_EQ(snaps[0].count, 2000u);
  EXPECT_EQ(snaps[0].count, snaps[1].count);
  EXPECT_EQ(snaps[0].sum, snaps[1].sum);
  EXPECT_EQ(snaps[0].min, snaps[1].min);
  EXPECT_EQ(snaps[0].max, snaps[1].max);
  EXPECT_EQ(snaps[0].p50, snaps[1].p50);  // full retention: exact either way
}

TEST_F(TraceTest, OutlierSamplerKeepsSlowestK) {
  obs::outliers().set_capacity(3);
  for (std::uint64_t ns : {10u, 50u, 20u, 90u, 30u, 70u}) {
    if (!obs::outliers().would_admit(ns)) continue;
    obs::OutlierRecord rec;
    rec.ns = ns;
    rec.site = "test";
    obs::outliers().record(std::move(rec));
  }
  const auto top = obs::outliers().top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].ns, 90u);  // slowest first
  EXPECT_EQ(top[1].ns, 70u);
  EXPECT_EQ(top[2].ns, 50u);
  // Once full, the floor rejects anything at or below the current K-th.
  EXPECT_FALSE(obs::outliers().would_admit(50));
  EXPECT_TRUE(obs::outliers().would_admit(60));
}

// Acceptance: the slowest verify batches of the leaves>=4 scheme are
// attributed to the automaton state whose transition DNF carries the box
// blow-up — the ~29k-box cliff gets a name instead of staying folklore.
TEST_F(TraceTest, OutlierAttributionNamesTheLeavesDnfState) {
  MsoTreeScheme scheme(standard_tree_automata()[7]);  // leaves >= 4
  // boxes_per_state gauges: registered at construction, visible even though
  // the batch instrumentation has not run yet. The raw DNF carries the
  // cliff; the canonical form the verifier actually probes is tiny.
  const std::string raw_name = "verify/" + scheme.name() + "/boxes_per_state_raw";
  const std::string canon_name =
      "verify/" + scheme.name() + "/boxes_per_state_canonical";
  const auto gauges = registry().snapshot().gauges;
  ASSERT_TRUE(gauges.count(raw_name)) << raw_name;
  EXPECT_GE(gauges.at(raw_name), 1000) << "leaves>=4 raw DNF should be box-heavy";
  ASSERT_TRUE(gauges.count(canon_name)) << canon_name;
  EXPECT_LE(gauges.at(canon_name), 64)
      << "canonicalization should collapse the leaves>=4 DNF";

  Rng rng(24);
  Graph g = make_random_tree(512, rng);
  assign_random_ids(g, rng);
  const auto certs = scheme.assign(g);
  ASSERT_TRUE(certs.has_value());
  const auto outcome = verify_assignment(scheme, g, *certs, RunOptions{2, false});
  ASSERT_TRUE(outcome.all_accept);

  const auto top = obs::outliers().top();
  ASSERT_FALSE(top.empty());
  bool found = false;
  for (const obs::OutlierRecord& rec : top) {
    if (rec.site != "verify-batch") continue;
    EXPECT_EQ(rec.scheme, scheme.name());
    EXPECT_NE(rec.detail.find("state="), std::string::npos) << rec.detail;
    EXPECT_NE(rec.detail.find("boxes="), std::string::npos) << rec.detail;
    found = true;
  }
  EXPECT_TRUE(found) << "no verify-batch outlier recorded";
}

TEST_F(TraceTest, FromCliStripsTraceFlagAndEnablesSink) {
  obs::trace_sink().set_enabled(false);
  char prog[] = "prog", flag[] = "--trace-out", path[] = "/tmp/t.json", keep[] = "other";
  char* argv[] = {prog, flag, path, keep, nullptr};
  int argc = 4;
  const obs::Report report = obs::Report::from_cli("cli-test", argc, argv);
  EXPECT_EQ(report.trace_output_path(), "/tmp/t.json");
  EXPECT_TRUE(obs::trace_enabled());
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "other");
}

TEST_F(TraceTest, ReportJsonCarriesQuantilesAndOutliers) {
  registry().quantile("test/report_q").record(5);
  obs::OutlierRecord rec;
  rec.ns = 123;
  rec.site = "test";
  rec.detail = "state=\"K_4\"";  // quotes must be escaped in the export
  obs::outliers().record(std::move(rec));

  obs::Report report("unit-test");
  const std::string json = report.json();
  ASSERT_TRUE(is_valid_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"quantiles\""), std::string::npos);
  EXPECT_NE(json.find("\"test/report_q\""), std::string::npos);
  EXPECT_NE(json.find("\"outliers\""), std::string::npos);
  EXPECT_NE(json.find("state="), std::string::npos);
}

TEST_F(TraceTest, UnwritableArtifactPathsAreRejectedUpFront) {
  obs::Report report("unit-test");
  report.set_output("/nonexistent-dir/metrics.json");
  std::string error;
  EXPECT_FALSE(report.outputs_writable(&error));
  EXPECT_NE(error.find("/nonexistent-dir/metrics.json"), std::string::npos);
  EXPECT_EQ(report.write_artifacts(), 2);

  obs::Report ok("unit-test");  // no outputs configured: nothing to fail
  EXPECT_TRUE(ok.outputs_writable());
  EXPECT_EQ(ok.write_artifacts(), 0);
}

}  // namespace
}  // namespace lcert
