// Minimal worker pool for the verification engine, the soundness auditor,
// the fuzz campaign and the provers' flat per-vertex loops.
//
// The paper's model makes per-vertex verification depend only on the degree
// and the certificate size, so running the verifier at every vertex (and
// running independent audit trials, or encoding one certificate per vertex)
// is embarrassingly parallel. Tree-level sweeps are not: the MSO prover's
// memoized passes leave a few distinct computations per level and run
// serially.
// parallel_for_workers hands out contiguous index chunks through a single
// atomic counter — no external dependencies, no persistent threads, no
// shared mutable state beyond what the caller's callback touches;
// parallel_for is the same loop for callbacks that ignore the worker id.
//
// Determinism contract: parallel_for only decides *who* runs each index, not
// what the index means. Callers that want bit-identical results across thread
// counts must make fn(i) depend on i alone (per-index RNG seeds, disjoint
// output slots) — every caller follows this rule.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lcert {

/// Below this many items, auto mode (num_threads == 0) stays serial: spawning
/// threads costs more than the work saved.
inline constexpr std::size_t kParallelAutoCutoff = 512;

/// Number of worker threads to use for `count` items. `requested == 0` means
/// auto: hardware concurrency, but serial under the cutoff. An explicit
/// request is honored (clamped to count) so tests can force real parallelism
/// on small inputs; the CLI caps its --threads flag at hardware concurrency
/// before it gets here.
inline std::size_t resolve_thread_count(std::size_t requested, std::size_t count) {
  if (count <= 1) return 1;
  if (requested == 0) {
    if (count < kParallelAutoCutoff) return 1;
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, std::min<std::size_t>(hw == 0 ? 1 : hw, count / 64));
  }
  return std::min(requested, count);
}

/// Default worker scope: runs the drain loop, no bookkeeping.
struct RunDirectly {
  template <typename Run>
  void operator()(Run&& run) const {
    run();
  }
};

/// Runs fn(worker, i) for every i in [0, count), on `num_threads` workers
/// (0 = auto). `worker` is a dense id in [0, resolve_thread_count(...)), and
/// worker 0 is always the calling thread: callers index per-worker scratch
/// (arenas, writers) by it without thread-local storage. Which worker runs
/// an index is scheduling-dependent, so fn's *result* for index i must not
/// depend on `worker` — scratch indexed by worker id is fine precisely
/// because it is scratch. Every index is executed exactly once. The first
/// exception thrown by fn is rethrown on the calling thread after all
/// workers stop; remaining chunks are abandoned once a failure is recorded.
///
/// `worker_scope(run)` wraps each worker's whole drain loop (including the
/// calling thread's): it must invoke run() exactly once and may do cheap
/// bookkeeping around it — the engine times per-thread busy-ness here at
/// once-per-worker cost instead of once-per-index. Exceptions from fn are
/// captured inside run(); worker_scope itself must not throw.
template <typename Fn, typename WorkerScope = RunDirectly>
void parallel_for_workers(std::size_t count, std::size_t num_threads, Fn&& fn,
                          WorkerScope&& worker_scope = {}) {
  const std::size_t workers = resolve_thread_count(num_threads, count);
  if (workers <= 1) {
    worker_scope([&]() {
      for (std::size_t i = 0; i < count; ++i) fn(std::size_t{0}, i);
    });
    return;
  }

  const std::size_t chunk = std::max<std::size_t>(1, count / (workers * 8));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto drain = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + chunk, count);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(worker, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 0; t + 1 < workers; ++t)
    pool.emplace_back([&, t]() { worker_scope([&]() { drain(t + 1); }); });
  worker_scope([&]() { drain(0); });
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

/// parallel_for_workers for callbacks that do not need the worker id:
/// fn(i) for every i in [0, count), same scheduling and contract.
template <typename Fn, typename WorkerScope = RunDirectly>
void parallel_for(std::size_t count, std::size_t num_threads, Fn&& fn,
                  WorkerScope&& worker_scope = {}) {
  parallel_for_workers(
      count, num_threads, [&fn](std::size_t, std::size_t i) { fn(i); },
      std::forward<WorkerScope>(worker_scope));
}

}  // namespace lcert
