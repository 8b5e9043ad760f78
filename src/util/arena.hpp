// Bump allocator backing the prover's per-worker encoding scratch.
//
// The batch provers encode one certificate per vertex in flat loops fanned
// out over the worker pool (ProverContext::for_each_index); with a
// heap-backed BitWriter every vertex pays at least one allocation for the
// byte buffer (plus growth reallocations), and under the worker pool those
// allocations contend on the global allocator. An Arena hands out memory by
// bumping a pointer inside pre-allocated chunks: the first few vertices grow
// the arena to the high-water mark, after which encoding runs with zero
// steady-state allocations (chunks_allocated() stops moving — the property
// the tests pin down). reset() rewinds every chunk without releasing memory.
//
// Arenas are single-owner scratch: one arena per worker thread, never shared
// (ProverContext enforces this by construction). Nothing is destructed —
// only trivially-destructible buffers (certificate bytes, index arrays) may
// live in one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lcert {

class Arena {
 public:
  /// First chunk size; later chunks double (and always fit the request).
  explicit Arena(std::size_t first_chunk_bytes = 1 << 12)
      : next_chunk_bytes_(first_chunk_bytes < 64 ? 64 : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Bump-allocates `size` bytes at `align`. Never returns nullptr; grows by
  /// whole chunks when the active chunk is exhausted.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t));

  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk; capacity is retained for reuse.
  void reset() noexcept {
    for (Chunk& c : chunks_) c.used = 0;
    active_ = 0;
  }

  /// Total bytes held across chunks (the high-water mark of demand).
  std::size_t capacity_bytes() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  /// Monotonic count of chunk allocations ever made: once warm, a prover
  /// pass must not move this (the zero-steady-state-allocation contract).
  std::size_t chunks_allocated() const noexcept { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk currently bumping
  std::size_t next_chunk_bytes_;
};

}  // namespace lcert
