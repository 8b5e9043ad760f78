#include "src/util/bitio.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/cert/scheme.hpp"
#include "src/util/arena.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

TEST(BitIo, RoundTripFixedWidth) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xFFFF, 16);
  w.write(0, 1);
  w.write(42, 7);
  EXPECT_EQ(w.bit_size(), 27u);

  BitReader r(w);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(16), 0xFFFFu);
  EXPECT_EQ(r.read(1), 0u);
  EXPECT_EQ(r.read(7), 42u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, RejectsOverwideValue) {
  BitWriter w;
  EXPECT_THROW(w.write(4, 2), std::invalid_argument);
  EXPECT_THROW(w.write(1, 65), std::invalid_argument);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.write(3, 2);
  BitReader r(w);
  EXPECT_EQ(r.read(2), 3u);
  EXPECT_THROW(r.read(1), std::out_of_range);
}

TEST(BitIo, VarnatSmallValuesAreFiveBits) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    BitWriter w;
    w.write_varnat(v);
    EXPECT_EQ(w.bit_size(), 5u) << v;
    BitReader r(w);
    EXPECT_EQ(r.read_varnat(), v);
  }
}

TEST(BitIo, VarnatRoundTripRandom) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform(0, std::uint64_t{1} << rng.index(64));
    BitWriter w;
    w.write_varnat(v);
    BitReader r(w);
    EXPECT_EQ(r.read_varnat(), v);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BitIo, SixtyFourBitBoundary) {
  BitWriter w;
  w.write(~std::uint64_t{0}, 64);
  w.write_varnat(~std::uint64_t{0});
  BitReader r(w);
  EXPECT_EQ(r.read(64), ~std::uint64_t{0});
  EXPECT_EQ(r.read_varnat(), ~std::uint64_t{0});
}

TEST(BitIo, AppendConcatenatesStreams) {
  BitWriter a;
  a.write(0b1011, 4);
  BitWriter b;
  b.write_varnat(123456);
  a.append(b);
  BitReader r(a);
  EXPECT_EQ(r.read(4), 0b1011u);
  EXPECT_EQ(r.read_varnat(), 123456u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIo, MixedInterleavedRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    for (int i = 0; i < 40; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.index(64));
      const std::uint64_t value =
          width == 64 ? rng.uniform(0, ~std::uint64_t{0})
                      : rng.uniform(0, (std::uint64_t{1} << width) - 1);
      w.write(value, width);
      fields.emplace_back(value, width);
    }
    BitReader r(w);
    for (auto [value, width] : fields) EXPECT_EQ(r.read(width), value);
  }
}

// The arena-backed writer is a drop-in for the heap writer: same bytes, same
// bit_size, for arbitrary interleaved field sequences.
TEST(BitIo, ArenaWriterMatchesHeapWriter) {
  Rng rng(13);
  Arena arena;
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter heap;
    BitWriter in_arena(arena);
    for (int i = 0; i < 60; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.index(64));
      const std::uint64_t value =
          width == 64 ? rng.uniform(0, ~std::uint64_t{0})
                      : rng.uniform(0, (std::uint64_t{1} << width) - 1);
      heap.write(value, width);
      in_arena.write(value, width);
    }
    heap.write_varnat(trial);
    in_arena.write_varnat(trial);
    ASSERT_EQ(heap.bit_size(), in_arena.bit_size());
    const auto a = heap.bytes();
    const auto b = in_arena.bytes();
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << trial;
  }
}

// clear() rewinds without releasing the buffer — and crucially must not leak
// stale bits from the previous stream into the next one.
TEST(BitIo, ArenaWriterClearLeavesNoStaleBits) {
  Arena arena;
  BitWriter w(arena);
  w.write(~std::uint64_t{0}, 64);  // all-ones fill
  w.write(~std::uint64_t{0}, 64);
  w.clear();
  w.write(0, 3);  // shorter stream of zeros over the old ones
  w.write(0, 64);
  BitReader r(w);
  EXPECT_EQ(r.read(3), 0u);
  EXPECT_EQ(r.read(64), 0u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(w.bytes().size(), (3u + 64u + 7u) / 8u);
  for (const std::uint8_t byte : w.bytes()) EXPECT_EQ(byte, 0u);
}

// The move overload copies the bytes out and rewinds the writer, which stays
// reusable in both modes.
TEST(BitIo, FromWriterMoveMatchesCopy) {
  Arena arena;
  for (const bool use_arena : {false, true}) {
    BitWriter w = use_arena ? BitWriter(arena) : BitWriter();
    w.write(0b1101, 4);
    w.write_varnat(987654321);
    const Certificate copied = Certificate::from_writer(w);
    const Certificate moved = Certificate::from_writer(std::move(w));
    EXPECT_EQ(copied.bit_size, moved.bit_size);
    EXPECT_EQ(copied.bytes, moved.bytes);
    // The writer is reusable after the move: cursor rewound, writes land.
    w.write(0b11, 2);
    EXPECT_EQ(w.bit_size(), 2u);
    BitReader r(w);
    EXPECT_EQ(r.read(2), 0b11u);
  }
}

// Certificate bytes live inline up to CertBytes::kInline and on the heap
// beyond; copies, moves and equality must not care which.
TEST(BitIo, CertBytesInlineAndHeapAgree) {
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, CertBytes::kInline,
                                CertBytes::kInline + 1, std::size_t{300}}) {
    std::vector<std::uint8_t> raw(len);
    for (std::size_t i = 0; i < len; ++i) raw[i] = static_cast<std::uint8_t>(31 * i + 7);
    const CertBytes a(raw);
    ASSERT_EQ(a.size(), len);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), raw.begin(), raw.end())) << len;
    CertBytes copy = a;
    EXPECT_EQ(copy, a) << len;
    CertBytes moved = std::move(copy);
    EXPECT_EQ(moved, a) << len;
    EXPECT_TRUE(copy.empty()) << len;  // NOLINT(bugprone-use-after-move)
    CertBytes assigned(std::vector<std::uint8_t>(40, 1));
    assigned = a;
    EXPECT_EQ(assigned, a) << len;
    assigned = CertBytes(std::vector<std::uint8_t>(3, 2));
    EXPECT_EQ(assigned.size(), 3u);
    if (len > 0) {
      moved[0] ^= 1;
      EXPECT_FALSE(moved == a) << len;
    }
  }
}

TEST(BitsFor, Values) {
  EXPECT_EQ(bits_for(0), 0u);
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 2u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 3u);
  EXPECT_EQ(bits_for(255), 8u);
  EXPECT_EQ(bits_for(256), 9u);
}

}  // namespace
}  // namespace lcert
