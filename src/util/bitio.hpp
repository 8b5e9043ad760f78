// Bit-exact serialization used for certificates.
//
// The paper measures certification quality in *bits per vertex*, so schemes
// must not pay struct padding or byte alignment: every field is written with
// exactly the number of bits it needs. BitWriter appends fields MSB-first into
// a byte buffer and tracks the exact bit count; BitReader consumes the same
// stream and fails loudly (CertificateTruncated) on truncated input, which the
// verification engine treats as a rejection.
//
// A BitWriter is either heap-backed (default) or arena-backed
// (BitWriter(Arena&)): the batch prover keeps one arena-backed writer per
// worker and clear()s it between vertices, so steady-state encoding does no
// allocations at all. The bit stream produced is byte-identical in both
// modes.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lcert {

class Arena;

/// Thrown by BitReader when a certificate stream runs out (or a varnat never
/// terminates) before the requested field is complete. The verification
/// engine treats exactly this error as "malformed certificate -> reject";
/// any other exception escaping a verifier is a library bug and propagates.
/// Derives from std::out_of_range for compatibility with older catch sites.
class CertificateTruncated : public std::out_of_range {
 public:
  explicit CertificateTruncated(const std::string& what) : std::out_of_range(what) {}
};

/// Append-only bit stream. Fields are written MSB-first.
class BitWriter {
 public:
  /// Heap-backed: the byte buffer is an owned vector.
  BitWriter() = default;

  /// Arena-backed: bytes live in `arena` (which must outlive the writer and
  /// any view of bytes()). Growth bump-allocates; clear() rewinds the bit
  /// cursor while keeping the high-water buffer, so re-encoding vertex after
  /// vertex does zero steady-state allocations.
  explicit BitWriter(Arena& arena) : arena_(&arena) {}

  /// Appends the low `width` bits of `value` (MSB of the field first).
  /// Requires width <= 64 and value < 2^width.
  void write(std::uint64_t value, unsigned width);

  /// Appends a single bit.
  void write_bit(bool bit) { write(bit ? 1 : 0, 1); }

  /// LEB128-style variable-length natural: 4 data bits + 1 continuation bit
  /// per group. Small values (the common case in certificates) cost 5 bits.
  void write_varnat(std::uint64_t value);

  /// Appends every bit of another stream (used to concatenate sub-certificates).
  void append(const BitWriter& other);

  /// Rewinds to an empty stream, retaining the buffer (both modes).
  void clear() noexcept { bit_size_ = 0; }

  /// Number of bits written so far.
  std::size_t bit_size() const noexcept { return bit_size_; }

  /// Bytes written so far; the final partial byte is zero-padded. The view
  /// is invalidated by the next write or clear.
  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, (bit_size_ + 7) / 8};
  }

 private:
  void grow(std::size_t need_bytes);

  Arena* arena_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::vector<std::uint8_t> heap_;  ///< heap-mode backing store for data_
  std::size_t bit_size_ = 0;
};

/// Sequential reader over a BitWriter's output.
class BitReader {
 public:
  BitReader(const std::vector<std::uint8_t>& bytes, std::size_t bit_size)
      : data_(bytes.data()), bit_size_(bit_size) {}

  BitReader(std::span<const std::uint8_t> bytes, std::size_t bit_size)
      : data_(bytes.data()), bit_size_(bit_size) {}

  explicit BitReader(const BitWriter& w) : BitReader(w.bytes(), w.bit_size()) {}

  /// Reads `width` bits; throws CertificateTruncated past the end. Inline:
  /// verifiers decode several certificates per vertex per round, and the
  /// call overhead dominates the few-bit reads they make.
  std::uint64_t read(unsigned width) {
    if (width > 64) throw std::invalid_argument("BitReader::read: width > 64");
    if (pos_ + width > bit_size_)
      throw CertificateTruncated("BitReader::read: truncated stream");
    // Consume up to a byte per step (the stream is MSB-first within each byte).
    std::uint64_t out = 0;
    unsigned left = width;
    while (left > 0) {
      const unsigned avail = 8 - static_cast<unsigned>(pos_ & 7);
      const unsigned take = left < avail ? left : avail;
      const std::uint8_t chunk =
          static_cast<std::uint8_t>(data_[pos_ >> 3] >> (avail - take)) &
          static_cast<std::uint8_t>((1u << take) - 1);
      out = (out << take) | chunk;
      pos_ += take;
      left -= take;
    }
    return out;
  }

  bool read_bit() { return read(1) != 0; }

  std::uint64_t read_varnat();

  /// Bits not yet consumed.
  std::size_t remaining() const noexcept { return bit_size_ - pos_; }

  bool exhausted() const noexcept { return pos_ == bit_size_; }

 private:
  const std::uint8_t* data_;
  std::size_t bit_size_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to store values in [0, n]; bits_for(0) == 0.
unsigned bits_for(std::uint64_t n) noexcept;

}  // namespace lcert
