#include "src/util/bitio.hpp"

#include <cstring>

#include "src/util/arena.hpp"

namespace lcert {

void BitWriter::write(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("BitWriter::write: width > 64");
  if (width < 64 && (value >> width) != 0)
    throw std::invalid_argument("BitWriter::write: value does not fit width");
  if (width == 0) return;
  const std::size_t old_bytes = (bit_size_ + 7) / 8;
  const std::size_t need_bytes = (bit_size_ + width + 7) / 8;
  if (need_bytes > capacity_) grow(need_bytes);
  // Zero bytes touched for the first time: clear() and arena reuse leave
  // stale data in the buffer, and everything below ORs bits in.
  if (need_bytes > old_bytes)
    std::memset(data_ + old_bytes, 0, need_bytes - old_bytes);
  std::size_t pos = bit_size_;
  unsigned left = width;
  while (left > 0) {
    const unsigned avail = 8 - static_cast<unsigned>(pos & 7);
    const unsigned take = left < avail ? left : avail;
    const std::uint8_t chunk =
        static_cast<std::uint8_t>(value >> (left - take)) &
        static_cast<std::uint8_t>((1u << take) - 1);
    data_[pos >> 3] |= static_cast<std::uint8_t>(chunk << (avail - take));
    pos += take;
    left -= take;
  }
  bit_size_ += width;
}

void BitWriter::grow(std::size_t need_bytes) {
  std::size_t new_cap = capacity_ == 0 ? 64 : capacity_ * 2;
  while (new_cap < need_bytes) new_cap *= 2;
  if (arena_ != nullptr) {
    auto* fresh = arena_->allocate_array<std::uint8_t>(new_cap);
    if (bit_size_ > 0) std::memcpy(fresh, data_, (bit_size_ + 7) / 8);
    data_ = fresh;
  } else {
    heap_.resize(new_cap);
    data_ = heap_.data();
  }
  capacity_ = new_cap;
}

void BitWriter::write_varnat(std::uint64_t value) {
  // Groups of 4 bits, low group first, each preceded by a continuation bit.
  do {
    const std::uint64_t group = value & 0xF;
    value >>= 4;
    write_bit(value != 0);
    write(group, 4);
  } while (value != 0);
}

void BitWriter::append(const BitWriter& other) {
  BitReader r(other);
  std::size_t left = other.bit_size();
  while (left >= 64) {
    write(r.read(64), 64);
    left -= 64;
  }
  if (left > 0) write(r.read(static_cast<unsigned>(left)), static_cast<unsigned>(left));
}

std::uint64_t BitReader::read_varnat() {
  std::uint64_t out = 0;
  unsigned shift = 0;
  bool more = true;
  while (more) {
    more = read_bit();
    const std::uint64_t group = read(4);
    if (shift >= 64) throw CertificateTruncated("BitReader::read_varnat: overflow");
    out |= group << shift;
    shift += 4;
  }
  return out;
}

unsigned bits_for(std::uint64_t n) noexcept {
  unsigned b = 0;
  while (n > 0) {
    ++b;
    n >>= 1;
  }
  return b;
}

}  // namespace lcert
