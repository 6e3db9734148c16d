#include "util/bitstream.hpp"

#include <bit>
#include <stdexcept>

namespace cpr {

void BitWriter::write_bits(std::uint64_t value, unsigned nbits) {
  if (nbits > 64) throw std::invalid_argument("write_bits: nbits > 64");
  for (unsigned i = 0; i < nbits; ++i) {
    const std::size_t byte = bit_count_ / 8;
    const unsigned off = bit_count_ % 8;
    if (byte == bytes_.size()) bytes_.push_back(0);
    if ((value >> i) & 1u) bytes_[byte] |= static_cast<std::uint8_t>(1u << off);
    ++bit_count_;
  }
}

void BitWriter::write_varint(std::uint64_t value) {
  do {
    std::uint8_t chunk = value & 0x7fu;
    value >>= 7;
    write_bits(chunk | (value != 0 ? 0x80u : 0u), 8);
  } while (value != 0);
}

void BitWriter::write_gamma(std::uint64_t value) {
  if (value == 0) throw std::invalid_argument("write_gamma: value must be >= 1");
  const unsigned len = bit_width_of(value);  // floor(log2 v) + 1
  for (unsigned i = 1; i < len; ++i) write_bit(false);
  write_bit(true);                                // unary length marker
  if (len > 1) write_bits(value, len - 1);        // low bits after implicit MSB
}

void BitWriter::write_bounded(std::uint64_t value, std::uint64_t universe) {
  write_bits(value, bits_for_universe(universe));
}

std::uint64_t BitReader::read_bits(unsigned nbits) {
  if (nbits > 64) throw std::invalid_argument("read_bits: nbits > 64");
  std::uint64_t out = 0;
  for (unsigned i = 0; i < nbits; ++i) {
    const std::size_t byte = pos_ / 8;
    const unsigned off = pos_ % 8;
    if (byte >= bytes_->size()) throw std::out_of_range("BitReader: past end");
    if (((*bytes_)[byte] >> off) & 1u) out |= (std::uint64_t{1} << i);
    ++pos_;
  }
  return out;
}

std::uint64_t BitReader::read_varint() {
  std::uint64_t out = 0;
  unsigned shift = 0;
  while (true) {
    const std::uint64_t chunk = read_bits(8);
    out |= (chunk & 0x7fu) << shift;
    if ((chunk & 0x80u) == 0) return out;
    shift += 7;
    if (shift >= 64) throw std::runtime_error("read_varint: overflow");
  }
}

std::uint64_t BitReader::read_gamma() {
  unsigned zeros = 0;
  while (!read_bit()) {
    if (++zeros > 64) throw std::runtime_error("read_gamma: malformed");
  }
  if (zeros == 0) return 1;
  return (std::uint64_t{1} << zeros) | read_bits(zeros);
}

std::uint64_t BitReader::read_bounded(std::uint64_t universe) {
  return read_bits(bits_for_universe(universe));
}

unsigned bit_width_of(std::uint64_t v) {
  return v == 0 ? 1u : static_cast<unsigned>(std::bit_width(v));
}

unsigned bits_for_universe(std::uint64_t universe) {
  if (universe <= 2) return 1;
  return static_cast<unsigned>(std::bit_width(universe - 1));
}

}  // namespace cpr
