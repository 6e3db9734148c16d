// Bit-exact serialization primitives.
//
// Every routing scheme in this library reports its per-node memory
// footprint as the length of a real, decodable bit stream produced through
// BitWriter (see Definition 2 in the paper: M_A(R,u) is the number of bits
// needed to encode the local routing function R_u). Keeping the encoding
// honest — instead of quoting asymptotic formulas — is what lets the
// benchmarks distinguish Θ(log n) from Θ(n) empirically.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

namespace cpr {

// Append-only bit buffer. Bits are packed LSB-first into bytes.
class BitWriter {
 public:
  // Appends the low `nbits` bits of `value` (0 <= nbits <= 64).
  void write_bits(std::uint64_t value, unsigned nbits);

  // Appends a single bit.
  void write_bit(bool bit) { write_bits(bit ? 1 : 0, 1); }

  // LEB128-style variable-length encoding: 7 payload bits per chunk plus a
  // continuation bit. Costs 8*ceil(bits(value)/7) bits.
  void write_varint(std::uint64_t value);

  // Elias-gamma code for value >= 1: 2*floor(log2 v) + 1 bits. This is the
  // code used for the telescoping light-port sequences in the tree router.
  void write_gamma(std::uint64_t value);

  // Fixed-width encoding sized for values in [0, universe): uses
  // ceil(log2(universe)) bits (1 bit minimum).
  void write_bounded(std::uint64_t value, std::uint64_t universe);

  std::size_t bit_count() const { return bit_count_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

// Sequential reader over a BitWriter's output. Decoding every field back is
// the round-trip check the unit tests use to prove the reported sizes are
// not fictional.
class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(&bytes) {}

  std::uint64_t read_bits(unsigned nbits);
  bool read_bit() { return read_bits(1) != 0; }
  std::uint64_t read_varint();
  std::uint64_t read_gamma();
  std::uint64_t read_bounded(std::uint64_t universe);

  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= bytes_->size() * 8; }

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;
};

// Number of bits in the minimal binary representation of v (0 -> 1).
unsigned bit_width_of(std::uint64_t v);

// ceil(log2(universe)) with a 1-bit floor; the per-entry cost of an index
// into a table of `universe` slots.
unsigned bits_for_universe(std::uint64_t universe);

}  // namespace cpr
