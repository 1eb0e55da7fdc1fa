// Byte-level wire codec primitives.
//
// The simulator itself only *accounts* message sizes, but a deployable
// implementation needs real encodings, and the size model should be
// backed by them. This module provides:
//   * LEB128 varints (unsigned),
//   * zig-zag signed varints,
//   * delta-encoded sorted position lists (the compressed sparse Bloom
//     filter and patch-ad bodies of §III-B: positions are sorted, so the
//     gaps are small and varint-compress well),
// plus a bounds-checked Reader/Writer pair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace asap::wire {

/// Thrown when decoding runs off the end of a buffer or meets malformed
/// input. Wire data is external input: decoding must never crash.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Writer {
 public:
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  /// Discards contents but keeps capacity: one Writer can encode a stream
  /// of messages with at most one buffer growth overall.
  void clear() { buf_.clear(); }

  /// A copy of the contents.
  std::vector<std::uint8_t> to_vector() const { return buf_; }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  /// Fixed-width little-endian.
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  /// LEB128 varint.
  void varint(std::uint64_t v);
  /// Zig-zag signed varint.
  void svarint(std::int64_t v);
  void bytes(std::span<const std::uint8_t> data);

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t varint();
  std::int64_t svarint();
  std::span<const std::uint8_t> bytes(std::size_t n);

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("wire: truncated input");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Encodes a strictly increasing position list as varint deltas
/// (first value absolute, then gaps). Throws ConfigError if unsorted.
void encode_positions(Writer& w, std::span<const std::uint32_t> sorted);

/// Decodes a delta-encoded position list of `count` entries.
std::vector<std::uint32_t> decode_positions(Reader& r, std::size_t count);

}  // namespace asap::wire
