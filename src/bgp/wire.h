// Bounds-checked big-endian (network byte order) wire codec used by the BGP
// and MRT substrates. All multi-byte integers on the wire are big-endian per
// RFC 4271 / RFC 6396.
#ifndef BGPCU_BGP_WIRE_H
#define BGPCU_BGP_WIRE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgpcu::bgp {

/// Thrown when a decoder runs past the end of its buffer or encounters a
/// structurally invalid field. Carries a human-readable context string.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential reader over an immutable byte buffer. Every accessor checks
/// bounds and throws WireError on underrun; there is no undefined behavior on
/// malformed (e.g. truncated) input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  // The accessors are inline: the decoders call them once per field, and
  // only the throw is out of line.
  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(big_endian(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(big_endian(4)); }
  [[nodiscard]] std::uint64_t u64() { return big_endian(8); }

  /// Returns a view of the next `n` bytes and advances past them.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  /// Skips `n` bytes.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  /// Returns a sub-reader over the next `n` bytes and advances past them.
  /// Used to hard-limit nested structures (e.g. a path attribute body) so a
  /// corrupt inner length cannot read past its enclosing record.
  [[nodiscard]] ByteReader sub(std::size_t n) { return ByteReader(bytes(n)); }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw_underrun(n);
  }
  [[noreturn]] void throw_underrun(std::size_t n) const;

  /// Reads an `n`-byte big-endian integer, n <= 8.
  std::uint64_t big_endian(std::size_t n) {
    require(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Append-only big-endian writer. Grows an internal vector; `take()` moves
/// the buffer out.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);

  /// Reserves a placeholder of `width` bytes (1, 2, or 4) and returns its
  /// offset; `patch_uN` later overwrites it. Used for length fields whose
  /// value is known only after the body is serialized.
  [[nodiscard]] std::size_t placeholder(std::size_t width);
  void patch_u8(std::size_t offset, std::uint8_t v);
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

}  // namespace bgpcu::bgp

#endif  // BGPCU_BGP_WIRE_H
