#include "bgp/wire.h"

namespace bgpcu::bgp {

void ByteReader::throw_underrun(std::size_t n) const {
  throw WireError("buffer underrun: need " + std::to_string(n) + " bytes, have " +
                  std::to_string(remaining()));
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::size_t ByteWriter::placeholder(std::size_t width) {
  const std::size_t off = buf_.size();
  buf_.insert(buf_.end(), width, 0);
  return off;
}

void ByteWriter::patch_u8(std::size_t offset, std::uint8_t v) { buf_.at(offset) = v; }

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf_.at(offset + i) = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
}

}  // namespace bgpcu::bgp
