// IEEE CRC-32 (the zlib/PNG polynomial) behind the durable store's record
// and file framing. Table-driven, no dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace bgpcu::util {

/// Continues a CRC-32 computation. Start with `crc = 0` and feed chunks in
/// order; the final value matches zlib's crc32() over the concatenation.
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc,
                                         const std::uint8_t* data,
                                         std::size_t size) noexcept;

/// One-shot CRC-32 of a byte span.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  return crc32_update(0, bytes.data(), bytes.size());
}

}  // namespace bgpcu::util
