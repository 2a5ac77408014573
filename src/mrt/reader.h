// Streaming MRT readers. `MrtReader` iterates records in an in-memory
// buffer; `MrtFileReader` memory-loads a file first. Both run in a tolerant
// mode modeled on production collectors: a record with a corrupt body is
// counted and skipped (the common header's length field still frames it), so
// one bad record cannot poison a multi-gigabyte dump.
#ifndef BGPCU_MRT_READER_H
#define BGPCU_MRT_READER_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mrt/record.h"

namespace bgpcu::mrt {

/// Counters describing what a reader encountered.
struct ReaderStats {
  std::uint64_t records = 0;        ///< Well-framed records returned.
  std::uint64_t skipped = 0;        ///< Records dropped by the type filter.
  std::uint64_t truncated_tail = 0; ///< Bytes of unparseable trailing data.

  friend bool operator==(const ReaderStats&, const ReaderStats&) = default;
};

/// Iterates MRT records over a borrowed byte buffer. The buffer must outlive
/// the reader.
class MrtReader {
 public:
  explicit MrtReader(std::span<const std::uint8_t> data) : reader_(data) {}

  /// Returns the next record with its body viewed in place, or nullopt at
  /// end of input. A truncated tail (partial header or body) ends the input
  /// and is reported via stats; framing never throws.
  std::optional<RecordView> next_view();

  /// `next_view` with the body copied into an owning record.
  std::optional<RawRecord> next();

  [[nodiscard]] const ReaderStats& stats() const noexcept { return stats_; }

  /// Offset just past the last record returned. Once the reader is drained
  /// this is the length of the prefix covered by complete records, which is
  /// where a tail reader resumes when the writer finishes the partial one.
  [[nodiscard]] std::size_t records_end() const noexcept { return records_end_; }

 private:
  bgp::ByteReader reader_;
  ReaderStats stats_;
  std::size_t records_end_ = 0;
};

/// Loads a file's raw bytes (the shared helper behind the file-based
/// consumers). Throws WireError when the file cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> load_file(const std::string& path);

/// Loads an MRT file fully into memory and exposes `records()`. Suitable for
/// the file sizes the simulator emits; real multi-GB dumps would use the
/// streaming reader on an mmap.
class MrtFileReader {
 public:
  explicit MrtFileReader(const std::string& path);

  [[nodiscard]] const std::vector<RawRecord>& records() const noexcept { return records_; }
  [[nodiscard]] const ReaderStats& stats() const noexcept { return stats_; }

 private:
  std::vector<RawRecord> records_;
  ReaderStats stats_;
};

}  // namespace bgpcu::mrt

#endif  // BGPCU_MRT_READER_H
