// On-disk byte formats for the durable store (docs/PERSISTENCE.md). These
// file kinds live in a data directory, all CRC-framed so recovery can tell
// torn or corrupted bytes from real data:
//
//   wal-<seq>.log        segment header + CRC-framed WAL records
//   ckpt-<epoch>.state   engine state (config fingerprint, shards, feed marks)
//   ckpt-<epoch>.snap    the published snapshot as a standard wire frame
//   MANIFEST             retained checkpoint epochs + first live WAL segment
//
// Older stores also wrote ckpt-<epoch>.index, an image of the sweep index.
// Recovery never reads one (it rebuilds the index from the restored
// shards), and the next checkpoint's GC deletes them.
//
// The store shares the repo's varint/LEB128 idiom with src/api/wire.cc but
// owns its primitives: wire.cc's helpers are file-private by design, and the
// store's failure currency is StoreError, not WireFormatError.
#ifndef BGPCU_STORE_FORMAT_H
#define BGPCU_STORE_FORMAT_H

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/types.h"
#include "stream/engine.h"
#include "stream/feed.h"

namespace bgpcu::store {

/// The store's sole decode/IO failure currency. Decode-side throws mean "this
/// byte range is not a valid record" — recovery truncates or skips and warns,
/// it never crashes. Write-side throws mean the disk rejected an operation
/// (ENOSPC, EIO); the store degrades to in-memory-only serving.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------- framing --

inline constexpr std::array<std::uint8_t, 4> kSegmentMagic = {0x89, 'B', 'C', 'W'};
inline constexpr std::array<std::uint8_t, 4> kManifestMagic = {0x89, 'B', 'C', 'M'};
inline constexpr std::array<std::uint8_t, 4> kStateMagic = {0x89, 'B', 'C', 'T'};
inline constexpr std::uint8_t kStoreVersion = 1;

/// Upper bound on one WAL record's payload; anything larger is corruption.
inline constexpr std::uint64_t kMaxRecordPayload = 64ull * 1024 * 1024;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);
void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t value);
void put_f64(std::vector<std::uint8_t>& out, double value);
void put_string(std::vector<std::uint8_t>& out, const std::string& value);

/// Bounds-checked reader over store bytes; every primitive throws StoreError
/// on truncation or malformed data.
struct Cursor {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const noexcept { return pos >= data.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data.size() - pos; }
  void require(std::size_t n, const char* what) const;
  std::uint8_t u8(const char* what);
  std::uint32_t u32le(const char* what);
  std::uint64_t varint(const char* what);
  double f64(const char* what);
  std::string string(const char* what);
  std::span<const std::uint8_t> bytes(std::size_t n, const char* what);
};

// ------------------------------------------------------------ WAL records --

/// What one WAL record carries.
enum class RecordKind : std::uint8_t {
  /// The epoch's raw ingest batch (sanitized tuples straight from the feed)
  /// plus the feed's post-poll read offsets. Written *before* the batch is
  /// applied to the engine, so replaying [checkpoint, tail] reproduces the
  /// uninterrupted engine exactly without re-parsing MRT bytes.
  kEpochBatch = 1,
  /// The epoch's published class-change delta as a standard wire frame
  /// (api::encode_delta_batch). Replay seeds the event-log ring and the
  /// history tail; it is never applied to the engine.
  kEpochDelta = 2,
};

/// One decoded WAL record.
struct WalRecord {
  RecordKind kind = RecordKind::kEpochBatch;
  stream::Epoch epoch = 0;
  core::Dataset batch;             ///< kEpochBatch
  stream::FeedMarks marks;         ///< kEpochBatch
  std::vector<std::uint8_t> delta_frame;  ///< kEpochDelta (wire frame bytes)
};

/// Encodes one record with its `[u32le len][u32le crc32][payload]` envelope.
void encode_record(std::vector<std::uint8_t>& out, const WalRecord& record);

/// Encodes a kEpochBatch record straight from the caller's batch — the hot
/// per-epoch append path, which must not deep-copy the Dataset into a
/// WalRecord first (each tuple carries two heap vectors; the copy dominates
/// the whole append at realistic batch sizes).
void encode_batch_record(std::vector<std::uint8_t>& out, stream::Epoch epoch,
                         const stream::FeedMarks& marks, const core::Dataset& batch);

/// Decodes the record at `cursor`, advancing past it. Throws StoreError on a
/// torn or corrupt record (cursor position is then unspecified).
[[nodiscard]] WalRecord decode_record(Cursor& cursor);

// ------------------------------------------------------- checkpoint state --

/// The engine-state checkpoint file: the stream engine's durable state plus
/// the configuration fingerprint it was taken under. Recovery refuses state
/// whose fingerprint disagrees with the running config in ways that change
/// semantics (thresholds, window) and adapts where it can (shard count).
/// The byte after the window field once recorded an index mode: it is
/// written as 1 and ignored on read, so the format keeps its version.
struct StateFile {
  std::uint64_t shards = 0;
  std::uint64_t window_epochs = 0;
  core::Thresholds thresholds;
  std::uint64_t max_columns = 0;
  bool early_stop = true;
  stream::EngineState engine;
  stream::FeedMarks marks;
};

[[nodiscard]] std::vector<std::uint8_t> encode_state_file(const StateFile& state);
[[nodiscard]] StateFile decode_state_file(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------- manifest --

/// Names the store's durable contents: which checkpoint epochs are retained
/// (ascending; the last is the recovery base) and the first WAL segment that
/// is still live. Written last in a checkpoint, atomically — the manifest is
/// the commit point.
struct Manifest {
  std::vector<stream::Epoch> checkpoints;
  std::uint64_t wal_start_seq = 0;

  [[nodiscard]] bool has_checkpoint(stream::Epoch epoch) const noexcept;
};

[[nodiscard]] std::vector<std::uint8_t> encode_manifest(const Manifest& manifest);
[[nodiscard]] Manifest decode_manifest(std::span<const std::uint8_t> bytes);

// ------------------------------------------------------------- file names --

[[nodiscard]] std::string segment_path(const std::string& dir, std::uint64_t seq);
[[nodiscard]] std::string manifest_path(const std::string& dir);
[[nodiscard]] std::string checkpoint_path(const std::string& dir, stream::Epoch epoch,
                                          const char* suffix);

/// Parses "<dir>/wal-<seq>.log"; returns false when `name` is not a segment.
[[nodiscard]] bool parse_segment_name(const std::string& name, std::uint64_t& seq);

/// Parses "ckpt-<epoch><suffix>"; returns false on mismatch.
[[nodiscard]] bool parse_checkpoint_name(const std::string& name, const char* suffix,
                                         stream::Epoch& epoch);

}  // namespace bgpcu::store

#endif  // BGPCU_STORE_FORMAT_H
