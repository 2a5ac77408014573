#include "store/format.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace bgpcu::store {

namespace {

/// Decode-side caps: generous bounds that real data never approaches, so a
/// corrupt length varint cannot drive a multi-gigabyte allocation before the
/// payload bytes run out.
constexpr std::uint64_t kMaxPathLen = 1024;
constexpr std::uint64_t kMaxComms = 1u << 16;
constexpr std::uint64_t kMaxMarkPath = 1u << 12;
constexpr std::uint64_t kMaxListReserve = 1u << 20;

template <typename T>
void reserve_capped(std::vector<T>& v, std::uint64_t count) {
  v.reserve(static_cast<std::size_t>(std::min(count, kMaxListReserve)));
}

void put_tuple(std::vector<std::uint8_t>& out, const core::PathCommTuple& tuple) {
  put_varint(out, tuple.path.size());
  for (const auto asn : tuple.path) put_varint(out, asn);
  put_varint(out, tuple.comms.size());
  for (const auto& comm : tuple.comms) {
    out.push_back(static_cast<std::uint8_t>(comm.kind));
    put_varint(out, comm.upper);
    put_varint(out, comm.low1);
    put_varint(out, comm.low2);
  }
}

core::PathCommTuple get_tuple(Cursor& cursor) {
  core::PathCommTuple tuple;
  const auto path_len = cursor.varint("tuple path length");
  if (path_len == 0 || path_len > kMaxPathLen) {
    throw StoreError("store: tuple path length out of range");
  }
  tuple.path.reserve(static_cast<std::size_t>(path_len));
  for (std::uint64_t i = 0; i < path_len; ++i) {
    tuple.path.push_back(static_cast<bgp::Asn>(cursor.varint("path ASN")));
  }
  const auto comm_count = cursor.varint("community count");
  if (comm_count > kMaxComms) throw StoreError("store: community count out of range");
  tuple.comms.reserve(static_cast<std::size_t>(comm_count));
  for (std::uint64_t i = 0; i < comm_count; ++i) {
    bgp::CommunityValue comm;
    const auto kind = cursor.u8("community kind");
    if (kind > static_cast<std::uint8_t>(bgp::CommunityKind::kLarge)) {
      throw StoreError("store: unknown community kind");
    }
    comm.kind = static_cast<bgp::CommunityKind>(kind);
    comm.upper = static_cast<bgp::Asn>(cursor.varint("community upper"));
    comm.low1 = static_cast<std::uint32_t>(cursor.varint("community low1"));
    comm.low2 = static_cast<std::uint32_t>(cursor.varint("community low2"));
    tuple.comms.push_back(comm);
  }
  return tuple;
}

void put_marks(std::vector<std::uint8_t>& out, const stream::FeedMarks& marks) {
  put_varint(out, marks.size());
  for (const auto& mark : marks) {
    put_string(out, mark.path);
    put_varint(out, mark.offset);
  }
}

stream::FeedMarks get_marks(Cursor& cursor) {
  stream::FeedMarks marks;
  const auto count = cursor.varint("feed mark count");
  reserve_capped(marks, count);
  for (std::uint64_t i = 0; i < count; ++i) {
    stream::FeedMark mark;
    mark.path = cursor.string("feed mark path");
    if (mark.path.size() > kMaxMarkPath) {
      throw StoreError("store: feed mark path too long");
    }
    mark.offset = cursor.varint("feed mark offset");
    marks.push_back(std::move(mark));
  }
  return marks;
}

/// Wraps `payload` in `[magic][version][payload][u32le crc32(payload)]`.
std::vector<std::uint8_t> seal_file(const std::array<std::uint8_t, 4>& magic,
                                    std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 9);
  out.insert(out.end(), magic.begin(), magic.end());
  out.push_back(kStoreVersion);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32le(out, util::crc32(payload));
  return out;
}

/// Validates the envelope and returns the payload view.
std::span<const std::uint8_t> open_file(const std::array<std::uint8_t, 4>& magic,
                                        std::span<const std::uint8_t> bytes,
                                        const char* what) {
  if (bytes.size() < 9 || !std::equal(magic.begin(), magic.end(), bytes.begin())) {
    throw StoreError(std::string("store: bad ") + what + " magic");
  }
  if (bytes[4] != kStoreVersion) {
    throw StoreError(std::string("store: unsupported ") + what + " version");
  }
  const auto payload = bytes.subspan(5, bytes.size() - 9);
  const auto trailer = bytes.subspan(bytes.size() - 4);
  const std::uint32_t expected = static_cast<std::uint32_t>(trailer[0]) |
                                 (static_cast<std::uint32_t>(trailer[1]) << 8) |
                                 (static_cast<std::uint32_t>(trailer[2]) << 16) |
                                 (static_cast<std::uint32_t>(trailer[3]) << 24);
  if (util::crc32(payload) != expected) {
    throw StoreError(std::string("store: ") + what + " checksum mismatch");
  }
  return payload;
}

}  // namespace

// --------------------------------------------------------------- primitives

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

void put_f64(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& value) {
  put_varint(out, value.size());
  out.insert(out.end(), value.begin(), value.end());
}

void Cursor::require(std::size_t n, const char* what) const {
  if (data.size() - pos < n) {
    throw StoreError(std::string("store: truncated ") + what);
  }
}

std::uint8_t Cursor::u8(const char* what) {
  require(1, what);
  return data[pos++];
}

std::uint32_t Cursor::u32le(const char* what) {
  require(4, what);
  const std::uint8_t* b = data.data() + pos;
  pos += 4;
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t Cursor::varint(const char* what) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    const auto byte = u8(what);
    if (shift == 63 && byte > 1) {
      throw StoreError(std::string("store: varint overflow in ") + what);
    }
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) throw StoreError(std::string("store: varint overflow in ") + what);
  }
}

double Cursor::f64(const char* what) {
  require(8, what);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits = (bits << 8) | data[pos++];
  return std::bit_cast<double>(bits);
}

std::string Cursor::string(const char* what) {
  const auto size = varint(what);
  require(static_cast<std::size_t>(size), what);
  std::string value(reinterpret_cast<const char*>(data.data() + pos),
                    static_cast<std::size_t>(size));
  pos += static_cast<std::size_t>(size);
  return value;
}

std::span<const std::uint8_t> Cursor::bytes(std::size_t n, const char* what) {
  require(n, what);
  const auto view = data.subspan(pos, n);
  pos += n;
  return view;
}

// -------------------------------------------------------------- WAL records

namespace {

/// Wraps a finished payload in the `[u32le len][u32le crc32][payload]`
/// record envelope.
void seal_record(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& payload) {
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, util::crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

void encode_record(std::vector<std::uint8_t>& out, const WalRecord& record) {
  if (record.kind == RecordKind::kEpochBatch) {
    encode_batch_record(out, record.epoch, record.marks, record.batch);
    return;
  }
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(record.kind));
  put_varint(payload, record.epoch);
  put_varint(payload, record.delta_frame.size());
  payload.insert(payload.end(), record.delta_frame.begin(), record.delta_frame.end());
  seal_record(out, payload);
}

void encode_batch_record(std::vector<std::uint8_t>& out, stream::Epoch epoch,
                         const stream::FeedMarks& marks, const core::Dataset& batch) {
  std::vector<std::uint8_t> payload;
  // Rough per-tuple estimate (short path + one community) so the payload
  // grows without repeated reallocation on big epochs.
  payload.reserve(batch.size() * 16 + 64);
  payload.push_back(static_cast<std::uint8_t>(RecordKind::kEpochBatch));
  put_varint(payload, epoch);
  put_marks(payload, marks);
  put_varint(payload, batch.size());
  for (const auto& tuple : batch) put_tuple(payload, tuple);
  seal_record(out, payload);
}

WalRecord decode_record(Cursor& cursor) {
  const auto length = cursor.u32le("record length");
  if (length > kMaxRecordPayload) throw StoreError("store: record length out of range");
  const auto expected_crc = cursor.u32le("record checksum");
  const auto payload = cursor.bytes(length, "record payload");
  if (util::crc32(payload) != expected_crc) {
    throw StoreError("store: record checksum mismatch");
  }

  Cursor body{payload};
  WalRecord record;
  const auto kind = body.u8("record kind");
  switch (kind) {
    case static_cast<std::uint8_t>(RecordKind::kEpochBatch): {
      record.kind = RecordKind::kEpochBatch;
      record.epoch = body.varint("record epoch");
      record.marks = get_marks(body);
      const auto count = body.varint("batch tuple count");
      reserve_capped(record.batch, count);
      for (std::uint64_t i = 0; i < count; ++i) record.batch.push_back(get_tuple(body));
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kEpochDelta): {
      record.kind = RecordKind::kEpochDelta;
      record.epoch = body.varint("record epoch");
      const auto size = body.varint("delta frame size");
      const auto frame = body.bytes(static_cast<std::size_t>(size), "delta frame");
      record.delta_frame.assign(frame.begin(), frame.end());
      break;
    }
    default:
      throw StoreError("store: unknown record kind");
  }
  if (!body.done()) throw StoreError("store: trailing bytes in record payload");
  return record;
}

// --------------------------------------------------------- checkpoint state

std::vector<std::uint8_t> encode_state_file(const StateFile& state) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, state.shards);
  put_varint(payload, state.window_epochs);
  payload.push_back(1);  // retired index-mode flag
  put_f64(payload, state.thresholds.tagger);
  put_f64(payload, state.thresholds.silent);
  put_f64(payload, state.thresholds.forward);
  put_f64(payload, state.thresholds.cleaner);
  put_varint(payload, state.max_columns);
  payload.push_back(state.early_stop ? 1 : 0);

  put_varint(payload, state.engine.epoch);
  put_varint(payload, state.engine.evicted_total);
  put_marks(payload, state.marks);
  put_varint(payload, state.engine.shards.size());
  for (const auto& shard : state.engine.shards) {
    put_varint(payload, shard.next_key);
    put_varint(payload, shard.tuples.size());
    for (const auto& stored : shard.tuples) {
      put_varint(payload, stored.last_seen);
      put_varint(payload, stored.key);
      put_tuple(payload, stored.tuple);
    }
  }
  return seal_file(kStateMagic, std::move(payload));
}

StateFile decode_state_file(std::span<const std::uint8_t> bytes) {
  Cursor cursor{open_file(kStateMagic, bytes, "state file")};
  StateFile state;
  state.shards = cursor.varint("shard config");
  state.window_epochs = cursor.varint("window config");
  (void)cursor.u8("retired index-mode flag");
  state.thresholds.tagger = cursor.f64("tagger threshold");
  state.thresholds.silent = cursor.f64("silent threshold");
  state.thresholds.forward = cursor.f64("forward threshold");
  state.thresholds.cleaner = cursor.f64("cleaner threshold");
  state.max_columns = cursor.varint("max columns");
  state.early_stop = cursor.u8("early stop flag") != 0;

  state.engine.epoch = cursor.varint("engine epoch");
  state.engine.evicted_total = cursor.varint("evicted total");
  state.marks = get_marks(cursor);
  const auto shard_count = cursor.varint("shard count");
  if (shard_count > (1u << 16)) throw StoreError("store: shard count out of range");
  state.engine.shards.resize(static_cast<std::size_t>(shard_count));
  for (auto& shard : state.engine.shards) {
    shard.next_key = cursor.varint("shard next key");
    const auto tuples = cursor.varint("shard tuple count");
    reserve_capped(shard.tuples, tuples);
    for (std::uint64_t i = 0; i < tuples; ++i) {
      stream::StoredTuple stored;
      stored.last_seen = cursor.varint("tuple last seen");
      stored.key = cursor.varint("tuple key");
      stored.tuple = get_tuple(cursor);
      shard.tuples.push_back(std::move(stored));
    }
  }
  if (!cursor.done()) throw StoreError("store: trailing bytes in state file");
  return state;
}

// ------------------------------------------------------------------ manifest

bool Manifest::has_checkpoint(stream::Epoch epoch) const noexcept {
  return std::find(checkpoints.begin(), checkpoints.end(), epoch) != checkpoints.end();
}

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, manifest.checkpoints.size());
  stream::Epoch prev = 0;
  bool first = true;
  for (const auto epoch : manifest.checkpoints) {
    if (!first && epoch <= prev) {
      throw StoreError("store: manifest checkpoints must ascend");
    }
    put_varint(payload, first ? epoch : epoch - prev);
    prev = epoch;
    first = false;
  }
  put_varint(payload, manifest.wal_start_seq);
  return seal_file(kManifestMagic, std::move(payload));
}

Manifest decode_manifest(std::span<const std::uint8_t> bytes) {
  Cursor cursor{open_file(kManifestMagic, bytes, "manifest")};
  Manifest manifest;
  const auto count = cursor.varint("checkpoint count");
  reserve_capped(manifest.checkpoints, count);
  stream::Epoch prev = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto delta = cursor.varint("checkpoint epoch");
    if (!first && delta == 0) throw StoreError("store: manifest checkpoints must ascend");
    const auto epoch = first ? delta : prev + delta;
    manifest.checkpoints.push_back(epoch);
    prev = epoch;
    first = false;
  }
  manifest.wal_start_seq = cursor.varint("wal start seq");
  if (!cursor.done()) throw StoreError("store: trailing bytes in manifest");
  return manifest;
}

// ---------------------------------------------------------------- file names

std::string segment_path(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%012llu.log",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST"; }

std::string checkpoint_path(const std::string& dir, stream::Epoch epoch,
                            const char* suffix) {
  char name[48];
  std::snprintf(name, sizeof(name), "ckpt-%012llu%s",
                static_cast<unsigned long long>(epoch), suffix);
  return dir + "/" + name;
}

bool parse_segment_name(const std::string& name, std::uint64_t& seq) {
  if (name.size() != 4 + 12 + 4 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(16, 4, ".log") != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 4; i < 16; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  seq = value;
  return true;
}

bool parse_checkpoint_name(const std::string& name, const char* suffix,
                           stream::Epoch& epoch) {
  const std::string tail(suffix);
  if (name.size() != 5 + 12 + tail.size() || name.compare(0, 5, "ckpt-") != 0 ||
      name.compare(17, tail.size(), tail) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 5; i < 17; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  epoch = value;
  return true;
}

}  // namespace bgpcu::store
