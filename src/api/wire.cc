#include "api/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "core/database.h"

namespace bgpcu::api {

namespace {

// ------------------------------------------------------------ primitives --

/// Unsigned LEB128: 7 value bits per byte, high bit = continuation. At most
/// 10 bytes encode a u64.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// IEEE-754 bit pattern, big-endian — stable across hosts.
void put_f64(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

/// Bounds-checked reader; every underrun or malformed primitive throws
/// WireFormatError (the decoders' single failure currency).
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const noexcept { return data.size() - pos; }

  void require(std::size_t n, const char* what) const {
    if (remaining() < n) {
      throw WireFormatError(std::string("truncated wire input reading ") + what);
    }
  }

  std::uint8_t u8(const char* what) {
    require(1, what);
    return data[pos++];
  }

  std::span<const std::uint8_t> bytes(std::size_t n, const char* what) {
    require(n, what);
    const auto view = data.subspan(pos, n);
    pos += n;
    return view;
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const auto byte = u8(what);
      if (shift == 63 && (byte & 0xFE)) {
        throw WireFormatError(std::string("varint overflow in ") + what);
      }
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
    }
    throw WireFormatError(std::string("varint too long in ") + what);
  }

  double f64(const char* what) {
    const auto raw = bytes(8, what);
    std::uint64_t bits = 0;
    for (const auto byte : raw) bits = (bits << 8) | byte;
    return std::bit_cast<double>(bits);
  }
};

// ---------------------------------------------------------------- framing --

void put_frame_header(std::vector<std::uint8_t>& out, FrameType type) {
  out.insert(out.end(), kWireMagic.begin(), kWireMagic.end());
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(type));
}

/// Finishes a frame started with put_frame_header: everything appended after
/// the header becomes the payload, prefixed with its varint length.
std::vector<std::uint8_t> seal_frame(FrameType type, std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(payload.size() + 16);
  put_frame_header(frame, type);
  put_varint(frame, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// Rejects a frame-type byte no frame may carry: out of range, or one of
/// the retired types, which are never reused.
void check_frame_type(std::uint8_t type_byte) {
  if (type_byte < 1 || type_byte > kMaxFrameType) {
    throw WireFormatError("unknown frame type " + std::to_string(type_byte));
  }
  if (type_byte == 3 || type_byte == 4) {
    throw WireFormatError("retired frame type " + std::to_string(type_byte) +
                          " (the pre-v4 query request/response)");
  }
  if (type_byte == 5 || type_byte == 6) {
    throw WireFormatError("retired frame type " + std::to_string(type_byte) +
                          " (the pre-v3 hello/welcome)");
  }
}

Frame parse_frame(Reader& r) {
  const auto frame =
      try_parse_frame(r.data.subspan(r.pos), std::numeric_limits<std::size_t>::max());
  if (!frame) {
    throw WireFormatError("truncated frame: " + std::to_string(r.remaining()) +
                          " bytes do not hold a whole frame");
  }
  r.pos += frame->size;
  return *frame;
}

/// Decodes the single frame that must span `data` exactly, checking its type.
Frame expect_single_frame(std::span<const std::uint8_t> data, FrameType type,
                          const char* what) {
  Reader r{data};
  const auto frame = parse_frame(r);
  if (frame.type != type) {
    throw WireFormatError(std::string("expected a ") + what + " frame, got type " +
                          std::to_string(static_cast<int>(frame.type)));
  }
  if (r.remaining() != 0) {
    throw WireFormatError(std::string("trailing garbage after ") + what + " frame");
  }
  return frame;
}

void expect_exhausted(const Reader& r, const char* what) {
  if (r.remaining() != 0) {
    throw WireFormatError(std::string("trailing garbage inside ") + what + " payload");
  }
}

// ------------------------------------------------------- shared payloads --

void put_counters(std::vector<std::uint8_t>& out, const core::UsageCounters& k) {
  put_varint(out, k.t);
  put_varint(out, k.s);
  put_varint(out, k.f);
  put_varint(out, k.c);
}

core::UsageCounters get_counters(Reader& r) {
  core::UsageCounters k;
  k.t = r.varint("counter t");
  k.s = r.varint("counter s");
  k.f = r.varint("counter f");
  k.c = r.varint("counter c");
  return k;
}

/// Class byte: tagging in the high nibble, forwarding in the low, enum
/// values 0..3 each.
std::uint8_t class_byte(const core::UsageClass& usage) {
  return static_cast<std::uint8_t>((static_cast<unsigned>(usage.tagging) << 4) |
                                   static_cast<unsigned>(usage.forwarding));
}

core::UsageClass get_class(Reader& r) {
  const auto byte = r.u8("class byte");
  const auto tagging = byte >> 4;
  const auto forwarding = byte & 0x0F;
  if (tagging > 3 || forwarding > 3) {
    throw WireFormatError("invalid class byte " + std::to_string(byte));
  }
  return {static_cast<core::TaggingClass>(tagging),
          static_cast<core::ForwardingClass>(forwarding)};
}

/// Reads one delta-encoded ASN in an ascending sequence. `prev` is nullopt
/// for the first entry (absolute); later entries must strictly increase.
bgp::Asn get_asn_delta(Reader& r, std::optional<std::uint64_t>& prev) {
  const auto delta = r.varint("asn delta");
  std::uint64_t asn = delta;
  if (prev) {
    if (delta == 0) throw WireFormatError("duplicate ASN in wire record sequence");
    asn = *prev + delta;
  }
  if (asn > 0xFFFFFFFFull) {
    throw WireFormatError("ASN " + std::to_string(asn) + " out of 32-bit range");
  }
  prev = asn;
  return static_cast<bgp::Asn>(asn);
}

void put_snapshot_payload(std::vector<std::uint8_t>& out,
                          const core::InferenceResult& result) {
  const auto& th = result.thresholds();
  put_f64(out, th.tagger);
  put_f64(out, th.silent);
  put_f64(out, th.forward);
  put_f64(out, th.cleaner);
  put_varint(out, result.columns_swept());

  std::vector<std::pair<bgp::Asn, core::UsageCounters>> rows(
      result.counter_map().begin(), result.counter_map().end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  put_varint(out, rows.size());
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& [asn, counters] : rows) {
    put_varint(out, first ? asn : asn - prev);
    put_counters(out, counters);
    prev = asn;
    first = false;
  }
}

core::InferenceResult get_snapshot_payload(Reader& r) {
  core::Thresholds th;
  th.tagger = r.f64("threshold tagger");
  th.silent = r.f64("threshold silent");
  th.forward = r.f64("threshold forward");
  th.cleaner = r.f64("threshold cleaner");
  const auto columns = r.varint("columns swept");
  const auto count = r.varint("record count");

  core::CounterMap counters;
  counters.reserve(count < (1u << 20) ? count : (1u << 20));
  std::optional<std::uint64_t> prev;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto asn = get_asn_delta(r, prev);
    counters.emplace(asn, get_counters(r));
  }
  return core::InferenceResult(std::move(counters), th, static_cast<std::size_t>(columns));
}

void put_delta_payload(std::vector<std::uint8_t>& out, const EpochDelta& delta) {
  put_varint(out, delta.epoch);
  put_varint(out, delta.changes.size());
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& change : delta.changes) {
    // The delta encoding needs strictly ascending ASNs (diff_classifications
    // emits them that way); fail at encode time, not at every later decode.
    if (!first && change.asn <= prev) {
      throw WireFormatError("delta changes must be sorted by strictly ascending ASN");
    }
    put_varint(out, first ? change.asn : change.asn - prev);
    out.push_back(class_byte(change.before));
    out.push_back(class_byte(change.after));
    prev = change.asn;
    first = false;
  }
}

EpochDelta get_delta_payload(Reader& r) {
  EpochDelta delta;
  delta.epoch = r.varint("epoch");
  const auto count = r.varint("change count");
  delta.changes.reserve(count < (1u << 20) ? count : (1u << 20));
  std::optional<std::uint64_t> prev;
  for (std::uint64_t i = 0; i < count; ++i) {
    stream::ClassChange change;
    change.asn = get_asn_delta(r, prev);
    change.before = get_class(r);
    change.after = get_class(r);
    delta.changes.push_back(change);
  }
  return delta;
}

/// Length-prefixed UTF-8-agnostic byte string (auth tokens, error messages).
/// Capped well below any frame limit so a corrupt length cannot balloon.
constexpr std::uint64_t kMaxStringBytes = 4096;

void put_string(std::vector<std::uint8_t>& out, const std::string& text) {
  if (text.size() > kMaxStringBytes) {
    throw WireFormatError("wire string longer than " + std::to_string(kMaxStringBytes) +
                          " bytes");
  }
  put_varint(out, text.size());
  out.insert(out.end(), text.begin(), text.end());
}

std::string get_string(Reader& r, const char* what) {
  const auto length = r.varint(what);
  if (length > kMaxStringBytes) {
    throw WireFormatError(std::string("wire string too long in ") + what);
  }
  const auto raw = r.bytes(static_cast<std::size_t>(length), what);
  return {raw.begin(), raw.end()};
}

/// A transition-spec side: 0x00 for "*", else 0x01 + the two code chars.
void put_code_spec(std::vector<std::uint8_t>& out, const std::string& code) {
  if (code == "*") {
    out.push_back(0);
    return;
  }
  if (!SubscriptionFilter::valid_code(code)) {
    throw WireFormatError("invalid class code spec '" + code + "'");
  }
  out.push_back(1);
  out.push_back(static_cast<std::uint8_t>(code[0]));
  out.push_back(static_cast<std::uint8_t>(code[1]));
}

std::string get_code_spec(Reader& r, const char* what) {
  const auto tag = r.u8(what);
  if (tag == 0) return "*";
  if (tag != 1) throw WireFormatError(std::string("invalid code-spec tag in ") + what);
  const auto raw = r.bytes(2, what);
  std::string code{static_cast<char>(raw[0]), static_cast<char>(raw[1])};
  if (!SubscriptionFilter::valid_code(code)) {
    throw WireFormatError(std::string("invalid class code in ") + what);
  }
  return code;
}

// ----------------------------------------------------------- frame codecs --

}  // namespace

std::optional<Frame> FrameReader::next() {
  if (pos_ >= data_.size()) return std::nullopt;
  Reader r{data_, pos_};
  const auto frame = parse_frame(r);
  pos_ = r.pos;
  return frame;
}

std::optional<Frame> try_parse_frame(std::span<const std::uint8_t> data,
                                     std::size_t max_payload) {
  // Validate the header byte-by-byte as far as the buffer reaches: a prefix
  // that can never become a valid frame must throw *now* (the transport
  // would otherwise wait forever for more bytes that cannot help).
  const auto have = data.size();
  for (std::size_t i = 0; i < kWireMagic.size(); ++i) {
    if (i >= have) return std::nullopt;
    if (data[i] != kWireMagic[i]) {
      throw WireFormatError("not a bgpcu wire frame (bad magic)");
    }
  }
  if (have < 5) return std::nullopt;
  const auto version = data[4];
  if (version == 0 || version > kWireVersion) {
    throw WireFormatError("unsupported wire version " + std::to_string(version) +
                          " (this build reads <= " + std::to_string(kWireVersion) + ")");
  }
  if (have < 6) return std::nullopt;
  const auto type_byte = data[5];
  check_frame_type(type_byte);
  // Payload length varint, parsed incrementally.
  std::uint64_t length = 0;
  std::size_t pos = 6;
  for (unsigned shift = 0;; shift += 7) {
    if (shift >= 64) throw WireFormatError("varint too long in frame payload length");
    if (pos >= have) return std::nullopt;
    const auto byte = data[pos++];
    if (shift == 63 && (byte & 0xFE)) {
      throw WireFormatError("varint overflow in frame payload length");
    }
    length |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  if (length > max_payload) {
    throw WireFormatError("frame payload length " + std::to_string(length) +
                          " exceeds the " + std::to_string(max_payload) + "-byte cap");
  }
  if (have - pos < length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.payload = data.subspan(pos, static_cast<std::size_t>(length));
  frame.size = pos + static_cast<std::size_t>(length);
  return frame;
}

FrameType peek_frame_type(std::span<const std::uint8_t> data) {
  Reader r{data};
  return parse_frame(r).type;
}

std::vector<std::uint8_t> encode_snapshot(const core::InferenceResult& result) {
  std::vector<std::uint8_t> payload;
  payload.reserve(result.counter_map().size() * 8 + 64);
  put_snapshot_payload(payload, result);
  return seal_frame(FrameType::kSnapshot, std::move(payload));
}

core::InferenceResult decode_snapshot(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kSnapshot, "snapshot");
  Reader r{parsed.payload};
  auto result = get_snapshot_payload(r);
  expect_exhausted(r, "snapshot");
  return result;
}

std::vector<std::uint8_t> encode_delta_batch(const EpochDelta& delta) {
  std::vector<std::uint8_t> payload;
  payload.reserve(delta.changes.size() * 4 + 16);
  put_delta_payload(payload, delta);
  return seal_frame(FrameType::kDeltaBatch, std::move(payload));
}

EpochDelta decode_delta_batch(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kDeltaBatch, "delta batch");
  Reader r{parsed.payload};
  auto delta = get_delta_payload(r);
  expect_exhausted(r, "delta batch");
  return delta;
}

namespace {

QueryKind get_query_kind(Reader& r) {
  const auto byte = r.u8("query kind");
  if (byte < 1 || byte > 6) {
    throw WireFormatError("unknown query kind " + std::to_string(byte));
  }
  return static_cast<QueryKind>(byte);
}

// Metrics scrape payload (QueryKind::kMetrics). Decode caps are deliberate:
// a scrape is bounded by the instrument catalog, so a frame claiming
// thousands of families or oversized histograms is corrupt (or hostile),
// never legitimate.
constexpr std::uint64_t kMaxMetricFamilies = 4096;
constexpr std::uint64_t kMaxMetricSeries = 4096;
constexpr std::uint64_t kMaxHistogramBuckets = 64;

void put_metrics_payload(std::vector<std::uint8_t>& out, const obs::Snapshot& snapshot) {
  put_varint(out, snapshot.size());
  for (const auto& family : snapshot) {
    put_string(out, family.name);
    put_string(out, family.help);
    out.push_back(static_cast<std::uint8_t>(family.type));
    put_varint(out, family.series.size());
    for (const auto& series : family.series) {
      put_string(out, series.labels);
      if (family.type == obs::MetricType::kHistogram) {
        const auto& hist = series.hist.value();
        put_varint(out, hist.buckets.size());
        for (const auto bucket : hist.buckets) put_varint(out, bucket);
        put_varint(out, hist.count);
        put_varint(out, hist.sum);
      } else {
        put_f64(out, series.value);
      }
    }
  }
}

obs::Snapshot get_metrics_payload(Reader& r) {
  const auto family_count = r.varint("metrics family count");
  if (family_count > kMaxMetricFamilies) {
    throw WireFormatError("metrics family count exceeds the cap");
  }
  obs::Snapshot snapshot;
  snapshot.reserve(static_cast<std::size_t>(family_count));
  for (std::uint64_t f = 0; f < family_count; ++f) {
    obs::Family family;
    family.name = get_string(r, "metric family name");
    family.help = get_string(r, "metric family help");
    const auto type_byte = r.u8("metric family type");
    if (type_byte < 1 || type_byte > 3) {
      throw WireFormatError("unknown metric type " + std::to_string(type_byte));
    }
    family.type = static_cast<obs::MetricType>(type_byte);
    const auto series_count = r.varint("metric series count");
    if (series_count > kMaxMetricSeries) {
      throw WireFormatError("metric series count exceeds the cap");
    }
    family.series.reserve(static_cast<std::size_t>(series_count));
    for (std::uint64_t s = 0; s < series_count; ++s) {
      obs::Series series;
      series.labels = get_string(r, "metric series labels");
      if (family.type == obs::MetricType::kHistogram) {
        const auto buckets = r.varint("histogram bucket count");
        if (buckets > kMaxHistogramBuckets) {
          throw WireFormatError("histogram bucket count exceeds the cap");
        }
        obs::HistogramData hist;
        hist.buckets.reserve(static_cast<std::size_t>(buckets));
        for (std::uint64_t b = 0; b < buckets; ++b) {
          hist.buckets.push_back(r.varint("histogram bucket"));
        }
        hist.count = r.varint("histogram count");
        hist.sum = r.varint("histogram sum");
        series.hist = std::move(hist);
      } else {
        series.value = r.f64("metric value");
      }
      family.series.push_back(std::move(series));
    }
    snapshot.push_back(std::move(family));
  }
  return snapshot;
}

/// True for the kinds answered from the published epoch, whose responses
/// carry that epoch after the kind byte.
bool carries_epoch(QueryKind kind) {
  return kind == QueryKind::kClassOf || kind == QueryKind::kSnapshot ||
         kind == QueryKind::kHistory;
}

/// True for the kinds whose request names one AS.
bool names_asn(QueryKind kind) {
  return kind == QueryKind::kClassOf || kind == QueryKind::kLiveCounters ||
         kind == QueryKind::kHistory;
}

/// The kResponse body after its request id.
void put_query_response_payload(std::vector<std::uint8_t>& payload,
                                const QueryResponse& response) {
  payload.push_back(static_cast<std::uint8_t>(response.kind));
  if (carries_epoch(response.kind)) put_varint(payload, response.epoch);
  switch (response.kind) {
    case QueryKind::kClassOf:
    case QueryKind::kLiveCounters: {
      if (!response.asn_class) {
        throw WireFormatError("per-ASN query response missing asn_class");
      }
      put_varint(payload, response.asn_class->asn);
      payload.push_back(class_byte(response.asn_class->usage));
      put_counters(payload, response.asn_class->counters);
      break;
    }
    case QueryKind::kSnapshot: {
      if (!response.snapshot) {
        throw WireFormatError("snapshot query response missing snapshot");
      }
      put_snapshot_payload(payload, *response.snapshot);
      break;
    }
    case QueryKind::kStats: {
      if (!response.stats) throw WireFormatError("stats query response missing stats");
      put_varint(payload, response.stats->epoch);
      put_varint(payload, response.stats->live_tuples);
      put_varint(payload, response.stats->evicted_total);
      put_varint(payload, response.stats->shards);
      put_varint(payload, response.stats->window_epochs);
      put_varint(payload, response.stats->subscriptions);
      put_varint(payload, response.stats->snapshot_sweeps);
      put_varint(payload, response.stats->snapshot_cache_hits);
      put_varint(payload, response.stats->index_deltas_applied);
      put_varint(payload, response.stats->index_compactions);
      put_varint(payload, response.stats->index_rebuilds);
      put_varint(payload, response.stats->locked_ns_last);
      put_varint(payload, response.stats->locked_ns_total);
      break;
    }
    case QueryKind::kMetrics: {
      if (!response.metrics) {
        throw WireFormatError("metrics query response missing metrics");
      }
      put_metrics_payload(payload, *response.metrics);
      break;
    }
    case QueryKind::kHistory: {
      if (!response.history) {
        throw WireFormatError("history query response missing history");
      }
      put_varint(payload, response.history->size());
      std::uint64_t prev = 0;
      bool first = true;
      for (const auto& point : *response.history) {
        // Epochs ascend strictly (the Service's response invariant), so the
        // sequence delta-encodes like the ASN lists do.
        if (!first && point.epoch <= prev) {
          throw WireFormatError("history points must be sorted by strictly ascending epoch");
        }
        put_varint(payload, first ? point.epoch : point.epoch - prev);
        payload.push_back(class_byte(point.usage));
        prev = point.epoch;
        first = false;
      }
      break;
    }
  }
}

QueryResponse get_query_response_payload(Reader& r) {
  QueryResponse response;
  response.kind = get_query_kind(r);
  if (carries_epoch(response.kind)) response.epoch = r.varint("response epoch");
  switch (response.kind) {
    case QueryKind::kClassOf:
    case QueryKind::kLiveCounters: {
      AsnClass info;
      const auto asn = r.varint("response asn");
      if (asn > 0xFFFFFFFFull) {
        throw WireFormatError("response ASN out of 32-bit range");
      }
      info.asn = static_cast<bgp::Asn>(asn);
      info.usage = get_class(r);
      info.counters = get_counters(r);
      response.asn_class = info;
      break;
    }
    case QueryKind::kSnapshot:
      response.snapshot =
          std::make_shared<const core::InferenceResult>(get_snapshot_payload(r));
      break;
    case QueryKind::kStats: {
      ServiceStats stats;
      stats.epoch = r.varint("stats epoch");
      stats.live_tuples = r.varint("stats live_tuples");
      stats.evicted_total = r.varint("stats evicted_total");
      stats.shards = r.varint("stats shards");
      stats.window_epochs = r.varint("stats window_epochs");
      stats.subscriptions = r.varint("stats subscriptions");
      stats.snapshot_sweeps = r.varint("stats snapshot_sweeps");
      stats.snapshot_cache_hits = r.varint("stats snapshot_cache_hits");
      stats.index_deltas_applied = r.varint("stats index_deltas_applied");
      stats.index_compactions = r.varint("stats index_compactions");
      stats.index_rebuilds = r.varint("stats index_rebuilds");
      stats.locked_ns_last = r.varint("stats locked_ns_last");
      stats.locked_ns_total = r.varint("stats locked_ns_total");
      response.stats = stats;
      break;
    }
    case QueryKind::kMetrics:
      response.metrics = get_metrics_payload(r);
      break;
    case QueryKind::kHistory: {
      const auto count = r.varint("history point count");
      std::vector<HistoryPoint> points;
      points.reserve(count < (1u << 20) ? count : (1u << 20));
      std::uint64_t prev = 0;
      bool first = true;
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto delta = r.varint("history epoch delta");
        if (!first && delta == 0) {
          throw WireFormatError("duplicate epoch in history sequence");
        }
        HistoryPoint point;
        point.epoch = first ? delta : prev + delta;
        point.usage = get_class(r);
        prev = point.epoch;
        first = false;
        points.push_back(point);
      }
      response.history = std::move(points);
      break;
    }
  }
  return response;
}

}  // namespace

// ------------------------------------------------- network protocol frames --

std::vector<std::uint8_t> encode_hello(const HelloFrame& hello) {
  std::vector<std::uint8_t> payload;
  payload.push_back(hello.protocol);
  put_string(payload, hello.token);
  return seal_frame(FrameType::kHello, std::move(payload));
}

HelloFrame decode_hello(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kHello, "hello");
  Reader r{parsed.payload};
  HelloFrame hello;
  hello.protocol = r.u8("hello protocol");
  hello.token = get_string(r, "hello token");
  expect_exhausted(r, "hello");
  return hello;
}

std::uint8_t peek_hello_protocol(std::span<const std::uint8_t> frame) {
  Reader r{expect_single_frame(frame, FrameType::kHello, "hello").payload};
  return r.u8("hello protocol");
}

std::vector<std::uint8_t> encode_welcome(const WelcomeFrame& welcome) {
  std::vector<std::uint8_t> payload;
  payload.push_back(welcome.protocol);
  put_varint(payload, welcome.epoch);
  payload.push_back(welcome.replay_horizon.has_value() ? 1 : 0);
  if (welcome.replay_horizon) put_varint(payload, *welcome.replay_horizon);
  return seal_frame(FrameType::kWelcome, std::move(payload));
}

WelcomeFrame decode_welcome(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kWelcome, "welcome");
  Reader r{parsed.payload};
  WelcomeFrame welcome;
  welcome.protocol = r.u8("welcome protocol");
  welcome.epoch = r.varint("welcome epoch");
  const auto has_horizon = r.u8("welcome horizon flag");
  if (has_horizon > 1) throw WireFormatError("invalid welcome horizon flag");
  if (has_horizon) welcome.replay_horizon = r.varint("welcome replay horizon");
  expect_exhausted(r, "welcome");
  return welcome;
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& error) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, error.request_id);
  payload.push_back(static_cast<std::uint8_t>(error.code));
  put_string(payload, error.message);
  return seal_frame(FrameType::kError, std::move(payload));
}

ErrorFrame decode_error(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kError, "error");
  Reader r{parsed.payload};
  ErrorFrame error;
  error.request_id = r.varint("error request id");
  const auto code = r.u8("error code");
  if (code < 1 || code > 5 || code == 4) {  // 4: the retired server-busy code
    throw WireFormatError("unknown error code " + std::to_string(code));
  }
  error.code = static_cast<ErrorCode>(code);
  error.message = get_string(r, "error message");
  expect_exhausted(r, "error");
  return error;
}

std::vector<std::uint8_t> encode_subscribe(const SubscribeFrame& subscribe) {
  if (subscribe.filter.watch.size() > kMaxSubscriptionWatch) {
    throw WireFormatError("subscription watchlist exceeds " +
                          std::to_string(kMaxSubscriptionWatch) + " ASNs");
  }
  std::vector<std::uint8_t> payload;
  put_varint(payload, subscribe.request_id);
  put_varint(payload, subscribe.filter.watch.size());
  for (const auto asn : subscribe.filter.watch) put_varint(payload, asn);
  put_code_spec(payload, subscribe.filter.from);
  put_code_spec(payload, subscribe.filter.to);
  payload.push_back(subscribe.replay_from.has_value() ? 1 : 0);
  if (subscribe.replay_from) put_varint(payload, *subscribe.replay_from);
  return seal_frame(FrameType::kSubscribe, std::move(payload));
}

SubscribeFrame decode_subscribe(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kSubscribe, "subscribe");
  Reader r{parsed.payload};
  SubscribeFrame subscribe;
  subscribe.request_id = r.varint("subscribe request id");
  const auto watch_count = r.varint("watchlist length");
  if (watch_count > kMaxSubscriptionWatch) {
    throw WireFormatError("subscription watchlist claims " + std::to_string(watch_count) +
                          " ASNs, cap is " + std::to_string(kMaxSubscriptionWatch));
  }
  subscribe.filter.watch.reserve(watch_count);
  for (std::uint64_t i = 0; i < watch_count; ++i) {
    const auto asn = r.varint("watchlist asn");
    if (asn > 0xFFFFFFFFull) {
      throw WireFormatError("watchlist ASN out of 32-bit range");
    }
    subscribe.filter.watch.push_back(static_cast<bgp::Asn>(asn));
  }
  subscribe.filter.from = get_code_spec(r, "subscribe from-code");
  subscribe.filter.to = get_code_spec(r, "subscribe to-code");
  const auto has_replay = r.u8("subscribe replay flag");
  if (has_replay > 1) throw WireFormatError("invalid subscribe replay flag");
  if (has_replay) subscribe.replay_from = r.varint("subscribe replay epoch");
  expect_exhausted(r, "subscribe");
  return subscribe;
}

std::vector<std::uint8_t> encode_subscribed(const SubscribedFrame& ack, FrameType type) {
  if (type != FrameType::kSubscribed && type != FrameType::kUnsubscribed) {
    throw WireFormatError("subscription ack frames must be kSubscribed or kUnsubscribed");
  }
  std::vector<std::uint8_t> payload;
  put_varint(payload, ack.request_id);
  put_varint(payload, ack.subscription_id);
  if (type == FrameType::kSubscribed) payload.push_back(ack.replay_complete ? 1 : 0);
  return seal_frame(type, std::move(payload));
}

SubscribedFrame decode_subscribed(std::span<const std::uint8_t> frame, FrameType type) {
  const auto what =
      type == FrameType::kUnsubscribed ? "unsubscribed ack" : "subscribed ack";
  const auto parsed = expect_single_frame(frame, type, what);
  Reader r{parsed.payload};
  SubscribedFrame ack;
  ack.request_id = r.varint("ack request id");
  ack.subscription_id = r.varint("ack subscription id");
  if (type == FrameType::kSubscribed) {
    const auto flag = r.u8("ack replay-complete flag");
    if (flag > 1) throw WireFormatError("invalid ack replay-complete flag");
    ack.replay_complete = flag == 1;
  }
  expect_exhausted(r, what);
  return ack;
}

std::vector<std::uint8_t> encode_unsubscribe(const UnsubscribeFrame& unsubscribe) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, unsubscribe.request_id);
  put_varint(payload, unsubscribe.subscription_id);
  return seal_frame(FrameType::kUnsubscribe, std::move(payload));
}

UnsubscribeFrame decode_unsubscribe(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kUnsubscribe, "unsubscribe");
  Reader r{parsed.payload};
  UnsubscribeFrame unsubscribe;
  unsubscribe.request_id = r.varint("unsubscribe request id");
  unsubscribe.subscription_id = r.varint("unsubscribe subscription id");
  expect_exhausted(r, "unsubscribe");
  return unsubscribe;
}

std::vector<std::uint8_t> encode_event(const EventFrame& event) {
  std::vector<std::uint8_t> payload;
  payload.reserve(event.delta.changes.size() * 4 + 24);
  put_varint(payload, event.subscription_id);
  put_delta_payload(payload, event.delta);
  return seal_frame(FrameType::kEvent, std::move(payload));
}

std::vector<std::uint8_t> encode_event_payload(const EpochDelta& delta) {
  std::vector<std::uint8_t> payload;
  payload.reserve(delta.changes.size() * 4 + 16);
  put_delta_payload(payload, delta);
  return payload;
}

std::vector<std::uint8_t> encode_event_prefix(std::uint64_t subscription_id,
                                              std::size_t payload_size) {
  // Header + varint(total payload length) + varint(subscription id): the
  // frame's length field covers the id varint plus the shared delta bytes.
  std::vector<std::uint8_t> id_bytes;
  put_varint(id_bytes, subscription_id);
  std::vector<std::uint8_t> prefix;
  prefix.reserve(id_bytes.size() + 16);
  put_frame_header(prefix, FrameType::kEvent);
  put_varint(prefix, id_bytes.size() + payload_size);
  prefix.insert(prefix.end(), id_bytes.begin(), id_bytes.end());
  return prefix;
}

EventFrame decode_event(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kEvent, "event");
  Reader r{parsed.payload};
  EventFrame event;
  event.subscription_id = r.varint("event subscription id");
  event.delta = get_delta_payload(r);
  expect_exhausted(r, "event");
  return event;
}

std::vector<std::uint8_t> encode_request(const RequestFrame& request) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, request.request_id);
  payload.push_back(static_cast<std::uint8_t>(request.request.kind));
  if (names_asn(request.request.kind)) put_varint(payload, request.request.asn);
  return seal_frame(FrameType::kRequest, std::move(payload));
}

RequestFrame decode_request(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kRequest, "request");
  Reader r{parsed.payload};
  RequestFrame request;
  request.request_id = r.varint("request id");
  request.request.kind = get_query_kind(r);
  if (names_asn(request.request.kind)) {
    const auto asn = r.varint("request asn");
    if (asn > 0xFFFFFFFFull) {
      throw WireFormatError("request ASN out of 32-bit range");
    }
    request.request.asn = static_cast<bgp::Asn>(asn);
  }
  expect_exhausted(r, "request");
  return request;
}

std::vector<std::uint8_t> encode_response(const ResponseFrame& response) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, response.request_id);
  put_query_response_payload(payload, response.response);
  return seal_frame(FrameType::kResponse, std::move(payload));
}

ResponseFrame decode_response(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kResponse, "response");
  Reader r{parsed.payload};
  ResponseFrame response;
  response.request_id = r.varint("response request id");
  response.response = get_query_response_payload(r);
  expect_exhausted(r, "response");
  return response;
}

// ------------------------------------------------------ keepalive and busy --

std::vector<std::uint8_t> encode_ping(const PingFrame& ping, FrameType type) {
  if (type != FrameType::kPing && type != FrameType::kPong) {
    throw WireFormatError("keepalive frames must be kPing or kPong");
  }
  std::vector<std::uint8_t> payload;
  put_varint(payload, ping.nonce);
  return seal_frame(type, std::move(payload));
}

PingFrame decode_ping(std::span<const std::uint8_t> frame, FrameType type) {
  const auto what = type == FrameType::kPong ? "pong" : "ping";
  const auto parsed = expect_single_frame(frame, type, what);
  Reader r{parsed.payload};
  PingFrame ping;
  ping.nonce = r.varint("keepalive nonce");
  expect_exhausted(r, what);
  return ping;
}

std::vector<std::uint8_t> encode_busy(const BusyFrame& busy) {
  std::vector<std::uint8_t> payload;
  put_varint(payload, busy.request_id);
  put_varint(payload, busy.retry_after_ms);
  put_string(payload, busy.message);
  return seal_frame(FrameType::kBusy, std::move(payload));
}

BusyFrame decode_busy(std::span<const std::uint8_t> frame) {
  const auto parsed = expect_single_frame(frame, FrameType::kBusy, "busy");
  Reader r{parsed.payload};
  BusyFrame busy;
  busy.request_id = r.varint("busy request id");
  busy.retry_after_ms = r.varint("busy retry-after");
  busy.message = get_string(r, "busy message");
  expect_exhausted(r, "busy");
  return busy;
}

bool looks_like_wire(std::span<const std::uint8_t> data) noexcept {
  return data.size() >= kWireMagic.size() &&
         std::equal(kWireMagic.begin(), kWireMagic.end(), data.begin());
}

std::optional<Format> parse_format(std::string_view name) noexcept {
  if (name == "text") return Format::kText;
  if (name == "wire") return Format::kWire;
  return std::nullopt;
}

// ------------------------------------------------------------ file codecs --

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::uint8_t> bytes(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("cannot read file: " + path);
  return bytes;
}

namespace {

class TextCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "text"; }
  [[nodiscard]] std::string extension() const override { return ".db"; }

  void write_snapshot_file(const std::string& path,
                           const core::InferenceResult& result) const override {
    core::write_database_file(path, result);
  }

  [[nodiscard]] core::InferenceResult read_snapshot_file(
      const std::string& path) const override {
    return core::read_database_file(path);
  }
};

class WireCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "wire"; }
  [[nodiscard]] std::string extension() const override { return ".wire"; }

  void write_snapshot_file(const std::string& path,
                           const core::InferenceResult& result) const override {
    const auto frame = encode_snapshot(result);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open wire file for writing: " + path);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    if (!out) throw std::runtime_error("short write to wire file: " + path);
  }

  [[nodiscard]] core::InferenceResult read_snapshot_file(
      const std::string& path) const override {
    return decode_snapshot(read_file_bytes(path));
  }
};

}  // namespace

std::unique_ptr<Codec> make_codec(Format format) {
  if (format == Format::kWire) return std::make_unique<WireCodec>();
  return std::make_unique<TextCodec>();
}

std::optional<Format> sniff_format(const std::string& path) {
  // Only the leading bytes are needed — never load a multi-GB artifact just
  // to identify it.
  constexpr std::string_view kTextMagic = "# bgpcu-inference-db v1";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  std::array<std::uint8_t, kTextMagic.size()> head{};
  in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (looks_like_wire(std::span(head.data(), got))) return Format::kWire;
  if (got >= kTextMagic.size() &&
      std::equal(kTextMagic.begin(), kTextMagic.end(), head.begin())) {
    return Format::kText;
  }
  return std::nullopt;
}

core::InferenceResult read_snapshot_any(const std::string& path) {
  const auto format = sniff_format(path);
  if (!format) {
    throw std::runtime_error("unrecognized snapshot format (neither wire nor text db): " +
                             path);
  }
  return make_codec(*format)->read_snapshot_file(path);
}

}  // namespace bgpcu::api
