#include "mrt/reader.h"

#include <fstream>

namespace bgpcu::mrt {

std::optional<RecordView> MrtReader::next_view() {
  constexpr std::size_t kHeaderSize = 12;
  if (reader_.remaining() == 0) return std::nullopt;
  if (reader_.remaining() < kHeaderSize) {
    stats_.truncated_tail += reader_.remaining();
    reader_.skip(reader_.remaining());
    return std::nullopt;
  }
  RecordView rec;
  rec.timestamp = reader_.u32();
  rec.type = reader_.u16();
  rec.subtype = reader_.u16();
  const std::uint32_t length = reader_.u32();
  if (length > reader_.remaining()) {
    // Truncated final record: account for it and stop.
    stats_.truncated_tail += kHeaderSize + reader_.remaining();
    reader_.skip(reader_.remaining());
    return std::nullopt;
  }
  rec.body = reader_.bytes(length);
  records_end_ = reader_.position();
  ++stats_.records;
  return rec;
}

std::optional<RawRecord> MrtReader::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return RawRecord{view->timestamp, view->type, view->subtype,
                   std::vector<std::uint8_t>(view->body.begin(), view->body.end())};
}

std::vector<std::uint8_t> load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw bgp::WireError("cannot open MRT file: " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::uint8_t> bytes(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in) throw bgp::WireError("cannot read MRT file: " + path);
  return bytes;
}

MrtFileReader::MrtFileReader(const std::string& path) {
  const auto data = load_file(path);
  MrtReader reader(data);
  while (auto rec = reader.next()) {
    records_.push_back(std::move(*rec));
  }
  stats_ = reader.stats();
}

}  // namespace bgpcu::mrt
