#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "mrt/reader.h"
#include "mrt/writer.h"

namespace bgpcu::mrt {
namespace {

RawRecord sample_record(std::uint32_t ts = 1621382400) {
  RawRecord rec;
  rec.timestamp = ts;
  rec.type = static_cast<std::uint16_t>(MrtType::kBgp4mp);
  rec.subtype = static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4);
  rec.body = {1, 2, 3, 4, 5};
  return rec;
}

TEST(MrtWriterReader, RoundTripMultipleRecords) {
  MrtWriter writer;
  writer.write(sample_record(1));
  writer.write(sample_record(2));
  writer.write(sample_record(3));
  EXPECT_EQ(writer.records_written(), 3u);

  MrtReader reader(writer.buffer());
  for (std::uint32_t ts = 1; ts <= 3; ++ts) {
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->timestamp, ts);
    EXPECT_EQ(rec->body, sample_record().body);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.stats().records, 3u);
}

TEST(MrtReader, EmptyBuffer) {
  MrtReader reader({});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.stats().records, 0u);
}

TEST(MrtReader, TruncatedHeaderCountedNotThrown) {
  MrtWriter writer;
  writer.write(sample_record());
  auto buf = writer.take();
  buf.resize(buf.size() + 5, 0);  // 5 stray bytes: less than a header
  MrtReader reader(buf);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.stats().truncated_tail, 5u);
}

TEST(MrtReader, TruncatedFinalBodyCountedNotThrown) {
  MrtWriter writer;
  writer.write(sample_record());
  writer.write(sample_record());
  auto buf = writer.take();
  buf.resize(buf.size() - 2);  // cut into the last record's body
  MrtReader reader(buf);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_GT(reader.stats().truncated_tail, 0u);
}

TEST(MrtWriter, TypedHelpersSetTypeAndSubtype) {
  MrtWriter writer;
  PeerIndexTable table;
  table.view_name = "x";
  writer.write_peer_index(7, table);
  MrtReader reader(writer.buffer());
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->mrt_type(), MrtType::kTableDumpV2);
  EXPECT_EQ(rec->subtype, static_cast<std::uint16_t>(TableDumpV2Subtype::kPeerIndexTable));
  EXPECT_EQ(PeerIndexTable::decode(rec->body), table);
}

TEST(MrtFileReader, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "bgpcu_test_dump.mrt";
  MrtWriter writer;
  writer.write(sample_record(11));
  writer.write(sample_record(22));
  writer.flush_to_file(path.string());

  MrtFileReader reader(path.string());
  ASSERT_EQ(reader.records().size(), 2u);
  EXPECT_EQ(reader.records()[0].timestamp, 11u);
  EXPECT_EQ(reader.records()[1].timestamp, 22u);
  std::filesystem::remove(path);
}

TEST(MrtFileReader, MissingFileThrows) {
  EXPECT_THROW(MrtFileReader("/nonexistent/path/to.mrt"), bgp::WireError);
}

TEST(MrtReader, NextViewBorrowsTheBody) {
  MrtWriter writer;
  writer.write(sample_record(7));
  const auto& buf = writer.buffer();
  MrtReader reader(buf);
  const auto view = reader.next_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->timestamp, 7u);
  EXPECT_EQ(view->mrt_type(), MrtType::kBgp4mp);
  EXPECT_EQ(view->body.data(), buf.data() + 12);
  EXPECT_EQ(std::vector<std::uint8_t>(view->body.begin(), view->body.end()),
            sample_record().body);
}

TEST(MrtReader, RecordsEndStopsBeforeAPartialRecord) {
  MrtWriter writer;
  writer.write(sample_record());
  writer.write(sample_record());
  const auto whole = writer.buffer().size();
  auto buf = writer.take();
  buf.resize(buf.size() + 7, 0);  // a partial third header
  MrtReader reader(buf);
  while (reader.next_view()) {
  }
  EXPECT_EQ(reader.records_end(), whole);
  buf.resize(whole - 1);  // now the second record's body is cut
  MrtReader cut(buf);
  while (cut.next_view()) {
  }
  EXPECT_EQ(cut.records_end(), whole / 2);
  EXPECT_EQ(MrtReader(std::span<const std::uint8_t>()).records_end(), 0u);
}

}  // namespace
}  // namespace bgpcu::mrt
