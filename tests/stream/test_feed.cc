// DirectoryFeed tests: incremental pickup of MRT update dumps written by the
// repo's own writer, extension filtering, and error behavior.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bgp/message.h"
#include "mrt/bgp4mp.h"
#include "mrt/writer.h"
#include "registry/registry.h"
#include "stream/feed.h"

namespace bgpcu::stream {
namespace {

namespace fs = std::filesystem;

class FeedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bgpcu_feed_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    reg_ = registry::allow_all();
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// One encoded BGP4MP update record announcing `prefix` over `path`.
  std::vector<std::uint8_t> encode_dump(std::vector<bgp::Asn> path,
                                        const std::string& prefix) {
    const bgp::Asn peer = path.front();
    bgp::UpdateMessage update;
    update.attributes.as_path = bgp::AsPath::from_sequence(std::move(path));
    update.attributes.communities.push_back(
        bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
    update.nlri = {bgp::Prefix::parse(prefix)};
    mrt::MrtWriter writer;
    writer.write_message(1621382400, mrt::Bgp4mpMessage::ipv4_session(
                                         peer, 65000, 0xC0A80001, 0xC0A80002,
                                         update.encode(true)));
    return writer.buffer();
  }

  /// Writes one BGP4MP update dump announcing `prefix` over `path`.
  void write_dump(const std::string& name, std::vector<bgp::Asn> path,
                  const std::string& prefix) {
    const auto bytes = encode_dump(std::move(path), prefix);
    std::ofstream out(dir_ / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  void append_bytes(const std::string& name, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(dir_ / name, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  registry::AllocationRegistry reg_;
};

TEST_F(FeedTest, PicksUpFilesOnce) {
  write_dump("updates.0001.mrt", {3356, 1299, 2914}, "203.0.113.0/24");
  DirectoryFeed feed(dir_.string(), reg_);

  auto first = feed.poll();
  ASSERT_EQ(first.files.size(), 1u);
  EXPECT_EQ(first.batch.size(), 1u);
  EXPECT_EQ(first.batch[0].path, (std::vector<bgp::Asn>{3356, 1299, 2914}));
  EXPECT_EQ(first.extraction.update_messages, 1u);

  const auto second = feed.poll();
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(feed.files_seen(), 1u);
}

TEST_F(FeedTest, NewFilesArriveBetweenPolls) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  (void)feed.poll();

  write_dump("updates.0002.mrt", {30, 40}, "192.0.2.0/24");
  const auto poll = feed.poll();
  ASSERT_EQ(poll.files.size(), 1u);
  EXPECT_NE(poll.files[0].find("updates.0002.mrt"), std::string::npos);
  ASSERT_EQ(poll.batch.size(), 1u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{30, 40}));
}

TEST_F(FeedTest, MultipleNewFilesProcessedInNameOrder) {
  write_dump("updates.0002.mrt", {30, 40}, "192.0.2.0/24");
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  const auto poll = feed.poll();
  ASSERT_EQ(poll.files.size(), 2u);
  EXPECT_LT(poll.files[0], poll.files[1]);
  EXPECT_EQ(poll.batch.size(), 2u);
}

TEST_F(FeedTest, ExtensionFilterSkipsOtherFiles) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  std::ofstream(dir_ / "snapshot-000001.db") << "# not an MRT file\n";
  DirectoryFeed feed(dir_.string(), reg_, ".mrt");
  const auto poll = feed.poll();
  EXPECT_EQ(poll.files.size(), 1u);
  EXPECT_TRUE(feed.poll().empty());
}

TEST_F(FeedTest, SettleWindowDefersFreshFiles) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_, {}, /*settle_seconds=*/3600);
  EXPECT_TRUE(feed.poll().empty());  // just written: inside the settle window
  EXPECT_EQ(feed.files_seen(), 0u);

  DirectoryFeed eager(dir_.string(), reg_);  // settle off
  EXPECT_EQ(eager.poll().files.size(), 1u);
}

TEST_F(FeedTest, MissingDirectoryThrows) {
  DirectoryFeed feed((dir_ / "nope").string(), reg_);
  EXPECT_THROW((void)feed.poll(), std::runtime_error);
}

TEST_F(FeedTest, GrowingFileYieldsOnlyAppendedRecords) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);
  EXPECT_TRUE(feed.poll().empty());

  // The collector appends a second update to the *same* file; only the new
  // bytes must be parsed (the first tuple would otherwise repeat).
  const auto appended = encode_dump({30, 40}, "192.0.2.0/24");
  append_bytes("updates.0001.mrt", appended);
  const auto poll = feed.poll();
  ASSERT_EQ(poll.files.size(), 1u);
  ASSERT_EQ(poll.batch.size(), 1u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{30, 40}));
  EXPECT_EQ(feed.files_seen(), 1u);
  EXPECT_TRUE(feed.poll().empty());
}

TEST_F(FeedTest, PartialAppendedRecordWaitsForCompletion) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);

  // Half a record lands: the tail must stay unconsumed, not be swallowed as
  // garbage, and parse once the writer finishes it.
  const auto record = encode_dump({30, 40}, "192.0.2.0/24");
  ASSERT_GT(record.size(), 5u);
  append_bytes("updates.0001.mrt",
               std::vector<std::uint8_t>(record.begin(), record.begin() + 5));
  // Nothing consumable yet: the poll must look empty (a data-less poll must
  // not count as an ingesting epoch upstream).
  EXPECT_TRUE(feed.poll().empty());

  append_bytes("updates.0001.mrt",
               std::vector<std::uint8_t>(record.begin() + 5, record.end()));
  const auto completed = feed.poll();
  ASSERT_EQ(completed.batch.size(), 1u);
  EXPECT_EQ(completed.batch[0].path, (std::vector<bgp::Asn>{30, 40}));

  // A whole record and half of the next in one read: the poll consumes
  // exactly up to the end of the whole one.
  auto burst = encode_dump({50, 60}, "203.0.113.0/24");
  const auto next = encode_dump({70, 80}, "198.51.100.0/24");
  burst.insert(burst.end(), next.begin(), next.begin() + 20);
  append_bytes("updates.0001.mrt", burst);
  const auto first = feed.poll();
  ASSERT_EQ(first.batch.size(), 1u);
  EXPECT_EQ(first.batch[0].path, (std::vector<bgp::Asn>{50, 60}));
  append_bytes("updates.0001.mrt", std::vector<std::uint8_t>(next.begin() + 20, next.end()));
  const auto second = feed.poll();
  ASSERT_EQ(second.batch.size(), 1u);
  EXPECT_EQ(second.batch[0].path, (std::vector<bgp::Asn>{70, 80}));
}

TEST_F(FeedTest, ShrunkFileIsReadFromScratch) {
  write_dump("updates.0001.mrt", {10, 20, 30}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);

  // Rotation reused the name with a smaller file: start over.
  write_dump("updates.0001.mrt", {50, 60}, "192.0.2.0/24");
  ASSERT_LT(fs::file_size(dir_ / "updates.0001.mrt"), 1000u);
  const auto poll = feed.poll();
  ASSERT_EQ(poll.batch.size(), 1u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{50, 60}));
}

TEST_F(FeedTest, RotationAboveConsumedOffsetIsStillDetected) {
  // Rotation reusing the name with a size between the consumed offset and
  // the last observed size (offset < new size < size_seen) must reset, not
  // be skipped or tail-read from a stale offset into unrelated content.
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);
  append_bytes("updates.0001.mrt", {0xDE, 0xAD, 0xBE, 0xEF, 0x00});  // partial tail
  EXPECT_TRUE(feed.poll().batch.empty());

  write_dump("updates.0001.mrt", {50, 60}, "192.0.2.0/24");  // same record size
  const auto poll = feed.poll();
  ASSERT_EQ(poll.batch.size(), 1u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{50, 60}));
}

TEST_F(FeedTest, RenameRotationToLargerFileIsReadFromScratch) {
  // Rotation via rename to a *larger* replacement: size checks alone cannot
  // see it (size only grew); inode identity must trigger the reset instead
  // of tail-reading the new file from the stale offset.
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);

  auto bigger = encode_dump({50, 60, 70}, "192.0.2.0/24");
  const auto more = encode_dump({80, 90}, "203.0.113.0/24");
  bigger.insert(bigger.end(), more.begin(), more.end());
  std::ofstream(dir_ / "incoming.tmp", std::ios::binary)
      .write(reinterpret_cast<const char*>(bigger.data()),
             static_cast<std::streamsize>(bigger.size()));
  fs::rename(dir_ / "incoming.tmp", dir_ / "updates.0001.mrt");

  const auto poll = feed.poll();
  ASSERT_EQ(poll.batch.size(), 2u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{50, 60, 70}));
  EXPECT_EQ(poll.batch[1].path, (std::vector<bgp::Asn>{80, 90}));
}

TEST_F(FeedTest, InPlaceRewriteWithSameSizeIsReadFromScratch) {
  // An in-place rewrite (open + truncate + write: the inode survives) whose
  // replacement lands on exactly the consumed size: the shrunk-file check
  // sees nothing (size didn't drop) and the inode check sees nothing — only
  // the first-bytes fingerprint can notice the content swap. Without it the
  // poll would skip the file as "unchanged" and the replacement's tuples
  // would be lost forever.
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  const auto first_size = fs::file_size(dir_ / "updates.0001.mrt");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);
  EXPECT_TRUE(feed.poll().empty());

  write_dump("updates.0001.mrt", {50, 60}, "192.0.2.0/24");  // same record shape
  ASSERT_EQ(fs::file_size(dir_ / "updates.0001.mrt"), first_size)
      << "test premise: the rewrite must not change the size";
  const auto poll = feed.poll();
  ASSERT_EQ(poll.batch.size(), 1u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{50, 60}));
}

TEST_F(FeedTest, InPlaceRewriteToLargerFileIsReadFromScratch) {
  // Same inode, *larger* replacement: size-only heuristics classify this as
  // growth and tail-read from the stale offset — garbage from the middle of
  // the new content. The fingerprint restarts the file instead, so both
  // replacement records parse.
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  DirectoryFeed feed(dir_.string(), reg_);
  ASSERT_EQ(feed.poll().batch.size(), 1u);

  auto bigger = encode_dump({50, 60, 70}, "192.0.2.0/24");
  const auto more = encode_dump({80, 90}, "203.0.113.0/24");
  bigger.insert(bigger.end(), more.begin(), more.end());
  std::ofstream(dir_ / "updates.0001.mrt", std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bigger.data()),
             static_cast<std::streamsize>(bigger.size()));

  const auto poll = feed.poll();
  ASSERT_EQ(poll.batch.size(), 2u);
  EXPECT_EQ(poll.batch[0].path, (std::vector<bgp::Asn>{50, 60, 70}));
  EXPECT_EQ(poll.batch[1].path, (std::vector<bgp::Asn>{80, 90}));
  EXPECT_TRUE(feed.poll().empty());
}

TEST_F(FeedTest, ShortGarbageFileIsHeldAsPendingWithoutThrowing) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  // Three junk bytes are indistinguishable from a record still being
  // written: the file is held back (never listed, nothing ingested) and
  // must not poison the batch or be re-read every poll.
  std::ofstream(dir_ / "updates.0002.mrt", std::ios::binary) << "\x00\x01\x02";
  DirectoryFeed feed(dir_.string(), reg_);
  const auto poll = feed.poll();
  EXPECT_EQ(poll.files.size(), 1u);
  EXPECT_EQ(poll.batch.size(), 1u);
  EXPECT_TRUE(feed.poll().empty());
}

}  // namespace
}  // namespace bgpcu::stream
