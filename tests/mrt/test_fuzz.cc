// Corruption robustness: random byte flips over a valid MRT dump must never
// crash the reader or the extraction pipeline — malformed records are
// counted and skipped (the property a tool parsing terabytes of third-party
// archives lives or dies by) — and the extractor must count and keep exactly
// what the reference extractor does on the same damaged bytes.
#include <gtest/gtest.h>

#include "../collector/reference_extract.h"
#include "bgp/message.h"
#include "collector/extract.h"
#include "mrt/reader.h"
#include "mrt/writer.h"
#include "topology/rng.h"

namespace bgpcu::mrt {
namespace {

std::vector<std::uint8_t> valid_dump() {
  MrtWriter writer;
  PeerIndexTable table;
  table.collector_bgp_id = 1;
  table.view_name = "fuzz";
  table.peers.push_back(PeerEntry::ipv4_peer(1, 0xC0A80001, 65001));
  writer.write_peer_index(100, table);
  for (std::uint32_t i = 0; i < 50; ++i) {
    RibRecord rib;
    rib.sequence = i;
    rib.prefix = bgp::Prefix::ipv4(0x0B000000 + (i << 8), 24);
    RibEntry entry;
    entry.peer_index = 0;
    entry.originated_time = 100;
    entry.attributes.origin = bgp::Origin::kIgp;
    entry.attributes.as_path = bgp::AsPath::from_sequence({65001, 65002 + i % 5});
    entry.attributes.communities = {bgp::CommunityValue::regular(65001, static_cast<std::uint16_t>(i))};
    rib.entries.push_back(std::move(entry));
    writer.write_rib(100, rib);

    bgp::UpdateMessage update;
    update.attributes = rib.entries[0].attributes;
    update.nlri = {rib.prefix};
    writer.write_message(200 + i, Bgp4mpMessage::ipv4_session(65001, 12654, 0xC0A80001,
                                                              0xC0A80002, update.encode(true)));
  }
  return writer.take();
}

class MrtFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrtFuzz, RandomByteFlipsNeverCrashTheReader) {
  auto dump = valid_dump();
  topology::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    auto corrupted = dump;
    const auto flips = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < flips; ++i) {
      corrupted[rng.below(corrupted.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    MrtReader reader(corrupted);
    std::size_t records = 0;
    while (auto rec = reader.next()) ++records;
    // No assertion on counts — only that we got here without UB/throw from
    // the framing layer (body corruption surfaces later, in typed decoding).
    EXPECT_LE(records, 1000u);
  }
}

TEST_P(MrtFuzz, RandomByteFlipsNeverCrashExtraction) {
  auto dump = valid_dump();
  registry::AllocationRegistry reg;
  reg.allocate_asn_range(1, 4294967293u);
  reg.allocate_prefix(bgp::Prefix::ipv4(0, 0));
  topology::Rng rng(GetParam() ^ 0xF00Dull);
  std::uint64_t decode_errors = 0;
  for (int round = 0; round < 50; ++round) {
    auto corrupted = dump;
    const auto flips = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < flips; ++i) {
      corrupted[rng.below(corrupted.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    // Must not throw or crash, and must match the reference.
    const std::vector<std::vector<std::uint8_t>> dumps = {corrupted};
    const auto both = collector::reference::extract_both(reg, dumps);
    EXPECT_TRUE(collector::reference::same_bundle(both.reference, both.builder))
        << "round " << round;
    EXPECT_LE(both.builder.dataset.size(), 200u);
    decode_errors += both.builder.extraction.decode_errors;
  }
  EXPECT_GT(decode_errors, 0u) << "the flips reach the typed decoders";
}

TEST_P(MrtFuzz, TruncationAtEveryBoundaryIsHandled) {
  const auto dump = valid_dump();
  registry::AllocationRegistry reg;
  reg.allocate_asn_range(1, 4294967293u);
  reg.allocate_prefix(bgp::Prefix::ipv4(0, 0));
  topology::Rng rng(GetParam() ^ 0x7123ull);
  for (int round = 0; round < 30; ++round) {
    const auto cut = rng.below(dump.size());
    std::vector<std::uint8_t> truncated(dump.begin(), dump.begin() + static_cast<long>(cut));
    const std::vector<std::vector<std::uint8_t>> dumps = {truncated};
    const auto both = collector::reference::extract_both(reg, dumps);
    EXPECT_TRUE(collector::reference::same_bundle(both.reference, both.builder))
        << "cut at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace bgpcu::mrt
