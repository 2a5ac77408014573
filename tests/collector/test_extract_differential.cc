// Differential tests: DatasetBuilder, which decodes into reused buffers and
// deduplicates before building tuples, must produce the same DatasetBundle
// as the reference extractor (reference_extract.h) — dataset, every
// extraction and sanitation counter, and the three Table-1 sets — on emitted
// collector projects and on hand-built records aimed at the decoder's edges.
#include <gtest/gtest.h>

#include <unordered_set>

#include "bgp/message.h"
#include "collector/emit.h"
#include "collector/extract.h"
#include "collector/spec.h"
#include "mrt/writer.h"
#include "reference_extract.h"
#include "sim/scenario.h"
#include "sim/substrate.h"
#include "sim/wild.h"
#include "topology/generator.h"

namespace bgpcu::collector {
namespace {

using reference::extract_both;
using reference::same_bundle;

using Dumps = std::vector<std::vector<std::uint8_t>>;

constexpr std::uint32_t kTimestamp = 1621382400;

registry::AllocationRegistry hand_registry() {
  registry::AllocationRegistry reg;
  reg.allocate_asn_range(1, 4294967293u);
  reg.allocate_prefix(bgp::Prefix::parse("10.0.0.0/8"));
  reg.allocate_prefix(bgp::Prefix::parse("2001:db8::/32"));
  return reg;
}

// --- hand-built wire pieces ------------------------------------------------

std::vector<std::uint8_t> attribute(bgp::AttrType type, const std::vector<std::uint8_t>& body) {
  bgp::ByteWriter w;
  w.u8(0xC0);  // optional transitive; the decoder does not check flags
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(body.size()));
  w.bytes(body);
  return w.take();
}

std::vector<std::uint8_t> as_path_attribute(bgp::SegmentType type,
                                            const std::vector<bgp::Asn>& asns) {
  bgp::ByteWriter body;
  bgp::AsPath(std::vector<bgp::AsPathSegment>{{type, asns}}).encode(body, /*four_byte=*/true);
  return attribute(bgp::AttrType::kAsPath, body.buffer());
}

std::vector<std::uint8_t> communities_attribute(const bgp::CommunitySet& comms) {
  bgp::ByteWriter body;
  for (const auto& c : comms) body.u32(c.packed_regular());
  return attribute(bgp::AttrType::kCommunities, body.buffer());
}

std::vector<std::uint8_t> concat(std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// A whole UPDATE (header included) around a raw attribute block, which
/// lets a test carry attributes PathAttributes::encode would never repeat.
std::vector<std::uint8_t> raw_update(const std::vector<std::uint8_t>& attrs,
                                     const std::vector<bgp::Prefix>& nlri) {
  bgp::ByteWriter body;
  body.u16(0);  // no withdrawals
  body.u16(static_cast<std::uint16_t>(attrs.size()));
  body.bytes(attrs);
  for (const auto& p : nlri) p.encode_nlri(body);
  bgp::ByteWriter msg;
  for (int i = 0; i < 16; ++i) msg.u8(0xFF);
  msg.u16(static_cast<std::uint16_t>(19 + body.size()));
  msg.u8(static_cast<std::uint8_t>(bgp::MessageType::kUpdate));
  msg.bytes(body.buffer());
  return msg.take();
}

std::vector<std::uint8_t> update_dump(bgp::Asn peer, std::vector<std::uint8_t> message,
                                      bool as4 = true) {
  mrt::MrtWriter writer;
  writer.write_message(kTimestamp, mrt::Bgp4mpMessage::ipv4_session(
                                       peer, 65000, 0xC0A80001, 0xC0A80002, std::move(message),
                                       as4));
  return writer.take();
}

/// update_dump's record as BGP4MP_ET: the same body behind RFC 6396's
/// 4-byte microsecond timestamp.
std::vector<std::uint8_t> et_update_dump(bgp::Asn peer, std::vector<std::uint8_t> message) {
  const auto msg =
      mrt::Bgp4mpMessage::ipv4_session(peer, 65000, 0xC0A80001, 0xC0A80002, std::move(message));
  mrt::RawRecord rec;
  rec.timestamp = kTimestamp;
  rec.type = static_cast<std::uint16_t>(mrt::MrtType::kBgp4mpEt);
  rec.subtype = static_cast<std::uint16_t>(msg.subtype());
  rec.body = {0x00, 0x07, 0xA1, 0x20};  // 500,000 µs
  const auto body = msg.encode();
  rec.body.insert(rec.body.end(), body.begin(), body.end());
  mrt::MrtWriter writer;
  writer.write(rec);
  return writer.take();
}

mrt::PeerIndexTable one_peer_table(bgp::Asn asn) {
  mrt::PeerIndexTable table;
  table.view_name = "diff";
  table.peers.push_back(mrt::PeerEntry::ipv4_peer(1, 0xC0A80001, asn));
  return table;
}

mrt::RibEntry rib_entry(std::uint16_t peer_index, std::vector<bgp::Asn> path,
                        bgp::CommunitySet comms) {
  mrt::RibEntry entry;
  entry.peer_index = peer_index;
  entry.originated_time = kTimestamp;
  entry.attributes.origin = bgp::Origin::kIgp;
  entry.attributes.as_path = bgp::AsPath::from_sequence(std::move(path));
  entry.attributes.communities = std::move(comms);
  return entry;
}

bgp::CommunityValue comm(std::uint16_t admin, std::uint16_t value) {
  return bgp::CommunityValue::regular(admin, value);
}

// --- emitted projects ------------------------------------------------------

TEST(ExtractDifferential, EmittedProjectsUnderTheTopologyRegistry) {
  topology::GeneratorParams params;
  params.num_ases = 350;
  params.num_tier1 = 5;
  params.seed = 91;
  auto topo = topology::generate(params);
  ProjectLayoutParams layout;
  layout.total_peers = 40;
  layout.rs_session_share = 0.3;
  layout.seed = 91;
  const auto projects = default_projects(topo, layout);
  const auto substrate = sim::build_substrate(topo, all_peers(projects));
  sim::WildParams wild;
  wild.seed = 91;
  const auto roles = sim::assign_wild_roles(topo, wild);
  const auto truth = sim::generate_dataset(topo, substrate, roles, sim::OutputConfig{}, 91);
  const PathOutputs outputs(truth);

  // Messier than the defaults, so every sanitation step fires.
  EmissionConfig config;
  config.prepend_prob = 0.2;
  config.as_set_prob = 0.1;
  config.bogus_asn_prob = 0.05;
  config.bogus_prefix_prob = 0.05;

  Dumps all;
  for (const auto& project : projects) {
    Dumps dumps;
    for (auto& emitted : emit_project(topo, substrate, outputs, project, config)) {
      dumps.push_back(std::move(emitted.rib_dump));
      dumps.push_back(std::move(emitted.update_dump));
    }
    const auto both = extract_both(topo.registry, dumps);
    EXPECT_TRUE(same_bundle(both.reference, both.builder)) << project.name;
    const auto& s = both.reference.sanitation;
    EXPECT_GT(s.dropped_unallocated_prefix, 0u) << project.name;
    EXPECT_GT(s.dropped_unallocated_asn, 0u) << project.name;
    EXPECT_GT(s.as_sets_removed, 0u) << project.name;
    EXPECT_GT(s.prepending_collapsed, 0u) << project.name;
    EXPECT_GT(s.output, both.reference.dataset.size()) << "duplicates reach the dedup";
    all.insert(all.end(), std::make_move_iterator(dumps.begin()),
               std::make_move_iterator(dumps.end()));
  }
  // One builder over every project: duplicates across dumps too.
  const auto both = extract_both(topo.registry, all);
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
}

// --- hand-built edges ------------------------------------------------------

TEST(ExtractDifferential, DuplicateAsPathLastOneWins) {
  const auto reg = hand_registry();
  const auto attrs = concat({as_path_attribute(bgp::SegmentType::kAsSequence, {10, 20, 30}),
                             as_path_attribute(bgp::SegmentType::kAsSequence, {10, 40})});
  const Dumps dumps = {update_dump(10, raw_update(attrs, {bgp::Prefix::parse("10.1.0.0/16")}))};
  const auto both = extract_both(reg, dumps);
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  ASSERT_EQ(both.builder.dataset.size(), 1u);
  EXPECT_EQ(both.builder.dataset[0].path, (std::vector<bgp::Asn>{10, 40}));
  EXPECT_EQ(both.builder.raw_asns, (std::unordered_set<bgp::Asn>{10, 40}));
}

TEST(ExtractDifferential, DuplicateCommunitiesAppend) {
  const auto reg = hand_registry();
  const auto attrs = concat({as_path_attribute(bgp::SegmentType::kAsSequence, {10, 20}),
                             communities_attribute({comm(10, 1)}),
                             communities_attribute({comm(10, 2), comm(10, 1)})});
  const Dumps dumps = {update_dump(10, raw_update(attrs, {bgp::Prefix::parse("10.1.0.0/16")}))};
  const auto both = extract_both(reg, dumps);
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.extraction.communities_total, 3u);
  ASSERT_EQ(both.builder.dataset.size(), 1u);
  EXPECT_EQ(both.builder.dataset[0].comms, (bgp::CommunitySet{comm(10, 1), comm(10, 2)}));
}

TEST(ExtractDifferential, AsSetOnlyPathIsRemovedThenDroppedEmpty) {
  const auto reg = hand_registry();
  const auto attrs = as_path_attribute(bgp::SegmentType::kAsSet, {20, 30});
  const Dumps dumps = {update_dump(10, raw_update(attrs, {bgp::Prefix::parse("10.1.0.0/16")}))};
  const auto both = extract_both(reg, dumps);
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.sanitation.as_sets_removed, 1u);
  EXPECT_EQ(both.builder.sanitation.dropped_empty_path, 1u);
  EXPECT_TRUE(both.builder.dataset.empty());
}

TEST(ExtractDifferential, MalformedSecondRibEntryDropsTheFirstToo) {
  const auto reg = hand_registry();
  mrt::MrtWriter writer;
  writer.write_peer_index(kTimestamp, one_peer_table(10));
  mrt::RibRecord bad;
  bad.prefix = bgp::Prefix::parse("10.1.0.0/16");
  bad.entries.push_back(rib_entry(0, {10, 20}, {comm(10, 1)}));
  bad.entries.push_back(rib_entry(0, {10, 30}, {comm(10, 2)}));
  bad.entries[1].attributes.origin = static_cast<bgp::Origin>(7);  // invalid ORIGIN
  writer.write_rib(kTimestamp, bad);
  mrt::RibRecord good;
  good.prefix = bgp::Prefix::parse("10.2.0.0/16");
  good.entries.push_back(rib_entry(0, {10, 40}, {}));
  writer.write_rib(kTimestamp, good);

  const auto both = extract_both(reg, Dumps{writer.take()});
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.extraction.decode_errors, 1u);
  EXPECT_EQ(both.builder.extraction.entries_total, 1u) << "only the next record's entry";
  ASSERT_EQ(both.builder.dataset.size(), 1u);
  EXPECT_EQ(both.builder.dataset[0].path, (std::vector<bgp::Asn>{10, 40}));
}

TEST(ExtractDifferential, OutOfRangePeerIndexCountsOneErrorPerEntry) {
  const auto reg = hand_registry();
  mrt::MrtWriter writer;
  writer.write_peer_index(kTimestamp, one_peer_table(10));
  mrt::RibRecord rib;
  rib.prefix = bgp::Prefix::parse("10.1.0.0/16");
  rib.entries.push_back(rib_entry(5, {10, 20}, {}));
  rib.entries.push_back(rib_entry(0, {10, 30}, {}));
  rib.entries.push_back(rib_entry(9, {10, 40}, {}));
  writer.write_rib(kTimestamp, rib);

  const auto both = extract_both(reg, Dumps{writer.take()});
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.extraction.decode_errors, 2u);
  EXPECT_EQ(both.builder.extraction.rib_entries, 1u);
}

TEST(ExtractDifferential, MpReachAndMpUnreachInsideAnUpdate) {
  const auto reg = hand_registry();
  bgp::UpdateMessage update;
  update.withdrawn = {bgp::Prefix::parse("10.9.0.0/16")};
  update.attributes.as_path = bgp::AsPath::from_sequence({10, 20});
  update.attributes.communities = {comm(10, 7)};
  update.attributes.large_communities = {bgp::CommunityValue::large(20, 1, 2)};
  bgp::MpReach reach;
  reach.next_hop.assign(16, 0x20);
  reach.nlri = {bgp::Prefix::parse("2001:db8:1::/48"), bgp::Prefix::parse("2001:db8:2::/48")};
  update.attributes.mp_reach = reach;
  bgp::MpUnreach unreach;
  unreach.withdrawn = {bgp::Prefix::parse("2001:db8:3::/48")};
  update.attributes.mp_unreach = unreach;
  update.nlri = {bgp::Prefix::parse("10.1.0.0/16")};

  const auto both = extract_both(reg, Dumps{update_dump(10, update.encode(true))});
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.extraction.withdrawals, 2u);
  EXPECT_EQ(both.builder.extraction.entries_total, 3u);
  EXPECT_EQ(both.builder.extraction.large_communities_total, 3u);
  EXPECT_EQ(both.builder.sanitation.output, 3u);
  EXPECT_EQ(both.builder.dataset.size(), 1u) << "three prefixes, one tuple";
}

TEST(ExtractDifferential, TwoByteAsBgp4mpMessage) {
  const auto reg = hand_registry();
  bgp::UpdateMessage plain;
  plain.attributes.as_path = bgp::AsPath::from_sequence({10, 20, 30});
  plain.nlri = {bgp::Prefix::parse("10.1.0.0/16")};
  // A 32-bit ASN travels as AS_TRANS on a 2-byte session, which the
  // allocation filter then drops as special-purpose.
  bgp::UpdateMessage wide;
  wide.attributes.as_path = bgp::AsPath::from_sequence({10, 4200000001u, 30});
  wide.nlri = {bgp::Prefix::parse("10.2.0.0/16")};

  const Dumps dumps = {update_dump(10, plain.encode(false), /*as4=*/false),
                       update_dump(10, wide.encode(false), /*as4=*/false)};
  const auto both = extract_both(reg, dumps);
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.extraction.decode_errors, 0u);
  EXPECT_EQ(both.builder.sanitation.dropped_unallocated_asn, 1u);
  EXPECT_TRUE(both.builder.raw_asns.contains(bgp::kAsTrans));
  ASSERT_EQ(both.builder.dataset.size(), 1u);
  EXPECT_EQ(both.builder.dataset[0].path, (std::vector<bgp::Asn>{10, 20, 30}));
}

TEST(ExtractDifferential, Bgp4mpEtRecordYieldsThePlainRecordsBundle) {
  const auto reg = hand_registry();
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath::from_sequence({10, 20, 30});
  update.attributes.communities = {comm(10, 7), comm(20, 1)};
  update.nlri = {bgp::Prefix::parse("10.1.0.0/16"), bgp::Prefix::parse("10.2.0.0/16")};

  const auto plain = extract_both(reg, Dumps{update_dump(10, update.encode(true))});
  const auto et = extract_both(reg, Dumps{et_update_dump(10, update.encode(true))});
  EXPECT_TRUE(same_bundle(et.reference, et.builder));
  EXPECT_TRUE(same_bundle(plain.builder, et.builder));
  EXPECT_EQ(et.builder.extraction.decode_errors, 0u);
  EXPECT_EQ(et.builder.extraction.update_messages, 1u);
  EXPECT_EQ(et.builder.extraction.entries_total, 2u);
  ASSERT_EQ(et.builder.dataset.size(), 1u);
  EXPECT_EQ(et.builder.dataset[0].path, (std::vector<bgp::Asn>{10, 20, 30}));
}

TEST(ExtractDifferential, Bgp4mpEtBodyShorterThanItsTimestampCountsOneDecodeError) {
  const auto reg = hand_registry();
  mrt::RawRecord rec;
  rec.timestamp = kTimestamp;
  rec.type = static_cast<std::uint16_t>(mrt::MrtType::kBgp4mpEt);
  rec.subtype = static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessageAs4);
  rec.body = {0x00, 0x07, 0xA1};
  mrt::MrtWriter writer;
  writer.write(rec);

  const auto both = extract_both(reg, Dumps{writer.take()});
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.extraction.decode_errors, 1u);
  EXPECT_EQ(both.builder.extraction.update_messages, 0u);
  EXPECT_TRUE(both.builder.dataset.empty());
}

TEST(ExtractDifferential, TuplesSharingADigestAreBothKept) {
  // These two paths share the builder's 32-bit index digest (found by a
  // search over 3-ASN paths), so only the content compare tells them apart.
  // Each arrives twice, so the repeats must also probe past the other.
  const auto reg = hand_registry();
  Dumps dumps;
  for (int round = 0; round < 2; ++round) {
    for (const std::vector<bgp::Asn>& path : {std::vector<bgp::Asn>{10, 1006, 18374},
                                              std::vector<bgp::Asn>{10, 1007, 59107}}) {
      bgp::UpdateMessage update;
      update.attributes.as_path = bgp::AsPath::from_sequence(path);
      update.nlri = {bgp::Prefix::parse("10.1.0.0/16")};
      dumps.push_back(update_dump(10, update.encode(true)));
    }
  }
  const auto both = extract_both(reg, dumps);
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.dataset.size(), 2u);
}

TEST(ExtractDifferential, RecordsOfVaryingShapeDoNotLeakIntoEachOther) {
  // Shrinking and growing RIB records, a block without AS_PATH after one
  // with an AS_SET, and an IPv6 session before an IPv4 one: each reused
  // decode target must come out as a fresh decode would.
  const auto reg = hand_registry();
  mrt::MrtWriter writer;
  mrt::PeerIndexTable table = one_peer_table(10);
  table.peers.push_back(mrt::PeerEntry::ipv4_peer(2, 0xC0A80002, 20));
  writer.write_peer_index(kTimestamp, table);
  mrt::RibRecord wide;
  wide.prefix = bgp::Prefix::parse("10.1.0.0/16");
  wide.entries.push_back(rib_entry(0, {10, 20, 30}, {comm(10, 1), comm(20, 2)}));
  wide.entries.push_back(rib_entry(1, {20, 30}, {comm(20, 3)}));
  wide.entries[1].attributes.as_path = bgp::AsPath(
      {{bgp::SegmentType::kAsSequence, {20, 30}}, {bgp::SegmentType::kAsSet, {40, 50}}});
  wide.entries[1].attributes.large_communities = {bgp::CommunityValue::large(30, 1, 1)};
  wide.entries.push_back(rib_entry(0, {10, 10, 60}, {}));
  writer.write_rib(kTimestamp, wide);
  mrt::RibRecord narrow;
  narrow.prefix = bgp::Prefix::parse("10.2.0.0/16");
  narrow.entries.push_back(rib_entry(1, {20, 70}, {}));
  narrow.entries[0].attributes.as_path.reset();  // no AS_PATH at all
  writer.write_rib(kTimestamp, narrow);
  writer.write_rib(kTimestamp, wide);

  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath::from_sequence({10, 80});
  update.nlri = {bgp::Prefix::parse("10.3.0.0/16")};
  mrt::Bgp4mpMessage v6 = mrt::Bgp4mpMessage::ipv4_session(10, 65000, 1, 2, update.encode(true));
  v6.ipv6 = true;
  v6.peer_ip.fill(0x20);
  writer.write_message(kTimestamp, v6);
  writer.write_message(kTimestamp, mrt::Bgp4mpMessage::ipv4_session(10, 65000, 1, 2,
                                                                    update.encode(true)));

  const auto both = extract_both(reg, Dumps{writer.take()});
  EXPECT_TRUE(same_bundle(both.reference, both.builder));
  EXPECT_EQ(both.builder.sanitation.dropped_empty_path, 1u);
  EXPECT_EQ(both.builder.sanitation.as_sets_removed, 2u);
}

}  // namespace
}  // namespace bgpcu::collector
