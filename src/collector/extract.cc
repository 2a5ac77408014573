#include "collector/extract.h"

#include <algorithm>
#include <functional>

#include "mrt/reader.h"

namespace bgpcu::collector {

ExtractionStats& ExtractionStats::operator+=(const ExtractionStats& other) noexcept {
  entries_total += other.entries_total;
  rib_entries += other.rib_entries;
  update_messages += other.update_messages;
  withdrawals += other.withdrawals;
  decode_errors += other.decode_errors;
  communities_total += other.communities_total;
  large_communities_total += other.large_communities_total;
  return *this;
}

void DatasetBundle::merge(DatasetBundle&& other) {
  dataset.reserve(dataset.size() + other.dataset.size());
  dataset.insert(dataset.end(), std::make_move_iterator(other.dataset.begin()),
                 std::make_move_iterator(other.dataset.end()));
  core::deduplicate(dataset);
  extraction += other.extraction;
  sanitation += other.sanitation;
  raw_asns.merge(other.raw_asns);
  unique_comms.merge(other.unique_comms);
  session_peers.merge(other.session_peers);
}

namespace {

const bgp::AsPath kNoPath;

/// The tuple's std::hash, finalized with murmur3's fmix64 so the low bits
/// the index masks with depend on every input bit.
std::uint32_t digest_of(const core::PathCommTuple& tuple) {
  std::uint64_t h = std::hash<core::PathCommTuple>{}(tuple);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

void DatasetBuilder::ingest(const bgp::Prefix& prefix, bgp::Asn session_peer_asn,
                            const bgp::PathAttributes& attributes, bool from_rib) {
  const bgp::AsPath& as_path = attributes.as_path ? *attributes.as_path : kNoPath;
  const bool kept = sanitizer_.process_into(prefix, session_peer_asn, as_path,
                                            attributes.communities,
                                            attributes.large_communities, scratch_);
  std::uint32_t digest = 0;
  if (kept) {
    if ((bundle_.dataset.size() + 1) * 2 > slots_.size()) grow_index();
    digest = digest_of(scratch_);
    // The probe's first slot is usually a cache miss: start loading it now
    // and run the Table-1 accounting while it arrives.
    __builtin_prefetch(&slots_[digest & (slots_.size() - 1)]);
  }

  ++bundle_.extraction.entries_total;
  if (from_rib) ++bundle_.extraction.rib_entries;
  bundle_.session_peers.insert(session_peer_asn);
  for (const auto& segment : as_path.segments()) {
    for (const bgp::Asn asn : segment.asns) bundle_.raw_asns.insert(asn);
  }
  for (const auto* set : {&attributes.communities, &attributes.large_communities}) {
    for (const auto& c : *set) {
      ++bundle_.extraction.communities_total;
      if (c.kind == bgp::CommunityKind::kLarge) ++bundle_.extraction.large_communities_total;
      bundle_.unique_comms.insert(c);
    }
  }
  if (kept) keep_if_new(digest);
}

void DatasetBuilder::keep_if_new(std::uint32_t digest) {
  auto& dataset = bundle_.dataset;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = digest & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.row == 0) {
      dataset.push_back(scratch_);  // a copy: the scratch keeps its buffers
      slot = {digest, static_cast<std::uint32_t>(dataset.size())};
      return;
    }
    if (slot.digest == digest && dataset[slot.row - 1] == scratch_) return;
  }
}

void DatasetBuilder::grow_index() {
  std::vector<Slot> grown(std::max<std::size_t>(1024, slots_.size() * 2));
  const std::size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.row == 0) continue;
    std::size_t i = slot.digest & mask;
    while (grown[i].row != 0) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_ = std::move(grown);
}

void DatasetBuilder::add_dump(std::span<const std::uint8_t> dump) {
  mrt::MrtReader reader(dump);
  std::optional<mrt::PeerIndexTable> peer_table;

  while (const auto rec = reader.next_view()) {
    try {
      switch (rec->mrt_type()) {
        case mrt::MrtType::kTableDumpV2: {
          const auto subtype = static_cast<mrt::TableDumpV2Subtype>(rec->subtype);
          if (subtype == mrt::TableDumpV2Subtype::kPeerIndexTable) {
            peer_table = mrt::PeerIndexTable::decode(rec->body);
            break;
          }
          // The whole record decodes before any entry is ingested, so a
          // malformed entry drops its siblings too.
          mrt::RibRecord::decode_into(rec->body, subtype, rib_);
          for (const auto& entry : rib_.entries) {
            if (!peer_table || entry.peer_index >= peer_table->peers.size()) {
              ++bundle_.extraction.decode_errors;
              continue;
            }
            ingest(rib_.prefix, peer_table->peers[entry.peer_index].asn, entry.attributes,
                   /*from_rib=*/true);
          }
          break;
        }
        case mrt::MrtType::kBgp4mp:
        case mrt::MrtType::kBgp4mpEt: {
          const auto subtype = static_cast<mrt::Bgp4mpSubtype>(rec->subtype);
          if (subtype != mrt::Bgp4mpSubtype::kMessage &&
              subtype != mrt::Bgp4mpSubtype::kMessageAs4) {
            break;  // state changes carry no routes
          }
          auto body = rec->body;
          if (rec->mrt_type() == mrt::MrtType::kBgp4mpEt) {
            // RFC 6396 §3: an _ET body opens with a 4-byte microsecond
            // timestamp, counted in the record length.
            if (body.size() < 4) throw bgp::WireError("BGP4MP_ET body shorter than 4 bytes");
            body = body.subspan(4);
          }
          const auto message = mrt::Bgp4mpMessage::decode_into(body, subtype, message_);
          const auto header = bgp::peek_header(message);
          if (header.type != bgp::MessageType::kUpdate) break;
          ++bundle_.extraction.update_messages;
          bgp::UpdateMessage::decode_into(message, message_.as4, update_);
          const auto& attributes = update_.attributes;
          bundle_.extraction.withdrawals += update_.withdrawn.size();
          if (attributes.mp_unreach) {
            bundle_.extraction.withdrawals += attributes.mp_unreach->withdrawn.size();
          }
          // All announced prefixes share one attribute block.
          for (const auto& prefix : update_.nlri) {
            ingest(prefix, message_.peer_asn, attributes, /*from_rib=*/false);
          }
          if (attributes.mp_reach) {
            for (const auto& prefix : attributes.mp_reach->nlri) {
              ingest(prefix, message_.peer_asn, attributes, /*from_rib=*/false);
            }
          }
          break;
        }
        default:
          break;
      }
    } catch (const bgp::WireError&) {
      ++bundle_.extraction.decode_errors;
    }
  }
}

DatasetBundle DatasetBuilder::finish() {
  bundle_.sanitation = sanitizer_.stats();
  // Every tuple is distinct already; only the order is left to establish.
  std::sort(bundle_.dataset.begin(), bundle_.dataset.end(), core::TupleLess{});
  slots_ = std::vector<Slot>();
  return std::move(bundle_);
}

DatasetStats compute_stats(const DatasetBundle& bundle, const registry::AllocationRegistry& reg) {
  DatasetStats s;
  s.entries_total = bundle.extraction.entries_total;
  s.rib_entries = bundle.extraction.rib_entries;
  s.unique_tuples = bundle.dataset.size();
  s.asns_raw = bundle.raw_asns.size();
  s.communities_total = bundle.extraction.communities_total;
  s.large_communities_total = bundle.extraction.large_communities_total;
  s.collector_peers = bundle.session_peers.size();

  // Post-cleaning AS statistics.
  const auto asns = core::distinct_asns(bundle.dataset);
  s.asns_clean = asns.size();
  s.asns_32bit = static_cast<std::uint64_t>(
      std::count_if(asns.begin(), asns.end(), [](bgp::Asn a) { return bgp::is_32bit_asn(a); }));

  std::unordered_set<bgp::Asn> transit;
  std::unordered_set<bgp::Asn> uppers_on_path;  // "w/o stray" survivors
  for (const auto& tuple : bundle.dataset) {
    for (std::size_t i = 0; i + 1 < tuple.path.size(); ++i) transit.insert(tuple.path[i]);
    for (const auto& c : tuple.comms) {
      if (std::find(tuple.path.begin(), tuple.path.end(), c.upper) != tuple.path.end()) {
        uppers_on_path.insert(c.upper);
      }
    }
  }
  std::uint64_t leafs = 0;
  for (const auto asn : asns) {
    if (!transit.contains(asn)) ++leafs;
  }
  s.leaf_ases = leafs;

  // Unique community / upper-field statistics over the raw value universe.
  std::unordered_set<bgp::Asn> uppers_regular, uppers_large, uppers_all, uppers_public;
  for (const auto& c : bundle.unique_comms) {
    if (c.kind == bgp::CommunityKind::kLarge) {
      ++s.unique_large_communities;
      uppers_large.insert(c.upper);
    } else {
      uppers_regular.insert(c.upper);
    }
    ++s.unique_communities;
    uppers_all.insert(c.upper);
    if (reg.is_public_allocated(c.upper)) uppers_public.insert(c.upper);
  }
  s.uniq_upper_regular = uppers_regular.size();
  s.uniq_upper_large = uppers_large.size();
  s.uniq_upper_both = uppers_all.size();
  s.uniq_upper_wo_private = uppers_public.size();
  s.uniq_upper_wo_stray = static_cast<std::uint64_t>(
      std::count_if(uppers_public.begin(), uppers_public.end(),
                    [&uppers_on_path](bgp::Asn a) { return uppers_on_path.contains(a); }));
  return s;
}

}  // namespace bgpcu::collector
