// The extractor as it was before records were decoded in place: owning
// records from MrtReader::next, the by-value decoders, one RawEntry per route
// through Sanitizer::process with merged communities, and a sort-based
// core::deduplicate over every sanitized tuple. The differential tests hold
// collector::DatasetBuilder to it, bundle for bundle.
#ifndef BGPCU_TESTS_COLLECTOR_REFERENCE_EXTRACT_H
#define BGPCU_TESTS_COLLECTOR_REFERENCE_EXTRACT_H

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "bgp/message.h"
#include "collector/extract.h"
#include "mrt/bgp4mp.h"
#include "mrt/reader.h"
#include "mrt/table_dump_v2.h"

namespace bgpcu::collector::reference {

class ReferenceBuilder {
 public:
  explicit ReferenceBuilder(const registry::AllocationRegistry& reg) : sanitizer_(reg) {}

  void add_dump(std::span<const std::uint8_t> dump) {
    mrt::MrtReader reader(dump);
    std::optional<mrt::PeerIndexTable> peer_table;
    while (auto rec = reader.next()) {
      try {
        switch (rec->mrt_type()) {
          case mrt::MrtType::kTableDumpV2: {
            const auto subtype = static_cast<mrt::TableDumpV2Subtype>(rec->subtype);
            if (subtype == mrt::TableDumpV2Subtype::kPeerIndexTable) {
              peer_table = mrt::PeerIndexTable::decode(rec->body);
              break;
            }
            auto rib = mrt::RibRecord::decode(rec->body, subtype);
            for (auto& entry : rib.entries) {
              if (!peer_table || entry.peer_index >= peer_table->peers.size()) {
                ++bundle_.extraction.decode_errors;
                continue;
              }
              RawEntry raw;
              raw.prefix = rib.prefix;
              raw.session_peer_asn = peer_table->peers[entry.peer_index].asn;
              if (entry.attributes.as_path) raw.as_path = std::move(*entry.attributes.as_path);
              raw.comms = entry.attributes.all_communities();
              raw.from_rib = true;
              ingest(raw);
            }
            break;
          }
          case mrt::MrtType::kBgp4mp:
          case mrt::MrtType::kBgp4mpEt: {
            const auto subtype = static_cast<mrt::Bgp4mpSubtype>(rec->subtype);
            if (subtype != mrt::Bgp4mpSubtype::kMessage &&
                subtype != mrt::Bgp4mpSubtype::kMessageAs4) {
              break;
            }
            std::span<const std::uint8_t> body = rec->body;
            if (rec->mrt_type() == mrt::MrtType::kBgp4mpEt) {
              // RFC 6396 §3: the microsecond timestamp heads an _ET body.
              if (body.size() < 4) throw bgp::WireError("BGP4MP_ET body shorter than 4 bytes");
              body = body.subspan(4);
            }
            const auto msg = mrt::Bgp4mpMessage::decode(body, subtype);
            const auto header = bgp::peek_header(msg.bgp_message);
            if (header.type != bgp::MessageType::kUpdate) break;
            ++bundle_.extraction.update_messages;
            auto update = bgp::UpdateMessage::decode(msg.bgp_message, msg.as4);
            bundle_.extraction.withdrawals += update.withdrawn.size();
            if (update.attributes.mp_unreach) {
              bundle_.extraction.withdrawals += update.attributes.mp_unreach->withdrawn.size();
            }
            RawEntry raw;
            raw.session_peer_asn = msg.peer_asn;
            raw.comms = update.attributes.all_communities();
            if (update.attributes.as_path) raw.as_path = std::move(*update.attributes.as_path);
            raw.from_rib = false;
            const auto ingest_prefix = [&](const bgp::Prefix& prefix) {
              raw.prefix = prefix;
              ingest(raw);
            };
            for (const auto& prefix : update.nlri) ingest_prefix(prefix);
            if (update.attributes.mp_reach) {
              for (const auto& prefix : update.attributes.mp_reach->nlri) ingest_prefix(prefix);
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

  DatasetBundle finish() {
    bundle_.sanitation = sanitizer_.stats();
    core::deduplicate(bundle_.dataset);
    return std::move(bundle_);
  }

 private:
  void ingest(const RawEntry& entry) {
    ++bundle_.extraction.entries_total;
    if (entry.from_rib) ++bundle_.extraction.rib_entries;
    bundle_.session_peers.insert(entry.session_peer_asn);
    for (const auto& segment : entry.as_path.segments()) {
      for (const bgp::Asn asn : segment.asns) bundle_.raw_asns.insert(asn);
    }
    for (const auto& c : entry.comms) {
      ++bundle_.extraction.communities_total;
      if (c.kind == bgp::CommunityKind::kLarge) ++bundle_.extraction.large_communities_total;
      bundle_.unique_comms.insert(c);
    }
    if (auto tuple = sanitizer_.process(entry)) bundle_.dataset.push_back(std::move(*tuple));
  }

  Sanitizer sanitizer_;
  DatasetBundle bundle_;
};

/// Both builders' bundles over the same dumps, fed in order.
struct BundlePair {
  DatasetBundle reference;
  DatasetBundle builder;
};

template <typename Dumps>
BundlePair extract_both(const registry::AllocationRegistry& reg, const Dumps& dumps) {
  ReferenceBuilder reference(reg);
  DatasetBuilder builder(reg);
  for (const auto& dump : dumps) {
    reference.add_dump(dump);
    builder.add_dump(dump);
  }
  return {reference.finish(), builder.finish()};
}

/// Equality of every bundle field, naming each one that differs.
inline ::testing::AssertionResult same_bundle(const DatasetBundle& want,
                                              const DatasetBundle& got) {
  std::ostringstream diff;
  const auto field = [&diff](const char* name, std::uint64_t a, std::uint64_t b) {
    if (a != b) diff << name << ": reference " << a << ", builder " << b << "\n";
  };
  field("extraction.entries_total", want.extraction.entries_total,
        got.extraction.entries_total);
  field("extraction.rib_entries", want.extraction.rib_entries, got.extraction.rib_entries);
  field("extraction.update_messages", want.extraction.update_messages,
        got.extraction.update_messages);
  field("extraction.withdrawals", want.extraction.withdrawals, got.extraction.withdrawals);
  field("extraction.decode_errors", want.extraction.decode_errors,
        got.extraction.decode_errors);
  field("extraction.communities_total", want.extraction.communities_total,
        got.extraction.communities_total);
  field("extraction.large_communities_total", want.extraction.large_communities_total,
        got.extraction.large_communities_total);
  field("sanitation.input", want.sanitation.input, got.sanitation.input);
  field("sanitation.dropped_unallocated_prefix", want.sanitation.dropped_unallocated_prefix,
        got.sanitation.dropped_unallocated_prefix);
  field("sanitation.dropped_unallocated_asn", want.sanitation.dropped_unallocated_asn,
        got.sanitation.dropped_unallocated_asn);
  field("sanitation.as_sets_removed", want.sanitation.as_sets_removed,
        got.sanitation.as_sets_removed);
  field("sanitation.peer_prepended", want.sanitation.peer_prepended,
        got.sanitation.peer_prepended);
  field("sanitation.prepending_collapsed", want.sanitation.prepending_collapsed,
        got.sanitation.prepending_collapsed);
  field("sanitation.dropped_empty_path", want.sanitation.dropped_empty_path,
        got.sanitation.dropped_empty_path);
  field("sanitation.output", want.sanitation.output, got.sanitation.output);
  if (want.dataset != got.dataset) {
    std::size_t i = 0;
    while (i < want.dataset.size() && i < got.dataset.size() && want.dataset[i] == got.dataset[i]) {
      ++i;
    }
    diff << "dataset: reference " << want.dataset.size() << " tuples, builder "
         << got.dataset.size() << ", first difference at " << i << "\n";
  }
  if (want.raw_asns != got.raw_asns) diff << "raw_asns differ\n";
  if (want.unique_comms != got.unique_comms) diff << "unique_comms differ\n";
  if (want.session_peers != got.session_peers) diff << "session_peers differ\n";
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << diff.str();
}

}  // namespace bgpcu::collector::reference

#endif  // BGPCU_TESTS_COLLECTOR_REFERENCE_EXTRACT_H
