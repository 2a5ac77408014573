// MRT extraction: walks dump buffers, decodes RIB and update records in
// place, pipes each route through the sanitizer, and accumulates the
// distinct tuples + the statistics behind the paper's Table 1.
#ifndef BGPCU_COLLECTOR_EXTRACT_H
#define BGPCU_COLLECTOR_EXTRACT_H

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "bgp/message.h"
#include "collector/sanitize.h"
#include "core/types.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v2.h"
#include "registry/registry.h"

namespace bgpcu::collector {

/// Raw-input counters (pre-sanitation).
struct ExtractionStats {
  std::uint64_t entries_total = 0;  ///< RIB entries + announced NLRI.
  std::uint64_t rib_entries = 0;
  std::uint64_t update_messages = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t decode_errors = 0;  ///< Records skipped due to body corruption.
  std::uint64_t communities_total = 0;       ///< Community occurrences.
  std::uint64_t large_communities_total = 0;

  ExtractionStats& operator+=(const ExtractionStats& other) noexcept;
};

/// A dataset with everything needed to print a Table-1 column.
struct DatasetBundle {
  core::Dataset dataset;  ///< Sanitized, deduplicated tuples.
  ExtractionStats extraction;
  SanitationStats sanitation;
  std::unordered_set<bgp::Asn> raw_asns;       ///< Distinct ASNs pre-cleaning.
  std::unordered_set<bgp::CommunityValue> unique_comms;
  std::unordered_set<bgp::Asn> session_peers;  ///< Distinct MRT peer ASNs.

  /// Merges another bundle (for the RIPE+RouteViews+Isolario aggregate).
  void merge(DatasetBundle&& other);
};

/// Streaming builder: feed MRT dump buffers, then `finish()`.
///
/// Records are decoded into reused objects and each route is sanitized into
/// a reused scratch tuple, so the steady state allocates only for a tuple
/// not seen before: most input re-announces a known (path, communities).
class DatasetBuilder {
 public:
  explicit DatasetBuilder(const registry::AllocationRegistry& reg) : sanitizer_(reg) {}

  /// Extracts one dump (RIB or update file image). Decode errors are counted
  /// per record and do not abort the dump.
  void add_dump(std::span<const std::uint8_t> dump);

  /// Sorts the distinct tuples and returns the bundle; the builder is spent
  /// afterwards.
  [[nodiscard]] DatasetBundle finish();

 private:
  /// A slot of the distinct-tuple index: a 32-bit digest of the tuple and
  /// its row in `bundle_.dataset` plus one (0 marks an empty slot).
  struct Slot {
    std::uint32_t digest = 0;
    std::uint32_t row = 0;
  };

  void ingest(const bgp::Prefix& prefix, bgp::Asn session_peer_asn,
              const bgp::PathAttributes& attributes, bool from_rib);
  /// Appends `scratch_`, whose digest is `digest`, to the dataset unless an
  /// equal tuple is there. `slots_` must have room for one more row.
  void keep_if_new(std::uint32_t digest);
  void grow_index();

  Sanitizer sanitizer_;
  DatasetBundle bundle_;  ///< `dataset` holds each distinct tuple once.
  // Decode targets and the sanitized tuple, reused across records.
  mrt::RibRecord rib_;
  mrt::Bgp4mpMessage message_;
  bgp::UpdateMessage update_;
  core::PathCommTuple scratch_;
  /// Open addressing with linear probing over `bundle_.dataset`; a power of
  /// two in size, at most half full.
  std::vector<Slot> slots_;
};

/// The derived Table-1 row values for one dataset.
struct DatasetStats {
  std::uint64_t entries_total = 0;
  std::uint64_t rib_entries = 0;
  std::uint64_t unique_tuples = 0;
  std::uint64_t asns_raw = 0;
  std::uint64_t asns_clean = 0;
  std::uint64_t leaf_ases = 0;
  std::uint64_t asns_32bit = 0;
  std::uint64_t collector_peers = 0;
  std::uint64_t communities_total = 0;
  std::uint64_t large_communities_total = 0;
  std::uint64_t unique_communities = 0;
  std::uint64_t unique_large_communities = 0;
  std::uint64_t uniq_upper_regular = 0;
  std::uint64_t uniq_upper_large = 0;
  std::uint64_t uniq_upper_both = 0;
  std::uint64_t uniq_upper_wo_private = 0;
  std::uint64_t uniq_upper_wo_stray = 0;
};

/// Computes the Table-1 values from a bundle (unique uppers, leaf/32-bit AS
/// counts, stray/private reductions per §3.2/§4.2).
[[nodiscard]] DatasetStats compute_stats(const DatasetBundle& bundle,
                                         const registry::AllocationRegistry& reg);

}  // namespace bgpcu::collector

#endif  // BGPCU_COLLECTOR_EXTRACT_H
