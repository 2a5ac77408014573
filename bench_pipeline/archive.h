// The seeded MRT archive every workload reads: one synthetic Internet of a
// fixed size, emitted as collector dumps the way a RIS/RouteViews-style
// archive lays them out on disk. The program under test only ever sees these
// files; the in-memory world that produced them never reaches a workload
// process.
//
// Layout of an archive directory:
//   day-0/bview.20210519.0000.<collector>.mrt    RIB dumps (RIB-carrying projects)
//   day-0/updates.20210519.0000.<collector>.mrt  update dumps (every collector)
//   day-<d>/updates.<date>.0000.<collector>.mrt  d = 1..live_days, updates only
// Day 0 is the batch input and the daemon's start-up backlog; days 1.. are
// the update stream the live workload cycles through.
#ifndef BGPCU_BENCH_PIPELINE_ARCHIVE_H
#define BGPCU_BENCH_PIPELINE_ARCHIVE_H

#include <cstdint>
#include <string>
#include <vector>

namespace bgpcu::benchpipe {

/// World and archive size. Fixed per workload: no environment variable can
/// rescale what a named workload measures.
///
/// The world itself — topology, collector layout, community roles — is one
/// fixed synthetic Internet; the seed draws each day's traffic over it
/// (which routes churn, duplicates, withdrawals, prepending, aggregation,
/// bogus splices). Drawing a new world per seed would change the amount of
/// work by up to 20% between seeds (157k to 189k unique tuples per day), and
/// a workload's numbers must move only when the program does.
struct ArchiveParams {
  std::uint64_t seed = 1;
  std::uint64_t world_seed = 1;
  std::uint32_t num_ases = 4000;  ///< ~177k unique tuples per day, paper scale.
  std::size_t peers = 80;         ///< Distinct collector-peer ASes.
  std::uint32_t live_days = 8;    ///< Update-only days after day 0.
};

/// Generates the archive under `dir` (created; must not hold an archive
/// already). Returns the number of bytes written.
std::uint64_t generate_archive(const std::string& dir, const ArchiveParams& params);

/// Directory of day `day` inside an archive.
[[nodiscard]] std::string day_dir(const std::string& archive, std::uint32_t day);

/// The `.mrt` files of one directory, sorted by name (= arrival order).
[[nodiscard]] std::vector<std::string> list_mrt(const std::string& dir);

/// Number of update-only days present in an archive.
[[nodiscard]] std::uint32_t live_days(const std::string& archive);

/// Hard-links `from` to `to` (same filesystem), copying when linking fails.
/// Linking keeps the live workload from writing megabytes per second of file
/// data that every WAL fsync would then have to flush alongside its own.
void link_or_copy(const std::string& from, const std::string& to);

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_ARCHIVE_H
