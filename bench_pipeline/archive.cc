#include "archive.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "collector/emit.h"
#include "collector/spec.h"
#include "sim/scenario.h"
#include "sim/substrate.h"
#include "sim/wild.h"
#include "topology/generator.h"

namespace bgpcu::benchpipe {

namespace fs = std::filesystem;

namespace {

std::string date_of(std::uint32_t unix_seconds) {
  const std::time_t t = unix_seconds;
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y%m%d", &tm);
  return buf;
}

std::uint64_t write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path.string());
  return bytes.size();
}

}  // namespace

std::string day_dir(const std::string& archive, std::uint32_t day) {
  return (fs::path(archive) / ("day-" + std::to_string(day))).string();
}

std::uint64_t generate_archive(const std::string& dir, const ArchiveParams& params) {
  topology::GeneratorParams gen;
  gen.num_ases = params.num_ases;
  gen.num_tier1 = std::max<std::uint32_t>(6, params.num_ases / 1000);
  gen.seed = params.world_seed;
  auto topo = topology::generate(gen);

  collector::ProjectLayoutParams layout;
  layout.total_peers = params.peers;
  layout.seed = params.world_seed;
  const auto projects = collector::default_projects(topo, layout);
  const auto substrate = sim::build_substrate(topo, collector::all_peers(projects));

  sim::WildParams wild;
  wild.seed = params.world_seed;
  const auto roles = sim::assign_wild_roles(topo, wild);
  sim::OutputConfig output;
  output.pollution = wild.pollution;
  const auto dataset = sim::generate_dataset(topo, substrate, roles, output, params.world_seed,
                                             /*observations=*/3);
  const collector::PathOutputs outputs(dataset);

  std::uint64_t bytes = 0;
  for (std::uint32_t day = 0; day <= params.live_days; ++day) {
    collector::EmissionConfig emission;
    emission.seed = params.seed * 1000 + day;
    emission.base_timestamp += day * emission.day_seconds;
    const fs::path out_dir = day_dir(dir, day);
    fs::create_directories(out_dir);
    const std::string stamp = date_of(emission.base_timestamp) + ".0000.";
    for (const auto& project : projects) {
      for (const auto& emitted :
           collector::emit_project(topo, substrate, outputs, project, emission)) {
        // Later days carry updates only: the live stream re-announces the
        // day's churn slice, it never re-sends a full table.
        if (day == 0 && !emitted.rib_dump.empty()) {
          bytes += write_file(out_dir / ("bview." + stamp + emitted.name + ".mrt"),
                              emitted.rib_dump);
        }
        if (!emitted.update_dump.empty()) {
          bytes += write_file(out_dir / ("updates." + stamp + emitted.name + ".mrt"),
                              emitted.update_dump);
        }
      }
    }
  }
  return bytes;
}

std::vector<std::string> list_mrt(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".mrt") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::uint32_t live_days(const std::string& archive) {
  std::uint32_t days = 0;
  while (fs::is_directory(day_dir(archive, days + 1))) ++days;
  return days;
}

void link_or_copy(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::create_hard_link(from, to, ec);
  if (ec) fs::copy_file(from, to, fs::copy_options::overwrite_existing);
}

}  // namespace bgpcu::benchpipe
