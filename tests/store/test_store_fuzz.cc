// Seed-driven structured fuzz over the store's on-disk decoders, in the
// style of tests/api/test_wire.cc's wire fuzz: take valid bytes for every
// file kind (WAL segment, manifest, state file), apply
// random byte flips, truncations, length inflation, splices, and chunk
// duplication, and hold the decode contracts:
//
//   - read_segment_file NEVER throws: corruption is truncate-and-warn.
//   - decode_manifest / decode_state_file either succeed or throw
//     StoreError — nothing else, no crash, no over-read
//     (ASan enforces the over-read half in CI).
//   - A whole Store opening + recovering a mutated directory never throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/service.h"
#include "store/io.h"
#include "store/store.h"
#include "store_test_util.h"
#include "topology/rng.h"

namespace bgpcu::store {
namespace {

namespace fs = std::filesystem;
using testutil::TempDir;

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One seed-selected mutation (the wire-fuzz set, minus the frame-header
/// special case: store files have no fixed-offset length field).
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& bytes,
                                 topology::Rng& rng) {
  auto mutated = bytes;
  if (mutated.empty()) return mutated;
  switch (rng.below(5)) {
    case 0: {  // random byte flips, 1..8 of them
      const auto flips = 1 + rng.below(8);
      for (std::uint64_t i = 0; i < flips; ++i) {
        mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      break;
    }
    case 1:  // truncate at a random boundary
      mutated.resize(rng.below(mutated.size() + 1));
      break;
    case 2: {  // inflate a varint-looking region (set continuation bits)
      const auto start = rng.below(mutated.size());
      const auto len = 1 + rng.below(std::min<std::size_t>(4, mutated.size() - start));
      for (std::size_t i = start; i < start + len; ++i) mutated[i] |= 0x80;
      break;
    }
    case 3: {  // splice a random chunk out of the middle
      if (mutated.size() > 2) {
        const auto start = 1 + rng.below(mutated.size() - 2);
        const auto len = 1 + rng.below(mutated.size() - start);
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                      mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
      }
      break;
    }
    default: {  // duplicate a chunk in place (grows counts/lengths)
      const auto start = rng.below(mutated.size());
      const auto len = 1 + rng.below(std::min<std::size_t>(16, mutated.size() - start));
      const std::vector<std::uint8_t> chunk(
          mutated.begin() + static_cast<std::ptrdiff_t>(start),
          mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
      mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start), chunk.begin(),
                     chunk.end());
      break;
    }
  }
  return mutated;
}

/// A populated store directory: a few live epochs, one checkpoint, a WAL
/// tail — every file kind the fuzzers need, with realistic contents.
void populate(const std::string& dir, std::uint64_t seed) {
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir, .checkpoint_every_epochs = 0});
  topology::Rng rng(seed);
  for (std::size_t e = 0; e < 5; ++e) {
    if (e > 0) service.advance_epoch();
    const auto batch = testutil::random_dataset(rng, 25);
    store.append_epoch_batch(service.epoch(), batch, testutil::marks_at(e));
    service.ingest(batch);
    store.append_epoch_delta(service.publish());
    if (e == 2) ASSERT_TRUE(store.checkpoint(service));
  }
}

TEST(StoreFuzz, MutatedSegmentsNeverMakeTheReaderThrow) {
  TempDir dir("fuzz_segment");
  populate(dir.str(), 81);
  const auto segments = list_segments(dir.str(), 0);
  ASSERT_FALSE(segments.empty());
  const auto pristine = io::read_file(segments[0].second);
  const auto baseline = read_segment_file(segments[0].second);
  ASSERT_GT(baseline.records.size(), 0u);

  const auto scratch = dir.str() + "/scratch.seg";
  topology::Rng rng(std::hash<std::string_view>{}("segment"));
  for (int round = 0; round < 400; ++round) {
    write_raw(scratch, mutate(pristine, rng));
    WalReadResult result;
    EXPECT_NO_THROW(result = read_segment_file(scratch)) << "round " << round;
    EXPECT_LE(result.records.size(), baseline.records.size() + 16)
        << "mutations cannot mint a flood of phantom records";
  }
}

TEST(StoreFuzz, MutatedManifestAndCheckpointFilesDecodeCleanlyOrThrowStoreError) {
  TempDir dir("fuzz_files");
  populate(dir.str(), 82);

  struct Corpus {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::function<void(std::span<const std::uint8_t>)> decode;
  };
  const std::vector<Corpus> corpus = {
      {"manifest", io::read_file(manifest_path(dir.str())),
       [](std::span<const std::uint8_t> b) { (void)decode_manifest(b); }},
      {"state", io::read_file(checkpoint_path(dir.str(), 2, ".state")),
       [](std::span<const std::uint8_t> b) { (void)decode_state_file(b); }},
  };
  for (const auto& entry : corpus) {
    entry.decode(entry.bytes);  // sanity: unmutated bytes decode
    topology::Rng rng(std::hash<std::string_view>{}(entry.name));
    for (int round = 0; round < 400; ++round) {
      const auto mutated = mutate(entry.bytes, rng);
      try {
        entry.decode(mutated);
      } catch (const StoreError&) {
        // The only failure currency store decoders are allowed.
      }
    }
  }
}

TEST(StoreFuzz, TruncationAtEveryBoundaryThrowsForSealedFiles) {
  TempDir dir("fuzz_truncate");
  populate(dir.str(), 83);
  const auto manifest = io::read_file(manifest_path(dir.str()));
  const auto state = io::read_file(checkpoint_path(dir.str(), 2, ".state"));
  for (std::size_t len = 0; len < manifest.size(); ++len) {
    EXPECT_THROW((void)decode_manifest(std::span(manifest.data(), len)), StoreError)
        << "manifest prefix " << len;
  }
  for (std::size_t len = 0; len < state.size(); ++len) {
    EXPECT_THROW((void)decode_state_file(std::span(state.data(), len)), StoreError)
        << "state prefix " << len;
  }
}

TEST(StoreFuzz, SplicedRecordStreamsSurviveTheSegmentWalk) {
  TempDir dir("fuzz_splice");
  populate(dir.str(), 84);
  const auto segments = list_segments(dir.str(), 0);
  ASSERT_FALSE(segments.empty());
  const auto pristine = io::read_file(segments.back().second);

  // Splice copies of the file's own tail into the middle at random cuts:
  // record envelopes land at wrong offsets, lengths point into CRC fields,
  // CRCs cover the wrong bytes. The reader must classify each as
  // truncate-and-stop, never crash.
  const auto scratch = dir.str() + "/spliced.seg";
  topology::Rng rng(1999);
  for (int round = 0; round < 200; ++round) {
    auto spliced = pristine;
    const auto cut = rng.below(spliced.size());
    const auto from = rng.below(pristine.size());
    spliced.insert(spliced.begin() + static_cast<std::ptrdiff_t>(cut),
                   pristine.begin() + static_cast<std::ptrdiff_t>(from), pristine.end());
    write_raw(scratch, spliced);
    EXPECT_NO_THROW((void)read_segment_file(scratch)) << "round " << round;
  }
}

TEST(StoreFuzz, RecoveryOverMutatedDirectoriesNeverThrows) {
  TempDir pristine_dir("fuzz_dir_pristine");
  populate(pristine_dir.str(), 85);

  // Collect the pristine files once, then each round rebuild a directory
  // with one file mutated and run the full open + recover path over it.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> files;
  for (const auto& entry : fs::directory_iterator(pristine_dir.str())) {
    files.emplace_back(entry.path().filename().string(),
                       io::read_file(entry.path().string()));
  }
  ASSERT_GE(files.size(), 4u) << "manifest + checkpoint files + wal expected";

  topology::Rng rng(2026);
  for (int round = 0; round < 40; ++round) {
    TempDir dir("fuzz_dir_round");
    const auto victim = rng.below(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto& [name, bytes] = files[i];
      write_raw(dir.str() + "/" + name, i == victim ? mutate(bytes, rng) : bytes);
    }
    api::Service service(testutil::test_service_config());
    RecoveryStats rec;
    EXPECT_NO_THROW({
      Store store({.dir = dir.str()});
      rec = store.recover(service);
    }) << "round " << round << " mutated " << files[victim].first;
    EXPECT_NO_THROW(
        (void)service.query({.kind = api::QueryKind::kStats}))
        << "the service must stay serveable after degraded recovery";
  }
}

}  // namespace
}  // namespace bgpcu::store
