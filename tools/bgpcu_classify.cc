// bgpcu_classify — command-line front end to the inference pipeline.
//
// Reads MRT dump files (TABLE_DUMP_V2 RIBs and/or BGP4MP updates, e.g. from
// RIPE RIS or RouteViews), applies the paper's sanitation (§4.1), runs the
// column-based inference (§5.6) and writes the per-AS community-usage
// database to stdout (or --output FILE).
//
// Usage:
//   bgpcu_classify [options] DUMP.mrt [DUMP2.mrt ...]
//
// Options:
//   --threshold P      classification threshold in [0.5, 1.0], default 0.99
//   --allocations F    allocation table: lines "asn LO HI" or "prefix P/len";
//                      without it every ASN/prefix is treated as allocated
//                      (the allocation filter becomes a no-op)
//   --output F         write the database to F instead of stdout
//   --vocabulary       also emit per-tagger community vocabularies (§8)
//   --summary          print class counts instead of the full database
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "collector/extract.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/vocabulary.h"
#include "mrt/reader.h"
#include "registry/registry.h"
#include "util/cli.h"

namespace {

using namespace bgpcu;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--threshold P] [--allocations F] [--output F] [--vocabulary] [--summary]"
               " DUMP.mrt...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.99;
  std::string allocations_path;
  std::string output_path;
  bool vocabulary = false;
  bool summary = false;
  std::vector<std::string> dumps;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threshold") {
      threshold = util::parse_threshold_or_exit(next());
    } else if (arg == "--allocations") {
      allocations_path = next();
    } else if (arg == "--output") {
      output_path = next();
    } else if (arg == "--vocabulary") {
      vocabulary = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    } else {
      dumps.push_back(arg);
    }
  }
  if (dumps.empty()) return usage(argv[0]);

  try {
    const auto reg = allocations_path.empty() ? registry::allow_all()
                                              : registry::load_allocations(allocations_path);
    collector::DatasetBuilder builder(reg);
    for (const auto& path : dumps) {
      // Feed the raw image straight to the extractor; the old parse +
      // re-serialize round trip through MrtWriter doubled the work per dump.
      const auto bytes = mrt::load_file(path);
      builder.add_dump(bytes);
      std::cerr << path << ": " << bytes.size() << " bytes\n";
    }
    const auto bundle = builder.finish();
    std::cerr << "entries: " << bundle.extraction.entries_total
              << " (RIB " << bundle.extraction.rib_entries << ", decode errors "
              << bundle.extraction.decode_errors << ")\n"
              << "sanitation: " << bundle.sanitation.output << " of "
              << bundle.sanitation.input << " entries kept, "
              << bundle.dataset.size() << " unique (path, comm) tuples\n";

    core::EngineConfig config;
    config.thresholds = core::Thresholds::uniform(threshold);
    const auto result = core::ColumnEngine(config).run(bundle.dataset);

    std::ofstream file;
    std::ostream* out = &std::cout;
    if (!output_path.empty()) {
      file.open(output_path, std::ios::trunc);
      if (!file) throw std::runtime_error("cannot open output file: " + output_path);
      out = &file;
    }

    if (summary) {
      std::size_t tagger = 0, silent = 0, fwd = 0, cleaner = 0, undecided = 0, full = 0;
      for (const auto& [asn, counters] : result.counter_map()) {
        const auto usage_class = core::classify(counters, result.thresholds());
        tagger += usage_class.tagging == core::TaggingClass::kTagger;
        silent += usage_class.tagging == core::TaggingClass::kSilent;
        undecided += usage_class.tagging == core::TaggingClass::kUndecided;
        fwd += usage_class.forwarding == core::ForwardingClass::kForward;
        cleaner += usage_class.forwarding == core::ForwardingClass::kCleaner;
        full += usage_class.full();
      }
      *out << "tagger " << tagger << "\nsilent " << silent << "\nundecided " << undecided
           << "\nforward " << fwd << "\ncleaner " << cleaner << "\nfull " << full << "\n";
    } else {
      core::write_database(*out, result);
    }

    if (vocabulary) {
      const auto vocab = core::infer_vocabulary(bundle.dataset, result);
      *out << "# vocabulary: asn value occurrences coverage kind\n";
      for (const auto& [asn, entries] : vocab) {
        for (const auto& entry : entries) {
          *out << "V " << asn << ' ' << entry.value.to_string() << ' ' << entry.occurrences
               << ' ' << entry.coverage << ' ' << core::to_string(entry.kind) << '\n';
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
