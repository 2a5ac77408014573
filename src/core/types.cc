#include "core/types.h"

#include <algorithm>

namespace bgpcu::core {

std::string PathCommTuple::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(path[i]);
  }
  out += " |";
  for (const auto& c : comms) {
    out += ' ';
    out += c.to_string();
  }
  return out;
}

std::size_t deduplicate(Dataset& tuples) {
  for (auto& t : tuples) bgp::normalize(t.comms);
  const std::size_t before = tuples.size();
  std::sort(tuples.begin(), tuples.end(), TupleLess{});
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return before - tuples.size();
}

std::vector<bgp::Asn> distinct_asns(const Dataset& tuples) {
  std::size_t total = 0;
  for (const auto& t : tuples) total += t.path.size();
  std::vector<bgp::Asn> asns;
  asns.reserve(total);
  for (const auto& t : tuples) {
    asns.insert(asns.end(), t.path.begin(), t.path.end());
  }
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  return asns;
}

}  // namespace bgpcu::core
