// Named counter records.  Each serving component reports its own counters
// as {name, value} pairs, so a counter's name lives only in the component
// that owns it: BlockCache and SingleFlight report theirs,
// ArchiveReader::metrics() adds its own, and Server::stats() puts its own
// in front of the reader's.  The `stats` op carries the list on the wire
// as it is, and the CLI prints it with one loop.  Names are snake_case,
// e.g. requests_ok.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sz14 {

struct Metric {
  std::string name;
  std::uint64_t value = 0;
};

using Metrics = std::vector<Metric>;

/// Value of the record called `name`.  Throws std::out_of_range when no
/// record has that name, so a renamed or dropped counter fails loudly.
[[nodiscard]] inline std::uint64_t metric(const Metrics& records,
                                          std::string_view name) {
  for (const Metric& m : records)
    if (m.name == name) return m.value;
  throw std::out_of_range("metrics: no counter named '" + std::string(name) +
                          "'");
}

}  // namespace sz14
