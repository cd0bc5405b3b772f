// Rocketfuel topology loaders.
//
// Two formats are accepted so a real dataset can replace the synthetic
// AS1221 substitute without code changes:
//   * simple edge lists: one "u v" pair of integer router ids per line,
//     '#' comments allowed;
//   * Rocketfuel router-level .cch maps: lines of the form
//       uid @loc [+] [bb] (num_neigh) [&ext] -> <nuid> <nuid> ... {-euid} =name rn
//     We keep internal "<id>" neighbor references, ignore external "{-id}"
//     ones, and compact router uids to dense NodeIds.

#pragma once

#include <istream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace scapegoat {

struct LoadedTopology {
  Graph graph;
  // Original router uid for each NodeId.
  std::vector<long> original_ids;
  // Skip-with-diagnostic accounting: malformed or truncated lines do not
  // abort the load, they are counted here with line-numbered messages (the
  // messages are capped; `skipped_lines` is always the true total).
  std::vector<std::string> warnings;
  std::size_t skipped_lines = 0;
};

// Parses an edge list. Malformed lines are skipped with a diagnostic;
// returns nullopt only when the stream yields no link (self-loops "u u"
// are dropped, so a list of them alone is refused too).
std::optional<LoadedTopology> load_edge_list(std::istream& in);

// Parses the Rocketfuel .cch router-level format. Unknown tokens are
// skipped; a line contributes edges only if it starts with a router uid and
// contains "-> <id> ..." neighbor references. Garbled neighbor refs are
// skipped with a diagnostic. Returns nullopt if no edges were found.
std::optional<LoadedTopology> load_rocketfuel_cch(std::istream& in);

// Convenience wrappers over files. nullopt if the file can't be opened or
// parsed.
std::optional<LoadedTopology> load_edge_list_file(const std::string& path);
std::optional<LoadedTopology> load_rocketfuel_cch_file(const std::string& path);

// Writes the "u v" edge-list format load_edge_list reads back (round-trip
// safe; node ids are the dense NodeIds).
void write_edge_list(std::ostream& out, const Graph& g);

}  // namespace scapegoat
