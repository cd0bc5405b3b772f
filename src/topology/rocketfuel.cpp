#include "topology/rocketfuel.hpp"

#include <fstream>
#include <sstream>
#include <string>

namespace scapegoat {

namespace {

// Maps raw router uids to dense NodeIds, growing the graph as needed.
class IdMapper {
 public:
  explicit IdMapper(LoadedTopology& topo) : topo_(topo) {}

  NodeId get(long uid) {
    auto [it, inserted] = map_.try_emplace(uid, topo_.graph.num_nodes());
    if (inserted) {
      topo_.graph.add_node();
      topo_.original_ids.push_back(uid);
    }
    return it->second;
  }

 private:
  LoadedTopology& topo_;
  std::unordered_map<long, NodeId> map_;
};

// Diagnostics stay bounded on pathological inputs: every skip is counted,
// but only the first few carry a line-numbered message.
constexpr std::size_t kMaxWarnings = 20;

void skip_line(LoadedTopology& topo, std::size_t line_no,
               const std::string& why) {
  ++topo.skipped_lines;
  if (topo.warnings.size() < kMaxWarnings) {
    topo.warnings.push_back("line " + std::to_string(line_no) + ": " + why);
  }
}

}  // namespace

std::optional<LoadedTopology> load_edge_list(std::istream& in) {
  LoadedTopology topo;
  IdMapper ids(topo);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    long u, v;
    if (!(ls >> u)) continue;  // blank / comment-only line
    if (!(ls >> v)) {
      // Truncated pair (common failure: a cut-off download) — skip the
      // line, keep the rest of the file.
      skip_line(topo, line_no, "expected 'u v' pair, got one id");
      continue;
    }
    long extra;
    if (ls >> extra) {
      skip_line(topo, line_no, "more than two ids on a line");
      continue;
    }
    // Sequence the id lookups: argument evaluation order is unspecified and
    // node numbering should follow first appearance in the file.
    const NodeId nu = ids.get(u);
    const NodeId nv = ids.get(v);
    topo.graph.add_link(nu, nv);
  }
  // Only self-loops (or nothing) parsed: no link to measure.
  if (topo.graph.num_links() == 0) return std::nullopt;
  return topo;
}

std::optional<LoadedTopology> load_rocketfuel_cch(std::istream& in) {
  LoadedTopology topo;
  IdMapper ids(topo);
  std::string line;
  std::size_t line_no = 0;
  bool found_edges = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    long uid;
    if (!(ls >> uid)) continue;
    if (uid < 0) continue;  // external-address lines start with "-euid"
    const NodeId u = ids.get(uid);

    // Scan the remaining tokens for internal neighbor refs "<nuid>".
    std::string token;
    bool after_arrow = false;
    while (ls >> token) {
      if (token == "->") {
        after_arrow = true;
        continue;
      }
      if (!after_arrow) continue;
      if (token.size() >= 3 && token.front() == '<' && token.back() == '>') {
        try {
          const long nuid = std::stol(token.substr(1, token.size() - 2));
          if (nuid >= 0) {
            topo.graph.add_link(u, ids.get(nuid));
            found_edges = true;
          }
        } catch (const std::exception&) {
          // "<garbage>" — drop the unreadable ref, keep the line's others.
          skip_line(topo, line_no, "unreadable neighbor ref " + token);
        }
      }
      // "{-euid}" external refs and "=name"/"rn" trailers are skipped.
    }
  }
  if (!found_edges) return std::nullopt;
  return topo;
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# " << g.num_nodes() << " nodes, " << g.num_links() << " links\n";
  for (const Link& l : g.links()) out << l.u << ' ' << l.v << '\n';
}

std::optional<LoadedTopology> load_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_edge_list(in);
}

std::optional<LoadedTopology> load_rocketfuel_cch_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_rocketfuel_cch(in);
}

}  // namespace scapegoat
