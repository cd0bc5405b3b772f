#include "tomography/monitor_placement.hpp"

#include <algorithm>

namespace scapegoat {

MonitorPlacementResult place_monitors(const Graph& g,
                                      const MonitorPlacementOptions& opt,
                                      Rng& rng) {
  MonitorPlacementResult result;
  // No path without two nodes, and nothing to identify without a link.
  if (g.num_nodes() < 2 || g.num_links() == 0) return result;

  std::vector<bool> is_monitor(g.num_nodes(), false);
  // Structural necessity: interior nodes of degree ≤ 2 must be monitors. A
  // degree-1 node's stub link lies on no monitor-to-monitor path otherwise;
  // a degree-2 node's two links are traversed together by every simple path
  // through it, so their metrics can only be separated if some measurement
  // path *ends* there — i.e. the node is a monitor. (This is the interior
  // low-degree obstruction from the identifiability literature the paper
  // cites as [16].)
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.degree(v) <= 2) is_monitor[v] = true;

  // Random seed monitors beyond the structural set.
  constexpr std::size_t kInitialMonitors = 4;
  constexpr std::size_t kGrowthStep = 4;  // monitors added per failed attempt
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (!is_monitor[v]) candidates.push_back(v);
  rng.shuffle(candidates);
  std::size_t next_candidate = 0;
  for (; next_candidate < kInitialMonitors &&
         next_candidate < candidates.size();
       ++next_candidate)
    is_monitor[candidates[next_candidate]] = true;

  auto monitor_list = [&] {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (is_monitor[v]) out.push_back(v);
    return out;
  };

  // Grow monitors until identifiable. The selector is incremental: rank and
  // accepted paths persist across growth steps, so each iteration only pays
  // for the marginal sampling. Termination: once every node is a monitor,
  // pass 1 measures each link as a one-hop path, which yields an identity
  // block inside R — full rank by construction.
  IncrementalPathSelector selector(g, opt.path_options);
  std::vector<NodeId> monitors = monitor_list();
  while (true) {
    if (monitors.size() >= 2) {
      selector.sample(monitors, rng);
      if (selector.identifiable()) break;
    }
    bool grew = false;
    for (std::size_t i = 0; i < kGrowthStep; ++i) {
      if (next_candidate < candidates.size()) {
        is_monitor[candidates[next_candidate++]] = true;
        grew = true;
      }
    }
    if (!grew) break;  // all nodes are monitors; last sample() decides
    monitors = monitor_list();
  }

  if (selector.identifiable()) {
    selector.add_redundant(monitors, rng);
  }
  result.monitors = std::move(monitors);
  result.rank = selector.rank();
  result.identifiable = selector.identifiable();
  result.paths = selector.take_paths();
  return result;
}

}  // namespace scapegoat
