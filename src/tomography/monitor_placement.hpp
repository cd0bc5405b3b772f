// Monitor placement.
//
// The paper selects monitors "according to a random selection algorithm
// based on the minimum monitor placement rule in [16]" — i.e. a randomized
// placement whose post-condition is identifiability. We reproduce the
// post-condition directly:
//   1. every interior node of degree ≤ 2 must be a monitor (a stub link
//      lies on no monitor-to-monitor simple path otherwise, and a degree-2
//      node's links are only ever traversed together unless a path ends at
//      the node — the structural necessity from [16]),
//   2. start from a random seed set, run path selection, and while the
//      routing matrix is rank-deficient promote additional random
//      non-monitors; in the limit all nodes are monitors and adjacent-pair
//      one-hop paths make R the identity-padded full-rank matrix, so the
//      loop always terminates with an identifiable system.

#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "tomography/path_selection.hpp"
#include "util/random.hpp"

namespace scapegoat {

struct MonitorPlacementOptions {
  PathSelectionOptions path_options;
};

struct MonitorPlacementResult {
  std::vector<NodeId> monitors;
  std::vector<Path> paths;
  std::size_t rank = 0;
  bool identifiable = false;
};

// Places monitors and selects measurement paths until the link metrics are
// identifiable. Requires a connected graph; one with fewer than 2 nodes or
// no link comes back not identifiable, with no monitors and no paths.
MonitorPlacementResult place_monitors(const Graph& g,
                                      const MonitorPlacementOptions& opt,
                                      Rng& rng);

}  // namespace scapegoat
