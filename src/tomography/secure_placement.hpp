// Security-aware measurement design — the paper's §VI proposal made
// concrete.
//
// §VI observes that scapegoating gets easier as a compromised node's
// *presence ratio* (the fraction of measurement paths it sits on) grows,
// and suggests monitor/path selection should "first ensure identifiability
// under network tomography, then make sure that each node's presence ratio
// on measurement paths is minimized, assuming that the node becomes
// compromised". This module implements that:
//
//   * node_presence_ratios: per-node exposure metric over a path set,
//   * secure_select_paths: rank-greedy selection like select_paths, but
//     among the candidate paths that would gain rank it accepts the one
//     minimizing the resulting maximum node-presence ratio (and picks
//     redundant paths the same way).
//
// The ablation bench (bench_ablation_security) shows the effect: for the
// same topology and identifiability, security-aware selection lowers both
// single-node exposure and single-attacker scapegoating success.

#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "tomography/path_selection.hpp"
#include "util/random.hpp"

namespace scapegoat {

// For each node, the fraction of `paths` that traverse it (monitors count
// as traversal: a compromised monitor can manipulate its own probes).
std::vector<double> node_presence_ratios(const Graph& g,
                                         const std::vector<Path>& paths);

// Max presence ratio over interior (non-endpoint) membership — the quantity
// §VI proposes to minimize.
double max_presence_ratio(const Graph& g, const std::vector<Path>& paths);

struct SecureSelectionOptions {
  PathSelectionOptions base;           // redundancy
};

// Security-aware variant of select_paths over a fixed monitor set.
PathSelectionResult secure_select_paths(const Graph& g,
                                        const std::vector<NodeId>& monitors,
                                        const SecureSelectionOptions& opt,
                                        Rng& rng);

}  // namespace scapegoat
