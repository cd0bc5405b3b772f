#include "tomography/secure_placement.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "graph/paths.hpp"
#include "graph/shortest_path.hpp"

namespace scapegoat {

std::vector<double> node_presence_ratios(const Graph& g,
                                         const std::vector<Path>& paths) {
  std::vector<double> counts(g.num_nodes(), 0.0);
  for (const Path& p : paths)
    for (NodeId v : p.nodes) counts[v] += 1.0;
  if (!paths.empty()) {
    const double n = static_cast<double>(paths.size());
    for (double& c : counts) c /= n;
  }
  return counts;
}

double max_presence_ratio(const Graph& g, const std::vector<Path>& paths) {
  const auto ratios = node_presence_ratios(g, paths);
  double best = 0.0;
  for (double r : ratios) best = std::max(best, r);
  return best;
}

namespace {

// Incremental node-coverage counters for evaluating candidate paths.
struct Exposure {
  std::vector<std::size_t> counts;
  std::size_t num_paths = 0;

  explicit Exposure(std::size_t nodes) : counts(nodes, 0) {}

  void add(const Path& p) {
    for (NodeId v : p.nodes) ++counts[v];
    ++num_paths;
  }

  // Max node count if `p` were added (the minimization objective; the
  // denominator is the same for all candidates at a given step, so raw
  // counts order identically to ratios).
  std::size_t max_count_with(const Path& p) const {
    std::size_t best = *std::max_element(counts.begin(), counts.end());
    for (NodeId v : p.nodes) best = std::max(best, counts[v] + 1);
    return best;
  }
};

}  // namespace

PathSelectionResult secure_select_paths(const Graph& g,
                                        const std::vector<NodeId>& monitors,
                                        const SecureSelectionOptions& opt,
                                        Rng& rng) {
  assert(monitors.size() >= 2);
  constexpr std::size_t kCandidatesPerStep = 8;  // draws compared per step
  PathSelectionResult result;
  IncidenceRankTracker tracker(g.num_links());
  Exposure exposure(g.num_nodes());
  std::set<std::vector<LinkId>> seen;

  auto key_of = [](const Path& p) {
    std::vector<LinkId> key = p.links;
    std::sort(key.begin(), key.end());
    return key;
  };
  auto accept = [&](Path p) {
    std::vector<LinkId> key = key_of(p);
    tracker.add(key);
    exposure.add(p);
    seen.insert(std::move(key));
    result.paths.push_back(std::move(p));
  };

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < monitors.size(); ++i)
    for (std::size_t j = i + 1; j < monitors.size(); ++j)
      pairs.emplace_back(monitors[i], monitors[j]);
  rng.shuffle(pairs);

  // Rank phase: at each step, gather up to kCandidatesPerStep
  // rank-gaining candidates and accept the one minimizing the resulting
  // maximum node exposure.
  std::size_t stall = 0;
  const std::size_t patience = 2 * pairs.size() + 200;
  while (!tracker.full() && stall <= patience) {
    std::vector<Path> candidates;
    for (std::size_t attempt = 0;
         attempt < 4 * kCandidatesPerStep &&
         candidates.size() < kCandidatesPerStep && stall <= patience;
         ++attempt) {
      const auto& [s, t] = pairs[rng.index(pairs.size())];
      Path p = rng.bernoulli(0.25)
                   ? shortest_path(g, s, t).value_or(Path{})
                   : sample_waypoint_path(g, s, t, kMaxSampledPathLength,
                                          rng);
      if (p.empty()) {
        ++stall;
        continue;
      }
      const std::vector<LinkId> key = key_of(p);
      if (seen.contains(key) || !tracker.is_independent(key)) {
        ++stall;
        continue;
      }
      candidates.push_back(std::move(p));
    }
    if (candidates.empty()) continue;
    std::size_t best = 0;
    for (std::size_t c = 1; c < candidates.size(); ++c) {
      if (exposure.max_count_with(candidates[c]) <
          exposure.max_count_with(candidates[best]))
        best = c;
    }
    accept(std::move(candidates[best]));
    stall = 0;
  }

  // Redundancy phase: same exposure-aware choice among rank-neutral paths.
  std::size_t added = 0;
  stall = 0;
  while (added < opt.base.redundant_paths &&
         stall < 50 * (opt.base.redundant_paths + 1)) {
    std::vector<Path> candidates;
    for (std::size_t attempt = 0;
         attempt < 2 * kCandidatesPerStep &&
         candidates.size() < kCandidatesPerStep;
         ++attempt) {
      const auto& [s, t] = pairs[rng.index(pairs.size())];
      Path p = sample_waypoint_path(g, s, t, kMaxSampledPathLength, rng);
      if (!p.empty() && !seen.contains(key_of(p)))
        candidates.push_back(std::move(p));
    }
    if (candidates.empty()) {
      ++stall;
      continue;
    }
    std::size_t best = 0;
    for (std::size_t c = 1; c < candidates.size(); ++c) {
      if (exposure.max_count_with(candidates[c]) <
          exposure.max_count_with(candidates[best]))
        best = c;
    }
    accept(std::move(candidates[best]));
    ++added;
    stall = 0;
  }

  result.rank = tracker.rank();
  result.identifiable = tracker.full();
  return result;
}

}  // namespace scapegoat
