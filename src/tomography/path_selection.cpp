#include "tomography/path_selection.hpp"

#include <algorithm>
#include <cassert>

#include "graph/paths.hpp"
#include "graph/shortest_path.hpp"

namespace scapegoat {

namespace {

Vector incidence_row(const Path& p, std::size_t num_links) {
  Vector row(num_links);
  for (LinkId l : p.links) row[l] = 1.0;
  return row;
}

}  // namespace

IncrementalPathSelector::IncrementalPathSelector(const Graph& g,
                                                 PathSelectionOptions opt)
    : g_(g), opt_(opt), tracker_(g.num_links()) {}

bool IncrementalPathSelector::try_accept(Path p, bool need_rank_gain) {
  if (p.empty()) return false;
  std::vector<LinkId> key = p.links;
  std::sort(key.begin(), key.end());
  if (seen_.contains(key)) return false;
  const Vector row = incidence_row(p, g_.num_links());
  if (need_rank_gain) {
    if (!tracker_.add(row)) return false;
  } else {
    tracker_.add(row);  // keep the tracker exact either way
  }
  seen_.insert(std::move(key));
  paths_.push_back(std::move(p));
  return true;
}

void IncrementalPathSelector::sample(const std::vector<NodeId>& monitors,
                                     Rng& rng) {
  assert(monitors.size() >= 2);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < monitors.size(); ++i)
    for (std::size_t j = i + 1; j < monitors.size(); ++j)
      pairs.emplace_back(std::min(monitors[i], monitors[j]),
                         std::max(monitors[i], monitors[j]));
  rng.shuffle(pairs);

  // Pass 1: hop-shortest path once per (new) pair — covers every link on a
  // monitor-pair geodesic, including the one-hop paths between adjacent
  // monitors that guarantee eventual identifiability.
  for (const auto& pair : pairs) {
    if (tracker_.full()) return;
    if (!bfs_done_.insert(pair).second) continue;
    if (auto p = shortest_path(g_, pair.first, pair.second))
      try_accept(std::move(*p), true);
  }

  // Pass 2: waypoint sampling, round-robin over pairs so no pair starves
  // the budget. Bail out once sampling stops producing rank gains — with an
  // unidentifiable monitor set no amount of sampling helps, and the caller
  // (monitor growth) reacts faster this way.
  constexpr std::size_t kSamplesPerPair = 30;  // waypoint draws per pair
  std::size_t unproductive = 0;
  const std::size_t patience = 2 * pairs.size() + 200;
  for (std::size_t round = 0; round < kSamplesPerPair && !tracker_.full();
       ++round) {
    for (const auto& [s, t] : pairs) {
      if (tracker_.full() || unproductive > patience) break;
      Path p = sample_waypoint_path(g_, s, t, kMaxSampledPathLength, rng);
      if (try_accept(std::move(p), true)) {
        unproductive = 0;
      } else {
        ++unproductive;
      }
    }
    if (unproductive > patience) break;
  }
}

void IncrementalPathSelector::add_redundant(
    const std::vector<NodeId>& monitors, Rng& rng) {
  assert(monitors.size() >= 2);
  std::size_t added = 0, stale = 0;
  while (added < opt_.redundant_paths &&
         stale < 50 * (opt_.redundant_paths + 1)) {
    const NodeId s = monitors[rng.index(monitors.size())];
    const NodeId t = monitors[rng.index(monitors.size())];
    if (s == t) continue;
    Path p = sample_waypoint_path(g_, s, t, kMaxSampledPathLength, rng);
    if (try_accept(std::move(p), false)) {
      ++added;
      stale = 0;
    } else {
      ++stale;
    }
  }
}

PathSelectionResult select_paths(const Graph& g,
                                 const std::vector<NodeId>& monitors,
                                 const PathSelectionOptions& opt, Rng& rng) {
  IncrementalPathSelector selector(g, opt);
  selector.sample(monitors, rng);
  selector.add_redundant(monitors, rng);
  PathSelectionResult result;
  result.rank = selector.rank();
  result.identifiable = selector.identifiable();
  result.paths = selector.take_paths();
  return result;
}

}  // namespace scapegoat
