#include "tomography/path_selection.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "graph/paths.hpp"
#include "graph/shortest_path.hpp"

namespace scapegoat {

namespace {

// Arithmetic modulo the Mersenne prime p = 2⁶¹ − 1, on values in [0, p).
constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;
constexpr std::size_t kFree = static_cast<std::size_t>(-1);

std::uint64_t add_mod(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s >= kPrime ? s - kPrime : s;
}

std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kPrime - b;
}

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
  // 2⁶¹ ≡ 1 (mod p): fold the high bits onto the low ones.
  const std::uint64_t s = (static_cast<std::uint64_t>(prod) & kPrime) +
                          static_cast<std::uint64_t>(prod >> 61);
  return s >= kPrime ? s - kPrime : s;
}

// a⁻¹ = a^(p−2) for a ≠ 0 (Fermat).
std::uint64_t inv_mod(std::uint64_t a) {
  std::uint64_t result = 1;
  for (std::uint64_t e = kPrime - 2; e != 0; e >>= 1) {
    if (e & 1) result = mul_mod(result, a);
    a = mul_mod(a, a);
  }
  return result;
}

}  // namespace

IncidenceRankTracker::IncidenceRankTracker(std::size_t num_links)
    : dim_(num_links),
      pivot_row_(num_links, kFree),
      free_(num_links),
      residual_(num_links, 0) {
  for (LinkId l = 0; l < num_links; ++l) free_[l] = l;
}

bool IncidenceRankTracker::is_independent(
    const std::vector<LinkId>& links) const {
  assert(std::adjacent_find(links.begin(), links.end(),
                            std::greater_equal<>()) == links.end());
  for (LinkId f : free_) residual_[f] = 0;
  // Each pivot link's coefficient is 1, and its row is 0 on every other
  // pivot column, so subtracting it clears that link and touches no other
  // pivot: the rest of the reduced row lives on the free columns.
  for (LinkId l : links) {
    assert(l < dim_);
    const std::size_t r = pivot_row_[l];
    if (r == kFree) {
      residual_[l] = add_mod(residual_[l], 1);
      continue;
    }
    const std::uint64_t* row = rows_.data() + r * dim_;
    for (LinkId f : free_) residual_[f] = sub_mod(residual_[f], row[f]);
  }
  for (LinkId f : free_)
    if (residual_[f] != 0) return true;
  return false;
}

bool IncidenceRankTracker::add(const std::vector<LinkId>& links) {
  if (!is_independent(links)) return false;
  // The first free column left nonzero becomes the row's pivot; the row is
  // scaled to 1 there.
  const auto at = std::find_if(free_.begin(), free_.end(),
                               [&](LinkId f) { return residual_[f] != 0; });
  const LinkId pivot = *at;
  const std::uint64_t inv = inv_mod(residual_[pivot]);
  free_.erase(at);
  rows_.resize((rank_ + 1) * dim_, 0);
  std::uint64_t* fresh = rows_.data() + rank_ * dim_;
  fresh[pivot] = 1;
  for (LinkId f : free_) fresh[f] = mul_mod(residual_[f], inv);
  // Clear the new pivot column from the other rows; they are 0 on every
  // older pivot column already, and so is the fresh row.
  for (std::size_t r = 0; r < rank_; ++r) {
    std::uint64_t* row = rows_.data() + r * dim_;
    const std::uint64_t coeff = row[pivot];
    if (coeff == 0) continue;
    row[pivot] = 0;
    for (LinkId f : free_) row[f] = sub_mod(row[f], mul_mod(coeff, fresh[f]));
  }
  pivot_row_[pivot] = rank_++;
  return true;
}

IncrementalPathSelector::IncrementalPathSelector(const Graph& g,
                                                 PathSelectionOptions opt)
    : g_(g), opt_(opt), tracker_(g.num_links()) {}

bool IncrementalPathSelector::try_accept(Path p, bool need_rank_gain) {
  if (p.empty()) return false;
  std::vector<LinkId> key = p.links;
  std::sort(key.begin(), key.end());
  if (seen_.contains(key)) return false;
  // Added either way, so the tracker stays exact.
  const bool gained = tracker_.add(key);
  if (need_rank_gain && !gained) return false;
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
  // Every draw below needs two distinct monitors; without them it could
  // only ever draw s == t.
  if (std::adjacent_find(monitors.begin(), monitors.end(),
                         std::not_equal_to<>()) == monitors.end())
    return;
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
