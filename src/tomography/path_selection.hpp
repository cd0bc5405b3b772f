// Measurement-path selection under controllable routing.
//
// Monitors may route probes over any simple path between two distinct
// monitors (§II-A). The selector greedily accepts candidate paths whose
// {0,1} incidence rows increase rank(R), stopping at rank |L|
// (identifiability), then appends `redundant_paths` additional distinct
// paths so R is strictly tall — Theorem 3 makes a square R undetectable, so
// a deployment that wants the Eq. 23 detector must over-determine the
// system. Candidates come from (a) hop-shortest paths per monitor pair and
// (b) waypoint-sampled paths (two BFS legs through a random intermediate
// node), which reach link compositions shortest paths never expose at
// O(V + E) per draw.
//
// `IncrementalPathSelector` keeps the accepted paths and the rank basis
// alive across monitor-set changes, so the monitor-growth loop never pays
// for re-discovering rank it already has; `select_paths` is the one-shot
// convenience wrapper. Rank is decided exactly on the incidence rows by
// `IncidenceRankTracker`, which works on a path's link ids and never forms
// a dense row.

#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace scapegoat {

// Hop cap on waypoint-sampled paths (here and in secure_placement).
inline constexpr std::size_t kMaxSampledPathLength = 12;

// Exact rank of a growing set of {0,1} incidence rows, each given by the
// link ids it crosses. The accepted rows are kept in reduced row-echelon
// form over GF(p), p = 2⁶¹ − 1: each has a pivot column (a link) where it
// is 1 and every other accepted row is 0. A candidate subtracts the pivot
// rows of its own pivot links and is then independent iff something is
// left on the free (non-pivot) columns, so a test costs
// O(|links| · (|L| − rank)) additions and never forms a dense row.
//
// Exactness: a row dependent over ℚ is dependent mod p, so the tracker
// never accepts a row that does not raise the rank of R. The converse can
// fail only if p divides a nonzero minor of the 0/1 matrix of accepted rows
// plus the candidate; the tracker then rejects an independent row (a rank
// it reports is never too high).
class IncidenceRankTracker {
 public:
  explicit IncidenceRankTracker(std::size_t num_links);

  std::size_t dimension() const { return dim_; }
  std::size_t rank() const { return rank_; }
  bool full() const { return rank_ == dim_; }

  // `links` is strictly increasing and every id is < dimension() (a
  // path's sorted link set). True iff its incidence row is independent of
  // the accepted rows; an empty set never is.
  bool is_independent(const std::vector<LinkId>& links) const;

  // Accepts the row if it is independent; returns whether it was.
  bool add(const std::vector<LinkId>& links);

 private:
  std::size_t dim_;
  std::size_t rank_ = 0;
  std::vector<std::uint64_t> rows_;       // rank_ × dim_, row-major
  std::vector<std::size_t> pivot_row_;    // by link; kFree if not a pivot
  std::vector<LinkId> free_;              // non-pivot links, ascending
  // The last candidate's reduced row, by link, valid on free_ only.
  mutable std::vector<std::uint64_t> residual_;
};

struct PathSelectionOptions {
  std::size_t redundant_paths = 0;     // extra paths beyond rank |L|
};

struct PathSelectionResult {
  std::vector<Path> paths;
  std::size_t rank = 0;      // rank of the resulting routing matrix
  bool identifiable = false; // rank == |L|
};

class IncrementalPathSelector {
 public:
  IncrementalPathSelector(const Graph& g, PathSelectionOptions opt);

  // Samples candidate paths between the given monitors and accepts the
  // rank-increasing ones. Call again after enlarging the monitor set; all
  // previously accepted paths and the rank basis are retained.
  void sample(const std::vector<NodeId>& monitors, Rng& rng);

  // Adds up to opt.redundant_paths extra distinct (rank-neutral) paths.
  void add_redundant(const std::vector<NodeId>& monitors, Rng& rng);

  std::size_t rank() const { return tracker_.rank(); }
  bool identifiable() const { return tracker_.full(); }
  const std::vector<Path>& paths() const { return paths_; }
  std::vector<Path> take_paths() { return std::move(paths_); }

 private:
  bool try_accept(Path p, bool need_rank_gain);

  const Graph& g_;
  PathSelectionOptions opt_;
  IncidenceRankTracker tracker_;
  std::vector<Path> paths_;
  std::set<std::vector<LinkId>> seen_;           // dedup on sorted link sets
  std::set<std::pair<NodeId, NodeId>> bfs_done_; // pairs already pass-1'd
};

// One-shot selection among `monitors` (at least 2 required).
PathSelectionResult select_paths(const Graph& g,
                                 const std::vector<NodeId>& monitors,
                                 const PathSelectionOptions& opt, Rng& rng);

}  // namespace scapegoat
