// Multicast tree loss tomography — the Cáceres et al. gamma-recursion MLE
// as the third estimator family (EstimatorKind::kMulticastMle).
//
// Measurement model (MINC): a monitor at the tree root multicasts probes;
// every logical link k (tree node k's link from its parent) passes a probe
// independently with success rate α_k. The per-probe observable is the leaf
// reachability vector, and the sufficient statistics are the per-node OR
// counts γ̂_k = P̂(at least one leaf below k received the probe).
//
// The MLE runs in two passes:
//   * bottom-up `compute_gamma` — OR-accumulate leaf outcomes into γ̂_k,
//   * top-down solve — for every internal node k with children C, the reach
//     probability A_k = P(probe reaches k) solves
//         1 − γ̂_k / A  =  Π_{c∈C} (1 − γ̂_c / A),
//     in closed form A = γ̂_l·γ̂_r / (γ̂_l + γ̂_r − γ̂_k) for binary k, and by
//     the iterative fixed point A ← γ̂_k / (1 − Π_c(1 − γ̂_c/A)) for degree
//     > 2; leaves take A = γ̂, the root pins A = 1 (probes always injected).
//     Link rates follow as α̂_k = A_k / A_parent, clamped into
//     [min_rate, 1] (clamps are counted — they are the infeasibility signal
//     the loss-domain detector keys on).
//
// Chains of pass-through relays are collapsed into one logical link (only
// the product of their rates is identifiable); the estimator splits the
// logical loss metric −log α̂ uniformly across the chain's physical links —
// the canonical tie-break, mirroring how the delay-domain estimator leaves
// unidentifiable splits to the pseudo-inverse.
//
// Eq. 23 analogue for loss: after the fit, forward-simulate the tree model
// with the fitted rates and compare the model-implied γ at every node
// (leaves included — the per-leaf model-implied pass rates) against the
// empirical γ̂:  residual = Σ_k |γ̂_k − γ_model(k)|, in probability units.
// For honest i.i.d. link loss the statistic vanishes as probes grow; a
// grey-hole that drops copies anti-correlated across sibling subtrees
// forces a reach probability > 1 in the fit, the clamp breaks the exact
// interpolation, and the statistic stays bounded away from zero — the
// detectability separation DESIGN.md §15 records. The statistic needs the
// joint OR counts: ingest() attaches a MulticastObservation; without one,
// internal γ's are synthesized from per-leaf marginals under independence
// (the best completion y alone admits) and the statistic is blind, the
// loss-domain restatement of Theorem 3's "no redundancy, no detection".

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "robust/expected.hpp"
#include "tomography/estimator_interface.hpp"

namespace scapegoat {

// ---- logical multicast tree ----------------------------------------------

struct MulticastTreeNode {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  std::size_t parent = kNoParent;    // tree index; kNoParent for the root
  std::vector<std::size_t> children; // tree indices, all > this node's index
  NodeId graph_node = 0;             // the physical node this maps onto
  // Physical realisation of the logical link parent→this: the traversed
  // links and the node sequence after the parent's graph_node (collapsed
  // relay chain; empty for the root).
  std::vector<LinkId> chain;
  std::vector<NodeId> chain_nodes;   // ends with graph_node

  bool is_leaf() const { return children.empty(); }
};

// Rooted logical tree; nodes[0] is the root and parents always precede
// children (top-down index order), so one forward / one reverse sweep
// covers every top-down / bottom-up recursion.
struct MulticastTree {
  std::vector<MulticastTreeNode> nodes;
  std::vector<std::size_t> leaves;  // tree indices, fixed measurement order

  std::size_t num_nodes() const { return nodes.size(); }
  std::size_t num_leaves() const { return leaves.size(); }

  // Physical root→leaf paths in `leaves` order — the estimator base's path
  // set, so routing-matrix rows align with leaf measurement indices.
  std::vector<Path> leaf_paths() const;

  // Structural sanity: parent/child symmetry, top-down order, chains
  // non-empty off the root, leaves == childless nodes.
  bool valid() const;
};

// Shortest-path (BFS) tree from `root` to the receivers, with pass-through
// relays collapsed into logical chains. Leaf order follows `receivers`.
// kEmptyInput: no receivers. kInvalidInput: duplicate receivers, receiver
// == root, unreachable receiver, or a receiver that sits on another
// receiver's path (a leaf must be a leaf).
robust::Expected<MulticastTree> build_multicast_tree(
    const Graph& g, NodeId root, const std::vector<NodeId>& receivers);

// Reconstructs the logical tree from a root→leaf path set (shared source,
// consistent prefixes, one leaf per path, in path order). kInvalidInput
// when the set is not a multicast tree.
robust::Expected<MulticastTree> multicast_tree_from_paths(
    const Graph& g, const std::vector<Path>& paths);

// ---- observations ---------------------------------------------------------

// Sufficient statistics of a multicast run: reach_count[k] counts probes
// for which at least one leaf below tree node k received the probe.
struct MulticastObservation {
  std::size_t probes = 0;
  std::vector<std::size_t> reach_count;  // indexed by tree node

  double gamma(std::size_t node) const {
    return probes == 0 ? 0.0
                       : static_cast<double>(reach_count[node]) /
                             static_cast<double>(probes);
  }
};

// One probe's bottom-up OR accumulation (the data pass of the γ recursion).
// `leaf_received` is indexed in tree.leaves order.
void accumulate_gamma_counts(const MulticastTree& tree,
                             const std::vector<std::uint8_t>& leaf_received,
                             std::vector<std::size_t>& reach_count);

// γ̂ per tree node from raw per-probe leaf outcome rows.
Vector compute_gamma(const MulticastTree& tree,
                     const std::vector<std::vector<std::uint8_t>>& outcomes);

// Internal γ synthesis from per-leaf pass rates alone, assuming leaf
// receptions are independent: γ_k = 1 − Π_{leaves r under k} (1 − pass_r).
// The completion estimate(y) uses when no joint observation is attached.
Vector independence_gammas(const MulticastTree& tree, const Vector& leaf_pass);

// Model-implied γ at every node under per-link success rates:
// γ(k) = A_k·q_k with A_root = 1, A_k = A_parent·α_k, q_leaf = 1 and
// q_k = 1 − Π_{c∈children} (1 − α_c·q_c). Shared by the residual statistic
// and by tests that build exact (infinite-probe) instances.
Vector model_gammas(const MulticastTree& tree, const Vector& link_success);

// ---- the MLE --------------------------------------------------------------

struct MulticastMleOptions {
  double min_rate = 1e-6;        // clamp floor for fitted success rates
  std::size_t max_fixed_point_iters = 1000;  // degree > 2 solver cap
  double fixed_point_tol = 1e-12;
  double pass_floor = 1e-9;      // leaf pass-rate floor in metric conversions
};

struct MulticastMleResult {
  Vector node_reach;     // Â_k per tree node (root = 1)
  Vector link_success;   // α̂_k per tree node (root = 1.0 placeholder)
  Vector x;              // per-physical-link loss metric −log α̂, chain-split
  double residual = 0.0; // Σ_k |γ̂_k − γ_model(k)|, probability units
  std::size_t clamped = 0;            // fits clamped into [min_rate, 1]
  std::size_t fixed_point_nodes = 0;  // internal nodes solved iteratively
  bool converged = true;              // every fixed point met tol in budget
};

// The gamma-recursion MLE on per-node γ̂. Errors:
//   kDimensionMismatch  gammas.size() != tree.num_nodes()
//   kInvalidInput       tree invalid, or γ outside [0, 1]
//   kMissingData        a leaf with γ̂ = 0 (zero-probe / dead leaf: its link
//                       rate has no finite loss metric — the typed error the
//                       degraded path demands instead of NaN link rates)
robust::Expected<MulticastMleResult> solve_multicast_mle(
    std::size_t num_physical_links, const MulticastTree& tree,
    const Vector& gammas, const MulticastMleOptions& opt = {});

// Convenience over an observation. Additionally kEmptyInput when
// obs.probes == 0, kInvalidInput when a count exceeds the probe total.
robust::Expected<MulticastMleResult> solve_multicast_mle(
    std::size_t num_physical_links, const MulticastTree& tree,
    const MulticastObservation& obs, const MulticastMleOptions& opt = {});

// ---- the estimator family -------------------------------------------------

class MulticastMleEstimator final : public Estimator {
 public:
  // Tree-native construction: the base path set is tree.leaf_paths(), so
  // y is the per-leaf loss-metric vector in leaf order.
  MulticastMleEstimator(const Graph& g, const MulticastTree& tree,
                        MulticastMleOptions options = {});

  // Factory-shape construction from an arbitrary path set. When the paths
  // form a rooted multicast tree the estimator is tree-native; otherwise it
  // keeps the base identifiability verdict and estimate() degrades to the
  // linear pseudo-inverse solve, so Scenario / service plumbing that feeds
  // unicast mesh paths stays total (documented fallback, not an error).
  MulticastMleEstimator(const Graph& g, std::vector<Path> paths,
                        MulticastMleOptions options = {});

  EstimatorKind method() const override {
    return EstimatorKind::kMulticastMle;
  }

  bool has_tree() const { return tree_.has_value(); }
  const MulticastTree& tree() const { return *tree_; }
  const MulticastMleOptions& options() const { return options_; }

  // Attaches the joint OR counts of a multicast run. estimate() and
  // residual_statistic() use them whenever the attached observation matches
  // y's leaf count; clear_observation() reverts to the marginals-only
  // independence completion.
  void ingest(const MulticastObservation& obs) { observation_ = obs; }
  void clear_observation() { observation_.reset(); }
  const std::optional<MulticastObservation>& observation() const {
    return observation_;
  }

  // The full MLE on explicit joint statistics.
  robust::Expected<MulticastMleResult> solve(
      const MulticastObservation& obs) const;

  // y = per-leaf loss metrics (−log pass) in tree.leaves order. Total:
  // degenerate leaves are floored at pass_floor (use try_estimate for the
  // typed taxonomy). Non-tree path sets: pseudo-inverse delegation.
  Vector estimate(const Vector& y) const override;
  robust::Expected<Vector> try_estimate(const Vector& y) const override;

  // The loss-domain Eq. 23 statistic (header comment), probability units —
  // detector α must be chosen on that scale (DetectorOptions carries
  // whatever the caller passes). Non-tree path sets: base ‖y − Rx̂‖₁.
  double residual_statistic(const Vector& y) const override;

  std::unique_ptr<Estimator> clone() const override;

 private:
  robust::Expected<MulticastMleResult> solve_for(const Vector& y) const;

  MulticastMleOptions options_;
  std::optional<MulticastTree> tree_;
  std::optional<MulticastObservation> observation_;
};

}  // namespace scapegoat
