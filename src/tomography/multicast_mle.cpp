#include "tomography/multicast_mle.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace scapegoat {

namespace {

using robust::Error;
using robust::ErrorCode;

constexpr double kGammaSlack = 1e-12;  // fp slop tolerated outside [0, 1]

// Union-of-paths intermediate: the uncollapsed physical tree.
struct UnionNode {
  std::vector<std::pair<NodeId, LinkId>> children;  // insertion order
  bool receiver = false;
};

// Collapses pass-through relays of the physical union tree into logical
// chains. `receivers` fixes the leaf measurement order.
robust::Expected<MulticastTree> collapse_union(
    const std::map<NodeId, UnionNode>& un, NodeId root,
    const std::vector<NodeId>& receivers) {
  MulticastTree tree;
  MulticastTreeNode root_node;
  root_node.graph_node = root;
  tree.nodes.push_back(std::move(root_node));

  // DFS in child insertion order; explicit stack keeps deep chains safe.
  // Parents are appended before children, preserving top-down index order.
  struct Frame {
    NodeId at;               // first physical node of the pending chain
    LinkId via;              // link parent_graph_node → at
    std::size_t parent;      // logical parent index
  };
  std::vector<Frame> stack;
  const UnionNode& ur = un.at(root);
  for (auto it = ur.children.rbegin(); it != ur.children.rend(); ++it)
    stack.push_back({it->first, it->second, 0});

  std::map<NodeId, std::size_t> logical_of;  // receiver → tree index
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    MulticastTreeNode node;
    node.parent = f.parent;
    node.chain.push_back(f.via);
    node.chain_nodes.push_back(f.at);
    NodeId cur = f.at;
    while (true) {
      const UnionNode& u = un.at(cur);
      if (u.receiver) {
        if (!u.children.empty())
          return Error{ErrorCode::kInvalidInput,
                       "receiver " + std::to_string(cur) +
                           " lies on another receiver's path"};
        break;
      }
      if (u.children.empty())
        return Error{ErrorCode::kInvalidInput,
                     "dangling relay " + std::to_string(cur)};
      if (u.children.size() > 1) break;  // branch point: chain ends here
      cur = u.children[0].first;
      node.chain.push_back(u.children[0].second);
      node.chain_nodes.push_back(cur);
    }
    node.graph_node = cur;
    const std::size_t idx = tree.nodes.size();
    tree.nodes[f.parent].children.push_back(idx);
    const UnionNode& u = un.at(cur);
    if (u.receiver) logical_of[cur] = idx;
    for (auto it = u.children.rbegin(); it != u.children.rend(); ++it)
      stack.push_back({it->first, it->second, idx});
    tree.nodes.push_back(std::move(node));
  }

  for (NodeId r : receivers) {
    auto it = logical_of.find(r);
    if (it == logical_of.end())
      return Error{ErrorCode::kInvalidInput,
                   "receiver " + std::to_string(r) + " not a tree leaf"};
    tree.leaves.push_back(it->second);
  }
  assert(tree.valid());
  return tree;
}

}  // namespace

// ---- MulticastTree --------------------------------------------------------

std::vector<Path> MulticastTree::leaf_paths() const {
  std::vector<Path> paths;
  paths.reserve(leaves.size());
  for (std::size_t leaf : leaves) {
    // Collect the logical chain top-down by walking up and reversing.
    std::vector<std::size_t> up;
    for (std::size_t k = leaf; k != 0; k = nodes[k].parent) up.push_back(k);
    Path p;
    p.nodes.push_back(nodes[0].graph_node);
    for (auto it = up.rbegin(); it != up.rend(); ++it) {
      const MulticastTreeNode& n = nodes[*it];
      p.links.insert(p.links.end(), n.chain.begin(), n.chain.end());
      p.nodes.insert(p.nodes.end(), n.chain_nodes.begin(),
                     n.chain_nodes.end());
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

bool MulticastTree::valid() const {
  if (nodes.empty()) return false;
  if (nodes[0].parent != MulticastTreeNode::kNoParent) return false;
  if (!nodes[0].chain.empty() || !nodes[0].chain_nodes.empty()) return false;
  std::size_t leaf_count = 0;
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const MulticastTreeNode& n = nodes[k];
    if (k > 0) {
      if (n.parent >= k) return false;  // top-down order
      if (n.chain.empty() || n.chain.size() != n.chain_nodes.size())
        return false;
      if (n.chain_nodes.back() != n.graph_node) return false;
      const auto& siblings = nodes[n.parent].children;
      if (std::find(siblings.begin(), siblings.end(), k) == siblings.end())
        return false;
      // Collapse invariant: every non-root internal node is a branch point
      // (single-child relays fold into chains, so A_k stays identifiable).
      if (n.children.size() == 1) return false;
    }
    for (std::size_t c : n.children)
      if (c >= nodes.size() || nodes[c].parent != k) return false;
    if (n.is_leaf()) ++leaf_count;
  }
  if (leaf_count != leaves.size()) return false;
  for (std::size_t leaf : leaves)
    if (leaf >= nodes.size() || !nodes[leaf].is_leaf()) return false;
  return true;
}

robust::Expected<MulticastTree> build_multicast_tree(
    const Graph& g, NodeId root, const std::vector<NodeId>& receivers) {
  if (root >= g.num_nodes())
    return Error{ErrorCode::kInvalidInput, "root not in graph"};
  if (receivers.empty())
    return Error{ErrorCode::kEmptyInput, "no receivers"};
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId r : receivers) {
    if (r >= g.num_nodes())
      return Error{ErrorCode::kInvalidInput, "receiver not in graph"};
    if (r == root)
      return Error{ErrorCode::kInvalidInput, "receiver equals root"};
    if (seen[r])
      return Error{ErrorCode::kInvalidInput,
                   "duplicate receiver " + std::to_string(r)};
    seen[r] = true;
  }

  // BFS parent pointers from the root (first-found shortest paths).
  constexpr NodeId kUnvisited = static_cast<NodeId>(-1);
  std::vector<NodeId> parent(g.num_nodes(), kUnvisited);
  std::vector<LinkId> via(g.num_nodes(), 0);
  std::vector<NodeId> queue{root};
  parent[root] = root;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const Adjacent& a : g.neighbors(u)) {
      if (parent[a.neighbor] != kUnvisited) continue;
      parent[a.neighbor] = u;
      via[a.neighbor] = a.link;
      queue.push_back(a.neighbor);
    }
  }

  std::map<NodeId, UnionNode> un;
  un[root];  // ensure the root exists even if a walk-up stops early
  for (NodeId r : receivers) {
    if (parent[r] == kUnvisited)
      return Error{ErrorCode::kInvalidInput,
                   "receiver " + std::to_string(r) + " unreachable"};
    // Walk up to the root, adding edges until we hit the existing union.
    NodeId cur = r;
    while (cur != root) {
      const NodeId p = parent[cur];
      UnionNode& up = un[p];
      const bool known =
          std::any_of(up.children.begin(), up.children.end(),
                      [&](const auto& c) { return c.first == cur; });
      un[cur];
      if (known) break;
      up.children.push_back({cur, via[cur]});
      cur = p;
    }
    un[r].receiver = true;
  }
  return collapse_union(un, root, receivers);
}

robust::Expected<MulticastTree> multicast_tree_from_paths(
    const Graph& g, const std::vector<Path>& paths) {
  if (paths.empty()) return Error{ErrorCode::kEmptyInput, "no paths"};
  for (const Path& p : paths) {
    if (p.empty() || p.nodes.size() != p.links.size() + 1)
      return Error{ErrorCode::kInvalidInput, "degenerate path"};
    if (!is_valid_simple_path(g, p))
      return Error{ErrorCode::kInvalidInput, "path not simple in graph"};
  }
  const NodeId root = paths[0].source();
  std::map<NodeId, UnionNode> un;
  un[root];
  std::map<NodeId, NodeId> parent_of;  // tree-property check
  std::vector<NodeId> receivers;
  for (const Path& p : paths) {
    if (p.source() != root)
      return Error{ErrorCode::kInvalidInput, "paths disagree on the root"};
    NodeId cur = root;
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      const NodeId next = p.nodes[i + 1];
      auto it = parent_of.find(next);
      if (it != parent_of.end()) {
        if (it->second != cur || next == root)
          return Error{ErrorCode::kInvalidInput,
                       "paths do not form a tree (node " +
                           std::to_string(next) + " has two parents)"};
      } else {
        parent_of[next] = cur;
        un[cur].children.push_back({next, p.links[i]});
        un[next];
      }
      cur = next;
    }
    if (un[cur].receiver)
      return Error{ErrorCode::kInvalidInput,
                   "duplicate leaf " + std::to_string(cur)};
    un[cur].receiver = true;
    receivers.push_back(cur);
  }
  return collapse_union(un, root, receivers);
}

// ---- gamma passes ---------------------------------------------------------

void accumulate_gamma_counts(const MulticastTree& tree,
                             const std::vector<std::uint8_t>& leaf_received,
                             std::vector<std::size_t>& reach_count) {
  assert(leaf_received.size() == tree.num_leaves());
  assert(reach_count.size() == tree.num_nodes());
  std::vector<std::uint8_t> any(tree.num_nodes(), 0);
  for (std::size_t i = 0; i < tree.leaves.size(); ++i)
    any[tree.leaves[i]] = leaf_received[i];
  // Children carry larger indices, so one reverse sweep is the bottom-up OR.
  for (std::size_t k = tree.num_nodes(); k-- > 0;) {
    for (std::size_t c : tree.nodes[k].children) any[k] |= any[c];
    reach_count[k] += any[k];
  }
}

Vector compute_gamma(const MulticastTree& tree,
                     const std::vector<std::vector<std::uint8_t>>& outcomes) {
  std::vector<std::size_t> counts(tree.num_nodes(), 0);
  for (const auto& row : outcomes) accumulate_gamma_counts(tree, row, counts);
  Vector gamma(tree.num_nodes());
  if (outcomes.empty()) return gamma;
  for (std::size_t k = 0; k < counts.size(); ++k)
    gamma[k] = static_cast<double>(counts[k]) /
               static_cast<double>(outcomes.size());
  return gamma;
}

Vector independence_gammas(const MulticastTree& tree,
                           const Vector& leaf_pass) {
  assert(leaf_pass.size() == tree.num_leaves());
  // comp[k] = Π_{leaves under k} (1 − pass_r); one reverse sweep.
  Vector comp(tree.num_nodes(), 1.0);
  for (std::size_t i = 0; i < tree.leaves.size(); ++i)
    comp[tree.leaves[i]] = 1.0 - leaf_pass[i];
  Vector gamma(tree.num_nodes());
  for (std::size_t k = tree.num_nodes(); k-- > 0;) {
    for (std::size_t c : tree.nodes[k].children) comp[k] *= comp[c];
    gamma[k] = 1.0 - comp[k];
  }
  return gamma;
}

Vector model_gammas(const MulticastTree& tree, const Vector& link_success) {
  assert(link_success.size() == tree.num_nodes());
  Vector reach(tree.num_nodes(), 1.0);  // A_k, forward sweep
  for (std::size_t k = 1; k < tree.num_nodes(); ++k)
    reach[k] = reach[tree.nodes[k].parent] * link_success[k];
  Vector q(tree.num_nodes(), 1.0);  // P(∪ leaves | reached k), reverse sweep
  for (std::size_t k = tree.num_nodes(); k-- > 0;) {
    if (tree.nodes[k].is_leaf()) continue;
    double comp = 1.0;
    for (std::size_t c : tree.nodes[k].children)
      comp *= 1.0 - link_success[c] * q[c];
    q[k] = 1.0 - comp;
  }
  Vector gamma(tree.num_nodes());
  for (std::size_t k = 0; k < tree.num_nodes(); ++k)
    gamma[k] = reach[k] * q[k];
  return gamma;
}

// ---- the MLE --------------------------------------------------------------

namespace {

// Solves 1 − γ_k/A = Π_c (1 − γ_c/A) for an internal node. Binary nodes use
// the closed form; higher degrees iterate the Cáceres fixed point
// A ← γ_k / (1 − Π_c(1 − γ_c/A)) from A₀ = 1 (geometric convergence; the
// unclamped iterate may pass 1 — infeasible fits are the detector's signal,
// so the clamp happens in the caller, after the ratio α = A_k/A_parent).
double fit_internal_reach(const std::vector<double>& child_gammas,
                          double gamma_k, const MulticastMleOptions& opt,
                          std::size_t* fixed_point_nodes, bool* converged) {
  constexpr double kTiny = 1e-15;
  constexpr double kHuge = 1e6;
  if (child_gammas.size() == 2) {
    const double denom = child_gammas[0] + child_gammas[1] - gamma_k;
    if (denom <= kTiny) return kHuge;  // degenerate: no finite interior fit
    return child_gammas[0] * child_gammas[1] / denom;
  }
  ++*fixed_point_nodes;
  const double max_child =
      *std::max_element(child_gammas.begin(), child_gammas.end());
  double a = 1.0;
  for (std::size_t it = 0; it < opt.max_fixed_point_iters; ++it) {
    double comp = 1.0;
    for (double gc : child_gammas) comp *= 1.0 - gc / a;
    const double denom = 1.0 - comp;
    if (denom <= kTiny) return kHuge;
    double next = gamma_k / denom;
    // Keep the iterate above every child OR rate: A < max γ_c flips factor
    // signs and the recursion leaves its basin.
    next = std::min(std::max(next, max_child * (1.0 + 1e-12)), kHuge);
    if (std::abs(next - a) <= opt.fixed_point_tol * std::max(1.0, a))
      return next;
    a = next;
  }
  *converged = false;
  return a;
}

}  // namespace

robust::Expected<MulticastMleResult> solve_multicast_mle(
    std::size_t num_physical_links, const MulticastTree& tree,
    const Vector& gammas, const MulticastMleOptions& opt) {
  obs::ScopedSpan span("tomography.mle.solve");
  if (!tree.valid())
    return Error{ErrorCode::kInvalidInput, "invalid multicast tree"};
  if (gammas.size() != tree.num_nodes())
    return Error{ErrorCode::kDimensionMismatch,
                 "expected one gamma per tree node"};
  for (std::size_t k = 0; k < gammas.size(); ++k) {
    const double gm = gammas[k];
    if (!(gm >= -kGammaSlack && gm <= 1.0 + kGammaSlack))
      return Error{ErrorCode::kInvalidInput,
                   "gamma outside [0, 1] at node " + std::to_string(k)};
  }
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    if (gammas[tree.leaves[i]] <= 0.0)
      return Error{ErrorCode::kMissingData,
                   "leaf " + std::to_string(i) +
                       " received no probes: its link loss metric is not "
                       "finite"};
  }

  const std::size_t n = tree.num_nodes();
  MulticastMleResult out;
  out.node_reach = Vector(n, 1.0);
  out.link_success = Vector(n, 1.0);
  out.x = Vector(num_physical_links, 0.0);

  // Raw per-node reach fits Ã_k (independent per node; root pinned at 1).
  Vector raw(n, 1.0);
  for (std::size_t k = 0; k < n; ++k) {
    const MulticastTreeNode& node = tree.nodes[k];
    const double gk = std::min(std::max(gammas[k], 0.0), 1.0);
    if (k == 0) continue;  // root: probes always injected
    if (node.is_leaf()) {
      raw[k] = gk;
      continue;
    }
    std::vector<double> child_gammas;
    child_gammas.reserve(node.children.size());
    for (std::size_t c : node.children)
      child_gammas.push_back(std::min(std::max(gammas[c], 0.0), 1.0));
    raw[k] = fit_internal_reach(child_gammas, gk, opt,
                                &out.fixed_point_nodes, &out.converged);
  }

  // Top-down: α̂_k = Ã_k / Ã_parent, clamped into [min_rate, 1]; the
  // normalized reach Â re-accumulates from the clamped rates so the model
  // forward pass (and the residual) sees a feasible parameterization.
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t p = tree.nodes[k].parent;
    const double denom = std::max(raw[p], opt.min_rate);
    double alpha = raw[k] / denom;
    if (alpha > 1.0 || alpha < opt.min_rate) {
      ++out.clamped;
      alpha = std::min(std::max(alpha, opt.min_rate), 1.0);
    }
    out.link_success[k] = alpha;
    out.node_reach[k] = out.node_reach[p] * alpha;
    const double loss = -std::log(alpha);
    const auto& chain = tree.nodes[k].chain;
    for (LinkId l : chain) {
      assert(l < num_physical_links);
      out.x[l] = loss / static_cast<double>(chain.size());
    }
  }

  const Vector model = model_gammas(tree, out.link_success);
  for (std::size_t k = 0; k < n; ++k)
    out.residual += std::abs(gammas[k] - model[k]);
  obs::observe("tomography.mle.residual", out.residual);
  if (out.clamped > 0) obs::count("tomography.mle.clamped_fits");
  return out;
}

robust::Expected<MulticastMleResult> solve_multicast_mle(
    std::size_t num_physical_links, const MulticastTree& tree,
    const MulticastObservation& obs, const MulticastMleOptions& opt) {
  if (obs.probes == 0)
    return Error{ErrorCode::kEmptyInput, "observation carries no probes"};
  if (obs.reach_count.size() != tree.num_nodes())
    return Error{ErrorCode::kDimensionMismatch,
                 "expected one reach count per tree node"};
  Vector gammas(tree.num_nodes());
  for (std::size_t k = 0; k < gammas.size(); ++k) {
    if (obs.reach_count[k] > obs.probes)
      return Error{ErrorCode::kInvalidInput,
                   "reach count exceeds probe total at node " +
                       std::to_string(k)};
    gammas[k] = obs.gamma(k);
  }
  return solve_multicast_mle(num_physical_links, tree, gammas, opt);
}

// ---- estimator family -----------------------------------------------------

MulticastMleEstimator::MulticastMleEstimator(const Graph& g,
                                             const MulticastTree& tree,
                                             MulticastMleOptions options)
    : Estimator(g, tree.leaf_paths()),
      options_(options),
      tree_(tree) {
  assert(tree_->valid());
}

MulticastMleEstimator::MulticastMleEstimator(const Graph& g,
                                             std::vector<Path> paths,
                                             MulticastMleOptions options)
    : Estimator(g, std::move(paths)), options_(options) {
  auto derived = multicast_tree_from_paths(g, this->paths());
  if (derived.ok()) {
    tree_ = std::move(*derived);
  } else {
    obs::count("tomography.mle.non_tree_paths");
  }
}

robust::Expected<MulticastMleResult> MulticastMleEstimator::solve(
    const MulticastObservation& obs) const {
  if (!tree_)
    return Error{ErrorCode::kInvalidInput,
                 "estimator has no multicast tree (non-tree path set)"};
  return solve_multicast_mle(num_links(), *tree_, obs, options_);
}

robust::Expected<MulticastMleResult> MulticastMleEstimator::solve_for(
    const Vector& y) const {
  assert(tree_);
  if (y.size() != tree_->num_leaves())
    return Error{ErrorCode::kDimensionMismatch,
                 "expected one loss metric per tree leaf"};
  for (double yi : y)
    if (std::isnan(yi) || yi < -1e-9)
      return Error{ErrorCode::kInvalidInput,
                   "loss metrics must be finite and nonnegative"};
  if (observation_ && observation_->reach_count.size() == tree_->num_nodes())
    return solve(*observation_);
  Vector pass(y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    pass[i] = std::min(std::exp(-std::max(y[i], 0.0)), 1.0);
  for (std::size_t i = 0; i < pass.size(); ++i)
    if (pass[i] <= 0.0)
      return Error{ErrorCode::kMissingData,
                   "leaf " + std::to_string(i) +
                       " reports zero pass rate: its link loss metric is "
                       "not finite"};
  return solve_multicast_mle(num_links(), *tree_,
                             independence_gammas(*tree_, pass), options_);
}

namespace {

// Degenerate-input completion shared by estimate()/residual_statistic():
// floor the per-leaf marginals at pass_floor and fit the independence
// completion — the only defensible total answer when the typed path errors.
MulticastMleResult floored_fit(std::size_t num_physical_links,
                               const MulticastTree& tree, const Vector& y,
                               const MulticastMleOptions& opt) {
  obs::count("tomography.mle.estimate_floored");
  Vector pass(tree.num_leaves(), opt.pass_floor);
  for (std::size_t i = 0; i < pass.size() && i < y.size(); ++i) {
    const double yi = y[i];
    if (!std::isnan(yi) && yi >= 0.0)
      pass[i] = std::max(std::min(std::exp(-yi), 1.0), opt.pass_floor);
  }
  auto floored = solve_multicast_mle(num_physical_links, tree,
                                     independence_gammas(tree, pass), opt);
  if (!floored.ok()) {
    assert(false && "floored multicast fit cannot fail");
    MulticastMleResult zero;
    zero.x = Vector(num_physical_links, 0.0);
    return zero;
  }
  return std::move(*floored);
}

}  // namespace

Vector MulticastMleEstimator::estimate(const Vector& y) const {
  if (!tree_) {
    // Documented fallback: without a tree the family degrades to the linear
    // solve (identifiable mesh path sets) — never a crash.
    if (ok() && y.size() == num_paths()) return pseudo_inverse() * y;
    obs::count("tomography.mle.estimate_unsupported");
    return Vector(num_links(), 0.0);
  }
  auto result = solve_for(y);
  if (result.ok()) return std::move(result->x);
  return floored_fit(num_links(), *tree_, y, options_).x;
}

robust::Expected<Vector> MulticastMleEstimator::try_estimate(
    const Vector& y) const {
  if (!tree_) {
    if (ok() && y.size() == num_paths()) return pseudo_inverse() * y;
    if (y.size() != num_paths())
      return Error{ErrorCode::kDimensionMismatch,
                   "expected one measurement per path"};
    return Error{ErrorCode::kInvalidInput,
                 "path set is neither a multicast tree nor identifiable"};
  }
  auto result = solve_for(y);
  if (!result.ok()) return result.error();
  return std::move(result->x);
}

double MulticastMleEstimator::residual_statistic(const Vector& y) const {
  if (!tree_) return residual(y).norm1();
  auto result = solve_for(y);
  if (result.ok()) return result->residual;
  // Degenerate runs carry no usable joint statistics; mirror estimate()'s
  // floored completion so the detector still sees a total statistic.
  return floored_fit(num_links(), *tree_, y, options_).residual;
}

std::unique_ptr<Estimator> MulticastMleEstimator::clone() const {
  return std::make_unique<MulticastMleEstimator>(*this);
}

}  // namespace scapegoat
