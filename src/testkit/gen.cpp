#include "testkit/gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "topology/generators.hpp"

namespace scapegoat::testkit {

Graph gen_connected_graph(Source& src, std::size_t min_nodes,
                          std::size_t max_nodes,
                          std::size_t max_extra_links) {
  const std::size_t n =
      min_nodes + static_cast<std::size_t>(src.choice(max_nodes - min_nodes));
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_link(v, src.index(v));
  const std::size_t extra =
      static_cast<std::size_t>(src.choice(max_extra_links));
  for (std::size_t i = 0; i < extra; ++i) {
    const NodeId u = src.index(n);
    const NodeId v = src.index(n);
    g.add_link(u, v);  // self-loops/duplicates rejected by Graph
  }
  return g;
}

Matrix gen_matrix(Source& src, std::size_t rows, std::size_t cols) {
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = src.grid(0.25, 16);
  return a;
}

Matrix gen_matrix_with_rank(Source& src, std::size_t rows, std::size_t cols,
                            std::size_t rank, double cond_decades) {
  rank = std::min({rank, rows, cols});
  // A = B·C with B (rows×rank) and C (rank×cols). The leading rank×rank
  // blocks are made strictly diagonally dominant, which certifies both
  // factors have rank `rank`, hence so does the product.
  Matrix b(rows, rank), c(rank, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < rank; ++j) b(i, j) = src.grid(0.125, 8);
  for (std::size_t i = 0; i < rank; ++i)
    for (std::size_t j = 0; j < cols; ++j) c(i, j) = src.grid(0.125, 8);
  for (std::size_t k = 0; k < rank; ++k) {
    double dom_b = 1.0, dom_c = 1.0;
    for (std::size_t j = 0; j < rank; ++j) dom_b += std::abs(b(k, j));
    for (std::size_t j = 0; j < cols; ++j) dom_c += std::abs(c(k, j));
    b(k, k) = dom_b;
    // Conditioning knob: grade the k-th "singular direction" down by up to
    // cond_decades decades.
    const double scale =
        rank > 1 ? std::pow(10.0, -cond_decades * static_cast<double>(k) /
                                      static_cast<double>(rank - 1))
                 : 1.0;
    c(k, k) = dom_c;
    for (std::size_t j = 0; j < cols; ++j) c(k, j) *= scale;
  }
  return b * c;
}

Matrix gen_routing_matrix(Source& src, std::size_t paths, std::size_t links) {
  Matrix r(paths, links);
  for (std::size_t i = 0; i < paths; ++i) {
    for (std::size_t j = 0; j < links; ++j)
      r(i, j) = src.maybe(0.35) ? 1.0 : 0.0;
    // A measurement path crosses at least one link.
    r(i, src.index(links)) = 1.0;
  }
  return r;
}

Matrix gen_full_rank_routing_matrix(Source& src, std::size_t links,
                                    std::size_t extra_paths) {
  Matrix r(links + extra_paths, links);
  for (std::size_t j = 0; j < links; ++j) r(j, j) = 1.0;
  for (std::size_t i = 0; i < extra_paths; ++i) {
    for (std::size_t j = 0; j < links; ++j)
      r(links + i, j) = src.maybe(0.35) ? 1.0 : 0.0;
    r(links + i, src.index(links)) = 1.0;  // no all-zero rows
  }
  return r;
}

Vector gen_vector(Source& src, std::size_t n) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = src.grid(0.25, 32);
  return v;
}

lp::Model gen_lp_model(Source& src, const LpModelLimits& limits) {
  const std::size_t nv = 1 + src.index(limits.max_vars);
  const std::size_t nc =
      static_cast<std::size_t>(src.choice(limits.max_constraints));
  lp::Model model(src.maybe(0.5) ? lp::Sense::kMinimize
                                 : lp::Sense::kMaximize);
  for (std::size_t j = 0; j < nv; ++j) {
    // Finite box on every variable keeps the feasible set a polytope — the
    // contract the vertex-enumeration oracle needs.
    const double lower = src.grid(0.5, 8);
    const double width = src.grid_nonneg(0.5, 12);
    model.add_variable(lower, lower + width,
                       src.grid(limits.coeff_step, limits.coeff_steps));
  }
  for (std::size_t i = 0; i < nc; ++i) {
    std::vector<lp::Term> terms;
    for (std::size_t j = 0; j < nv; ++j) {
      const double coeff = src.grid(limits.coeff_step, limits.coeff_steps);
      if (coeff != 0.0) terms.push_back({j, coeff});
    }
    const double rhs = src.grid(0.5, 20);
    // 0: ≤ rhs, 1: ≥ rhs, 2: = rhs.
    const std::uint64_t shape = src.choice(2);
    if (terms.empty()) continue;  // vacuous row: 0 ⋛ rhs tells us nothing
    model.add_constraint(std::move(terms), shape == 0 ? -lp::kInfinity : rhs,
                         shape == 1 ? lp::kInfinity : rhs);
  }
  return model;
}

Rng gen_rng(Source& src) {
  return Rng(src.choice(0xffffffffull));
}

std::optional<Scenario> gen_er_scenario(Source& src, std::size_t n, double p) {
  Rng rng = gen_rng(src);
  return Scenario::from_graph(erdos_renyi(n, p, rng), rng);
}

std::optional<Scenario> gen_scenario(Source& src, std::size_t min_nodes,
                                     std::size_t max_nodes) {
  Graph g = gen_connected_graph(src, min_nodes, max_nodes);
  Rng rng = gen_rng(src);
  return Scenario::from_graph(std::move(g), rng);
}

std::vector<NodeId> gen_attackers(Source& src, const Scenario& sc,
                                  std::size_t max_attackers) {
  const std::size_t n = sc.graph().num_nodes();
  const std::size_t k = 1 + src.index(std::min(max_attackers, n));
  const auto picks = src.distinct_indices(n, k);
  return std::vector<NodeId>(picks.begin(), picks.end());
}

LinkId gen_victim(Source& src, const Scenario& sc) {
  return src.index(sc.graph().num_links());
}

void gen_resample_metrics(Source& src, Scenario& sc) {
  Rng rng = gen_rng(src);
  sc.resample_metrics(rng);
}

MulticastTreeDraw gen_multicast_tree(Source& src, std::size_t max_leaves,
                                     std::size_t max_chain) {
  // Phase 1: describe the physical tree as an edge list over consecutive
  // node ids (0 = root), recursively splitting a leaf budget. Each logical
  // hop becomes a chain of 1..max_chain+1 physical edges; chains of relays
  // are what build_multicast_tree must collapse.
  struct Builder {
    Source& src;
    std::size_t max_chain;
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::vector<NodeId> receivers;
    NodeId next = 1;

    // Attach one chain below `from`, then either terminate as a receiver
    // (budget 1) or split the remaining leaf budget over ≥ 2 children.
    void grow(NodeId from, std::size_t budget) {
      NodeId prev = from;
      const std::size_t relays = src.choice(max_chain);
      for (std::size_t i = 0; i < relays; ++i) {
        edges.emplace_back(prev, next);
        prev = next++;
      }
      const NodeId here = next++;
      edges.emplace_back(prev, here);
      if (budget == 1) {
        receivers.push_back(here);
        return;
      }
      const std::size_t max_kids = std::min<std::size_t>(budget, 4);
      const std::size_t kids = 2 + src.choice(max_kids - 2);
      std::size_t remaining = budget;
      for (std::size_t c = 0; c < kids; ++c) {
        const std::size_t reserved = kids - 1 - c;  // ≥1 leaf per sibling
        const std::size_t share =
            c + 1 == kids
                ? remaining
                : 1 + static_cast<std::size_t>(
                          src.choice(remaining - reserved - 1));
        remaining -= share;
        grow(here, share);
      }
    }
  };

  Builder b{src, max_chain, {}, {}, 1};
  const std::size_t leaves =
      2 + static_cast<std::size_t>(src.choice(max_leaves - 2));
  if (src.maybe(0.5) || leaves < 2) {
    // Shared-link shape: one chain off the root, then the split — choice 0
    // (maybe ↦ false) takes the other branch, so this is NOT the shrink
    // target; the root-split shape below is simpler.
    b.grow(0, leaves);
  } else {
    const std::size_t left = 1 + src.choice(leaves - 2);
    b.grow(0, left);
    b.grow(0, leaves - left);
  }

  // Phase 2: materialize the graph and let the PRODUCTION builder derive
  // the logical tree (receivers are exactly the physical leaves, so the
  // build cannot fail — asserted, not handled).
  MulticastTreeDraw draw{Graph(b.next), {}};
  for (const auto& [u, v] : b.edges) draw.graph.add_link(u, v);
  auto built = build_multicast_tree(draw.graph, 0, b.receivers);
  assert(built.ok());
  draw.tree = std::move(*built);
  return draw;
}

}  // namespace scapegoat::testkit
