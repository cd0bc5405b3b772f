#include "topology/geometric.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

#include "graph/traversal.hpp"

namespace scapegoat {

GeometricGraph random_geometric(const GeometricParams& params, Rng& rng) {
  assert(params.num_nodes > 0 && params.density > 0.0);
  constexpr std::size_t kMaxAttempts = 200;  // redraws before stitching
  GeometricGraph out;
  out.side = std::sqrt(static_cast<double>(params.num_nodes) / params.density);
  out.radius = std::sqrt(params.mean_degree / (std::numbers::pi * params.density));

  for (std::size_t attempt = 0;; ++attempt) {
    out.graph = Graph(params.num_nodes);
    out.x.assign(params.num_nodes, 0.0);
    out.y.assign(params.num_nodes, 0.0);
    for (std::size_t i = 0; i < params.num_nodes; ++i) {
      out.x[i] = rng.uniform(0.0, out.side);
      out.y[i] = rng.uniform(0.0, out.side);
    }
    const double r2 = out.radius * out.radius;
    for (NodeId u = 0; u < params.num_nodes; ++u) {
      for (NodeId v = u + 1; v < params.num_nodes; ++v) {
        const double dx = out.x[u] - out.x[v];
        const double dy = out.y[u] - out.y[v];
        if (dx * dx + dy * dy <= r2) out.graph.add_link(u, v);
      }
    }
    if (!params.require_connected || is_connected(out.graph)) return out;
    if (attempt + 1 >= kMaxAttempts) {
      // Density too low to connect by luck: keep the largest draw and stitch
      // components together with shortest bridging links so downstream code
      // always gets a usable connected topology.
      Components comps = connected_components(out.graph);
      while (comps.count > 1) {
        double best = std::numeric_limits<double>::infinity();
        NodeId ba = 0, bb = 0;
        for (NodeId a = 0; a < params.num_nodes; ++a) {
          for (NodeId b = a + 1; b < params.num_nodes; ++b) {
            if (comps.component[a] == comps.component[b]) continue;
            const double dx = out.x[a] - out.x[b];
            const double dy = out.y[a] - out.y[b];
            const double d2 = dx * dx + dy * dy;
            if (d2 < best) {
              best = d2;
              ba = a;
              bb = b;
            }
          }
        }
        out.graph.add_link(ba, bb);
        comps = connected_components(out.graph);
      }
      return out;
    }
  }
}

}  // namespace scapegoat
