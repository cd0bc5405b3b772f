// Random geometric graphs — the paper's wireless evaluation topology (§V-C):
// n = 100 nodes dropped uniformly on the square [0, sqrt(n/λ)]² with node
// density λ = 5, connected when within radio range. The range is chosen so
// the expected degree matches the paper's "each node has 5 neighbors on
// average": with density λ and radius r the expected degree is λ·π·r², so
// r = sqrt(k̄ / (π λ)).

#pragma once

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace scapegoat {

struct GeometricParams {
  std::size_t num_nodes = 100;
  double density = 5.0;      // λ: nodes per unit area
  double mean_degree = 5.0;  // target average number of neighbors
  bool require_connected = true;
};

struct GeometricGraph {
  Graph graph;
  std::vector<double> x, y;  // node positions
  double side = 0.0;         // region edge length sqrt(n/λ)
  double radius = 0.0;       // connection radius
};

// Generates an RGG; if `require_connected`, redraws positions until the
// graph is connected (the paper's "extended network generation mode"), and
// after 200 draws stitches the last one's components together.
GeometricGraph random_geometric(const GeometricParams& params, Rng& rng);

}  // namespace scapegoat
