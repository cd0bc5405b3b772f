// Routing (measurement) matrix construction — Eq. 1 of the paper.
//
// R is |P|×|L| with R(i,j) = 1 iff link j lies on measurement path i; the
// end-to-end measurement model is y = R x for additive link metrics x. R is
// stored only in CSR form: a dense copy is made by to_dense() where a dense
// kernel (QR, the pseudo-inverse, the condition estimate) runs, and dropped
// after it.

#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"

namespace scapegoat {

// Builds R from the path incidence lists, never materializing the dense
// |P|×|L| array. Every path must be a valid simple path of `g`.
SparseMatrix routing_matrix(const Graph& g, const std::vector<Path>& paths);

// y = R x without materializing R (x indexed by LinkId).
Vector path_metrics(const std::vector<Path>& paths, const Vector& x);

// rank(R) == |L|: the precondition for Eq. 2's unique inverse.
bool is_identifiable(const SparseMatrix& r);

// Indices of paths that traverse at least one node from `nodes` — the paths
// an attacker controlling `nodes` can manipulate (Constraint 1's support).
std::vector<std::size_t> paths_through_nodes(const std::vector<Path>& paths,
                                             const std::vector<NodeId>& nodes);

// Indices of paths that traverse at least one link from `links`.
std::vector<std::size_t> paths_through_links(const std::vector<Path>& paths,
                                             const std::vector<LinkId>& links);

}  // namespace scapegoat
