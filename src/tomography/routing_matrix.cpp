#include "tomography/routing_matrix.hpp"

#include <cassert>

#include "linalg/qr.hpp"

namespace scapegoat {

SparseMatrix routing_matrix(const Graph& g, const std::vector<Path>& paths) {
  std::vector<Triplet> entries;
  std::size_t total = 0;
  for (const Path& p : paths) total += p.links.size();
  entries.reserve(total);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    assert(is_valid_simple_path(g, paths[i]));
    for (LinkId l : paths[i].links) entries.push_back({i, l, 1.0});
  }
  // A simple path visits each link at most once, so duplicate rejection in
  // from_triplets doubles as a path-validity assertion.
  return SparseMatrix::from_triplets(paths.size(), g.num_links(), entries);
}

Vector path_metrics(const std::vector<Path>& paths, const Vector& x) {
  Vector y(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    double acc = 0.0;
    for (LinkId l : paths[i].links) {
      assert(l < x.size());
      acc += x[l];
    }
    y[i] = acc;
  }
  return y;
}

bool is_identifiable(const SparseMatrix& r) {
  return r.cols() > 0 && matrix_rank(r.to_dense()) == r.cols();
}

std::vector<std::size_t> paths_through_nodes(const std::vector<Path>& paths,
                                             const std::vector<NodeId>& nodes) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < paths.size(); ++i)
    if (paths[i].contains_any_node(nodes)) out.push_back(i);
  return out;
}

std::vector<std::size_t> paths_through_links(const std::vector<Path>& paths,
                                             const std::vector<LinkId>& links) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (LinkId l : links) {
      if (paths[i].contains_link(l)) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace scapegoat
