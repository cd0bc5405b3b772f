// Differential property suite for the estimator family: the least-squares
// estimator's kept factorization vs fresh QR solves, its row-append update
// of G = R⁺ vs a fresh pseudo-inverse of the grown R, its left-null-space
// basis N and streaming residual N·Nᵀy vs the QR residual, equality-mode
// sparse recovery vs least squares on identifiable systems, the multicast
// MLE vs its textbook/brute-force oracles, path selection's exact rank test
// vs the MGS RankTracker (the registry properties the tests/corpus seeds
// replay), plus hand-computed instances keeping the LP encoding and the
// oracles themselves honest.

#include <gtest/gtest.h>

#include <cmath>

#include "prop_gtest.hpp"
#include "graph/graph.hpp"
#include "linalg/qr.hpp"
#include "testkit/oracles.hpp"
#include "tomography/multicast_mle.hpp"
#include "tomography/sparse_recovery.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

TEST(PropTomography, CachedFactorizationMatchesFreshQr) {
  SCAPEGOAT_RUN_PROPERTY("tomography_cached_factorization_matches_fresh_qr");
}

TEST(PropTomography, RowAppendUpdateMatchesFreshQr) {
  SCAPEGOAT_RUN_PROPERTY("tomography_row_append_update_matches_fresh_qr");
}

TEST(PropTomography, LeftNullBasisMatchesFreshQr) {
  SCAPEGOAT_RUN_PROPERTY("tomography_left_null_basis_matches_fresh_qr");
}

TEST(PropTomography, IncidenceRankMatchesMgs) {
  SCAPEGOAT_RUN_PROPERTY("tomography_incidence_rank_matches_mgs");
}

TEST(PropTomography, SparseRecoveryMatchesLeastSquares) {
  SCAPEGOAT_RUN_PROPERTY("tomography_sparse_matches_least_squares");
}

TEST(PropTomography, MulticastMleMatchesClosedForm) {
  SCAPEGOAT_RUN_PROPERTY("tomography_mle_matches_closed_form");
}

// The MGS reference itself, on rows whose rank is known.
TEST(RankTracker, AcceptsOnlyIndependentRows) {
  testkit::RankTracker t(3);
  EXPECT_TRUE(t.add(Vector{1.0, 0.0, 0.0}));
  EXPECT_TRUE(t.add(Vector{1.0, 1.0, 0.0}));
  EXPECT_FALSE(t.add(Vector{2.0, 1.0, 0.0}));  // in the span
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_FALSE(t.full());
  EXPECT_TRUE(t.add(Vector{0.0, 0.0, 5.0}));
  EXPECT_TRUE(t.full());
  // Once full, nothing is independent.
  EXPECT_FALSE(t.add(Vector{1.0, 2.0, 3.0}));
}

TEST(RankTracker, RejectsZeroRow) {
  testkit::RankTracker t(4);
  EXPECT_FALSE(t.add(Vector(4, 0.0)));
  EXPECT_EQ(t.rank(), 0u);
}

TEST(RankTracker, IsIndependentDoesNotMutate) {
  testkit::RankTracker t(2);
  EXPECT_TRUE(t.is_independent(Vector{1.0, 0.0}));
  EXPECT_EQ(t.rank(), 0u);
  t.add(Vector{1.0, 0.0});
  EXPECT_FALSE(t.is_independent(Vector{2.0, 0.0}));
  EXPECT_TRUE(t.is_independent(Vector{0.0, 1.0}));
}

TEST(RankTracker, NumericallyNearDependentRowRejected) {
  testkit::RankTracker t(2, 1e-6);
  t.add(Vector{1.0, 0.0});
  // Angle ~1e-9 off the span: should be treated as dependent.
  EXPECT_FALSE(t.add(Vector{1.0, 1e-9}));
  // A clearly independent direction is accepted.
  EXPECT_TRUE(t.add(Vector{1.0, 0.5}));
}

TEST(RankTracker, MatchesQrRankOnRandomRows) {
  Rng rng(33);
  const std::size_t dim = 8;
  Matrix rows(20, dim);
  testkit::RankTracker t(dim);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    Vector row(dim);
    // Low-entropy rows: entries in {0, 1} give frequent dependencies.
    for (std::size_t c = 0; c < dim; ++c) row[c] = rng.bernoulli(0.4) ? 1 : 0;
    rows.set_row(r, row);
    t.add(row);
  }
  EXPECT_EQ(t.rank(), matrix_rank(rows));
}

TEST(MulticastMleOracle, TwoLeafClosedFormByHand) {
  // γ₁ = 0.8, γ₂ = 0.9, γ_or = 0.95:
  //   Â = 0.8·0.9 / (0.8 + 0.9 − 0.95) = 0.72 / 0.75 = 0.96,
  //   α̂₁ = 0.8 / 0.96 = 5/6,  α̂₂ = 0.9 / 0.96 = 0.9375.
  const auto ref = testkit::ref_two_leaf_mle(0.8, 0.9, 0.95);
  ASSERT_EQ(ref.size(), 3u);
  EXPECT_NEAR(ref[0], 0.96, 1e-12);
  EXPECT_NEAR(ref[1], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(ref[2], 0.9375, 1e-12);
}

TEST(MulticastMleOracle, OutcomeLoglikByHand) {
  // Root with two direct leaf children, both links at rate 1/2: every one
  // of the four leaf-outcome masks has probability 1/4, so a flat histogram
  // of 4 probes scores 4·log(1/4).
  Graph g(3);
  g.add_link(0, 1);
  g.add_link(0, 2);
  const auto tree = build_multicast_tree(g, 0, {1, 2});
  ASSERT_TRUE(tree.ok()) << tree.error_message();
  const Vector rates{1.0, 0.5, 0.5};
  const double ll =
      testkit::ref_multicast_outcome_loglik(*tree, rates, {1, 1, 1, 1}, 4);
  EXPECT_NEAR(ll, 4.0 * std::log(0.25), 1e-12);
  // An outcome the model forbids (rate-1 link, leaf reported lost) is −inf.
  const Vector certain{1.0, 1.0, 0.5};
  EXPECT_TRUE(std::isinf(
      testkit::ref_multicast_outcome_loglik(*tree, certain, {1, 1, 1, 1}, 4)));
}

TEST(MulticastMleOracle, GridSearchDominatesAnyGridPoint) {
  Graph g(3);
  g.add_link(0, 1);
  g.add_link(0, 2);
  const auto tree = build_multicast_tree(g, 0, {1, 2});
  ASSERT_TRUE(tree.ok());
  const std::vector<std::size_t> counts{2, 3, 3, 8};
  const double best = testkit::ref_multicast_mle_grid(*tree, counts, 16);
  for (int i = 1; i <= 9; ++i)
    for (int j = 1; j <= 9; ++j) {
      const Vector rates{1.0, i / 9.0, j / 9.0};
      EXPECT_GE(best + 1e-12, testkit::ref_multicast_outcome_loglik(
                                  *tree, rates, counts, 16));
    }
}

TEST(SparseRecoveryOracle, L1RecoveryByHand) {
  // Two links, three measurements: y fixes x = (5, 0) uniquely.
  //   path 0 = {0}, path 1 = {1}, path 2 = {0, 1}
  Graph g;
  g.add_node();
  g.add_node();
  g.add_node();
  g.add_link(0, 1);
  g.add_link(1, 2);
  std::vector<Path> paths(3);
  paths[0].links = {0};
  paths[1].links = {1};
  paths[2].links = {0, 1};
  const SparseRecoveryEstimator est(g, paths);
  const auto rec = est.recover(Vector{5.0, 0.0, 5.0});
  ASSERT_TRUE(rec.ok()) << rec.error_message();
  EXPECT_NEAR(rec->x[0], 5.0, 1e-9);
  EXPECT_NEAR(rec->x[1], 0.0, 1e-9);
  EXPECT_NEAR(rec->objective, 5.0, 1e-9);
  ASSERT_EQ(rec->support.size(), 1u);
  EXPECT_EQ(rec->support[0], LinkId{0});
}

TEST(SparseRecoveryOracle, L1PrefersTheSparsestExplanation) {
  // One measurement over two links, y = 7: the ℓ1-minimal nonnegative
  // explanation puts all delay on a single link, not 3.5 on each — any
  // split has the same ‖x‖₁ but the LP vertex solution is 1-sparse.
  Graph g;
  g.add_node();
  g.add_node();
  g.add_node();
  g.add_link(0, 1);
  g.add_link(1, 2);
  std::vector<Path> paths(1);
  paths[0].links = {0, 1};
  const SparseRecoveryEstimator est(g, paths);
  const auto rec = est.recover(Vector{7.0});
  ASSERT_TRUE(rec.ok());
  EXPECT_NEAR(rec->objective, 7.0, 1e-9);
  EXPECT_EQ(rec->support.size(), 1u);
  EXPECT_NEAR(rec->x[0] + rec->x[1], 7.0, 1e-9);
}

}  // namespace
}  // namespace scapegoat
