// The multicast MLE family: logical tree construction (chain collapse and
// its error taxonomy), the gamma passes, the Cáceres recursion against
// hand-computed two-leaf numbers, the degree-3 fixed point, the typed
// refusals, and the MulticastMleEstimator's interface conformance next to
// the other two EstimatorKinds.

#include "tomography/multicast_mle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/scenario.hpp"
#include "tomography/estimator_interface.hpp"

namespace scapegoat {
namespace {

// root 0 —l0→ 1, then 1 —l1→ 2 and 1 —l2→ 3; receivers {2, 3}. The classic
// shared-link two-leaf shape with a one-link chain.
Graph two_leaf_graph() {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(1, 3);
  return g;
}

TEST(MulticastTree, CollapsesRelayChains) {
  // 0 — 1 — 2 is pass-through; the split happens at 2.
  Graph g(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(2, 4);
  const auto tree = build_multicast_tree(g, 0, {3, 4});
  ASSERT_TRUE(tree.ok()) << tree.error_message();
  ASSERT_TRUE(tree->valid());
  ASSERT_EQ(tree->num_nodes(), 4u);  // root, branch point, two leaves
  EXPECT_EQ(tree->num_leaves(), 2u);
  // The logical root→branch link is the two-link physical chain 0—1—2.
  const MulticastTreeNode& branch = tree->nodes[1];
  EXPECT_EQ(branch.graph_node, NodeId{2});
  ASSERT_EQ(branch.chain.size(), 2u);
  EXPECT_EQ(branch.chain_nodes.back(), NodeId{2});
  // Leaf order follows the receivers argument.
  EXPECT_EQ(tree->nodes[tree->leaves[0]].graph_node, NodeId{3});
  EXPECT_EQ(tree->nodes[tree->leaves[1]].graph_node, NodeId{4});
}

TEST(MulticastTree, BuildRefusalTaxonomy) {
  const Graph g = two_leaf_graph();
  EXPECT_EQ(build_multicast_tree(g, 0, {}).code(),
            robust::ErrorCode::kEmptyInput);
  EXPECT_EQ(build_multicast_tree(g, 0, {2, 2}).code(),
            robust::ErrorCode::kInvalidInput);
  EXPECT_EQ(build_multicast_tree(g, 0, {0, 2}).code(),
            robust::ErrorCode::kInvalidInput);
  // A receiver on another receiver's path: 1 sits on root→2.
  EXPECT_EQ(build_multicast_tree(g, 0, {1, 2}).code(),
            robust::ErrorCode::kInvalidInput);
  // Unreachable receiver.
  Graph split(5);
  split.add_link(0, 1);
  split.add_link(3, 4);
  EXPECT_EQ(build_multicast_tree(split, 0, {1, 4}).code(),
            robust::ErrorCode::kInvalidInput);
}

TEST(MulticastTree, LeafPathsRoundTripThroughPathReconstruction) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  const auto paths = tree->leaf_paths();
  ASSERT_EQ(paths.size(), 2u);
  const auto rebuilt = multicast_tree_from_paths(g, paths);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error_message();
  ASSERT_EQ(rebuilt->num_nodes(), tree->num_nodes());
  for (std::size_t k = 0; k < tree->num_nodes(); ++k) {
    EXPECT_EQ(rebuilt->nodes[k].parent, tree->nodes[k].parent);
    EXPECT_EQ(rebuilt->nodes[k].graph_node, tree->nodes[k].graph_node);
    EXPECT_EQ(rebuilt->nodes[k].chain, tree->nodes[k].chain);
  }
}

TEST(MulticastGamma, AccumulateAndComputeAgree) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  const std::vector<std::vector<std::uint8_t>> outcomes{
      {1, 1}, {1, 0}, {0, 1}, {0, 0}};
  const Vector gamma = compute_gamma(*tree, outcomes);
  ASSERT_EQ(gamma.size(), 4u);
  EXPECT_NEAR(gamma[0], 0.75, 1e-12);  // root OR = any leaf reached
  EXPECT_NEAR(gamma[1], 0.75, 1e-12);
  std::vector<std::size_t> counts(tree->num_nodes(), 0);
  for (const auto& row : outcomes) accumulate_gamma_counts(*tree, row, counts);
  for (std::size_t k = 0; k < counts.size(); ++k)
    EXPECT_NEAR(static_cast<double>(counts[k]) / 4.0, gamma[k], 1e-12) << k;
}

TEST(MulticastGamma, ModelAndIndependenceSynthesisByHand) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  const Vector alpha{1.0, 0.9, 0.8, 0.5};
  const Vector gamma = model_gammas(*tree, alpha);
  // γ_leaf = A_parent·α_leaf; γ_internal = A·(1 − (1−0.8)(1−0.5)).
  EXPECT_NEAR(gamma[2], 0.9 * 0.8, 1e-12);
  EXPECT_NEAR(gamma[3], 0.9 * 0.5, 1e-12);
  EXPECT_NEAR(gamma[1], 0.9 * (1.0 - 0.2 * 0.5), 1e-12);
  EXPECT_NEAR(gamma[0], gamma[1], 1e-12);  // root OR == child OR here
  const Vector synth = independence_gammas(*tree, Vector{0.72, 0.45});
  EXPECT_NEAR(synth[2], 0.72, 1e-12);
  EXPECT_NEAR(synth[3], 0.45, 1e-12);
  EXPECT_NEAR(synth[1], 1.0 - 0.28 * 0.55, 1e-12);
}

TEST(MulticastMle, TwoLeafNumbersByHand) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  // γ̂ = {0.95, 0.95, 0.8, 0.9}: Â₁ = 0.72/0.75 = 0.96, α̂ = {0.96, 5/6,
  // 0.9375} — the worked example every MINC derivation prints.
  const Vector gammas{0.95, 0.95, 0.8, 0.9};
  const auto fit = solve_multicast_mle(g.num_links(), *tree, gammas);
  ASSERT_TRUE(fit.ok()) << fit.error_message();
  EXPECT_NEAR(fit->node_reach[1], 0.96, 1e-12);
  EXPECT_NEAR(fit->link_success[1], 0.96, 1e-12);
  EXPECT_NEAR(fit->link_success[2], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(fit->link_success[3], 0.9375, 1e-12);
  EXPECT_EQ(fit->clamped, 0u);
  EXPECT_EQ(fit->fixed_point_nodes, 0u);  // binary: closed form only
  // Consistent γ̂ interpolate exactly — the residual statistic vanishes.
  EXPECT_NEAR(fit->residual, 0.0, 1e-12);
  // x is the physical loss-metric vector: −log α̂ on each chain link.
  ASSERT_EQ(fit->x.size(), g.num_links());
  EXPECT_NEAR(fit->x[0], -std::log(0.96), 1e-12);
  EXPECT_NEAR(fit->x[1], -std::log(5.0 / 6.0), 1e-12);
  EXPECT_NEAR(fit->x[2], -std::log(0.9375), 1e-12);
}

TEST(MulticastMle, ChainSplitsTheLogicalMetricUniformly) {
  Graph g(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  g.add_link(2, 4);
  const auto tree = build_multicast_tree(g, 0, {3, 4});
  ASSERT_TRUE(tree.ok());
  const auto fit =
      solve_multicast_mle(g.num_links(), *tree, Vector{0.95, 0.95, 0.8, 0.9});
  ASSERT_TRUE(fit.ok());
  // The shared logical link is the physical chain {l0, l1}: −log 0.96 split
  // in half per link.
  EXPECT_NEAR(fit->x[0], -std::log(0.96) / 2.0, 1e-12);
  EXPECT_NEAR(fit->x[1], -std::log(0.96) / 2.0, 1e-12);
}

TEST(MulticastMle, DegreeThreeFixedPointRecoversTheRates) {
  Graph g(5);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(1, 3);
  g.add_link(1, 4);
  const auto tree = build_multicast_tree(g, 0, {2, 3, 4});
  ASSERT_TRUE(tree.ok());
  const Vector alpha{1.0, 0.9, 0.8, 0.7, 0.6};
  const auto fit =
      solve_multicast_mle(g.num_links(), *tree, model_gammas(*tree, alpha));
  ASSERT_TRUE(fit.ok()) << fit.error_message();
  EXPECT_EQ(fit->fixed_point_nodes, 1u);
  EXPECT_TRUE(fit->converged);
  for (std::size_t k = 1; k < 5; ++k)
    EXPECT_NEAR(fit->link_success[k], alpha[k], 1e-9) << "node " << k;
  EXPECT_NEAR(fit->residual, 0.0, 1e-9);
}

TEST(MulticastMle, RefusalTaxonomy) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(solve_multicast_mle(g.num_links(), *tree, Vector{0.9, 0.9}).code(),
            robust::ErrorCode::kDimensionMismatch);
  EXPECT_EQ(solve_multicast_mle(g.num_links(), *tree,
                                Vector{0.9, 0.9, 1.2, 0.9})
                .code(),
            robust::ErrorCode::kInvalidInput);
  // A dead leaf has no finite loss metric: typed refusal, not NaN.
  EXPECT_EQ(solve_multicast_mle(g.num_links(), *tree,
                                Vector{0.9, 0.9, 0.0, 0.9})
                .code(),
            robust::ErrorCode::kMissingData);
  MulticastObservation obs;
  EXPECT_EQ(solve_multicast_mle(g.num_links(), *tree, obs).code(),
            robust::ErrorCode::kEmptyInput);
  obs.probes = 10;
  obs.reach_count = {9, 9, 11, 9};  // count exceeds the probe total
  EXPECT_EQ(solve_multicast_mle(g.num_links(), *tree, obs).code(),
            robust::ErrorCode::kInvalidInput);
}

TEST(MulticastMle, AntiCorrelatedSiblingsClampAndLeaveResidual) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  // Siblings that almost never fail together: γ_or far above what any
  // independent-loss tree admits, so Â₁ = 0.25/0.1 = 2.5 > 1 → clamp, and
  // the clamped fit can no longer interpolate the γ̂'s.
  const auto fit = solve_multicast_mle(g.num_links(), *tree,
                                       Vector{0.9, 0.9, 0.5, 0.5});
  ASSERT_TRUE(fit.ok()) << fit.error_message();
  EXPECT_GE(fit->clamped, 1u);
  EXPECT_GT(fit->residual, 0.05);
}

// ---- the estimator family -------------------------------------------------

TEST(MulticastMleEstimatorTest, IndependenceCompletionIsBlindToSharedLoss) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  const MulticastMleEstimator est(g, *tree);
  ASSERT_TRUE(est.has_tree());
  // Marginals alone: y from true rates with a lossy shared link.
  const Vector y{-std::log(0.9 * 0.8), -std::log(0.9 * 0.5)};
  const Vector x = est.estimate(y);
  // Under the independence completion the internal closed form collapses to
  // Â = 1: the shared link looks perfect and all loss lands on the leaves.
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_NEAR(x[1], -std::log(0.9 * 0.8), 1e-9);
  EXPECT_NEAR(x[2], -std::log(0.9 * 0.5), 1e-9);
  EXPECT_NEAR(est.residual_statistic(y), 0.0, 1e-9);
}

TEST(MulticastMleEstimatorTest, IngestedJointCountsRecoverTheSharedLink) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  MulticastMleEstimator est(g, *tree);
  // Joint OR counts consistent with α = {0.9, 0.8, 0.5}: γ computed from
  // the model at 1000 probes (exact, so the fit interpolates).
  const Vector gamma = model_gammas(*tree, Vector{1.0, 0.9, 0.8, 0.5});
  MulticastObservation obs;
  obs.probes = 1000;
  obs.reach_count.resize(4);
  for (std::size_t k = 0; k < 4; ++k)
    obs.reach_count[k] =
        static_cast<std::size_t>(std::lround(gamma[k] * 1000.0));
  est.ingest(obs);
  ASSERT_TRUE(est.observation().has_value());
  const Vector y{-std::log(obs.gamma(2)), -std::log(obs.gamma(3))};
  const Vector x = est.estimate(y);
  EXPECT_NEAR(x[0], -std::log(0.9), 5e-3);
  EXPECT_NEAR(x[1], -std::log(0.8), 5e-3);
  EXPECT_NEAR(x[2], -std::log(0.5), 5e-3);
  EXPECT_NEAR(est.residual_statistic(y), 0.0, 1e-9);
  est.clear_observation();
  EXPECT_FALSE(est.observation().has_value());
  // Back to the blind completion.
  EXPECT_NEAR(est.estimate(y)[0], 0.0, 1e-9);
}

TEST(MulticastMleEstimatorTest, TryEstimateSurfacesDeadLeavesAsTypedError) {
  const Graph g = two_leaf_graph();
  const auto tree = build_multicast_tree(g, 0, {2, 3});
  ASSERT_TRUE(tree.ok());
  MulticastMleEstimator est(g, *tree);
  MulticastObservation obs;
  obs.probes = 100;
  obs.reach_count = {90, 90, 0, 90};  // leaf 0 never reached
  est.ingest(obs);
  const Vector y{-std::log(kMlePassFloor), -std::log(0.9)};
  const auto attempt = est.try_estimate(y);
  ASSERT_FALSE(attempt.ok());
  EXPECT_EQ(attempt.code(), robust::ErrorCode::kMissingData);
  // estimate() stays total on the same input.
  const Vector x = est.estimate(y);
  for (std::size_t j = 0; j < x.size(); ++j)
    EXPECT_TRUE(std::isfinite(x[j])) << j;
}

TEST(MulticastMleEstimatorTest, InterfaceConformanceAcrossAllThreeKinds) {
  Rng rng(31);
  const Scenario scenario = Scenario::fig1(rng);
  const Vector y = scenario.clean_measurements();
  for (const EstimatorKind kind :
       {EstimatorKind::kLeastSquares, EstimatorKind::kSparseRecovery,
        EstimatorKind::kMulticastMle}) {
    EstimatorOptions opt;
    opt.sparse_prior = scenario.x_true();
    const auto est = make_estimator(kind, scenario.graph(),
                                    scenario.estimator().paths(), opt);
    ASSERT_NE(est, nullptr) << to_string(kind);
    EXPECT_EQ(est->method(), kind);
    ASSERT_TRUE(est->ok()) << to_string(kind);
    // clone() preserves the family and the answers.
    const std::unique_ptr<Estimator> copy = est->clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->method(), kind);
    const Vector a = est->estimate(y);
    const Vector b = copy->estimate(y);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_EQ(a[j], b[j]) << to_string(kind) << " link " << j;
    // streaming_residual is total and dimensioned like y.
    EXPECT_EQ(est->streaming_residual(y).size(), y.size());
    // Clean measurements leave every family's residual statistic at zero.
    EXPECT_NEAR(est->residual_statistic(y), 0.0, 1e-6) << to_string(kind);
    const auto attempt = est->try_estimate(y);
    ASSERT_TRUE(attempt.ok()) << to_string(kind);
  }
}

TEST(MulticastMleEstimatorTest, NonTreePathSetsDegradeToThePseudoInverse) {
  // Scenario paths are a unicast mesh, not a rooted tree: the factory-shape
  // constructor must keep the linear fallback (documented, not an error).
  Rng rng(7);
  const Scenario scenario = Scenario::fig1(rng);
  const MulticastMleEstimator est(scenario.graph(),
                                  scenario.estimator().paths());
  EXPECT_FALSE(est.has_tree());
  const Vector y = scenario.clean_measurements();
  const Vector mine = est.estimate(y);
  const Vector linear = scenario.estimator().estimate(y);
  ASSERT_EQ(mine.size(), linear.size());
  for (std::size_t j = 0; j < mine.size(); ++j)
    EXPECT_NEAR(mine[j], linear[j], 1e-9) << j;
}

}  // namespace
}  // namespace scapegoat
