// The multicast probe simulator: counter bookkeeping, delivery statistics,
// grey-hole adversary semantics (independent vs exclusive coins) and the
// histogram cap.

#include "simnet/multicast_probe.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "graph/graph.hpp"

namespace scapegoat::simnet {
namespace {

// root 0 → 1, then 1 → {2, 3}; receivers {2, 3}.
robust::Expected<MulticastTree> two_leaf_tree(Graph& g) {
  g = Graph(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(1, 3);
  return build_multicast_tree(g, 0, {2, 3});
}

TEST(ProbeModeIo, RoundTripsAndRejectsUnknown) {
  for (const ProbeMode mode : {ProbeMode::kUnicast, ProbeMode::kMulticast}) {
    const auto back = probe_mode_from_string(to_string(mode));
    ASSERT_TRUE(back.has_value()) << to_string(mode);
    EXPECT_EQ(*back, mode);
    std::ostringstream os;
    os << mode;
    EXPECT_EQ(os.str(), to_string(mode));
  }
  EXPECT_FALSE(probe_mode_from_string("anycast").has_value());
}

TEST(MulticastProbe, PerfectLinksDeliverEveryProbe) {
  Graph g;
  const auto tree = two_leaf_tree(g);
  ASSERT_TRUE(tree.ok());
  MulticastProbeOptions opt;
  opt.probes = 200;
  const MulticastProbeRun run = run_multicast_probes(*tree, opt);
  EXPECT_EQ(run.probes_sent, 200u);
  for (std::size_t k = 0; k < tree->num_nodes(); ++k)
    EXPECT_EQ(run.obs.reach_count[k], 200u) << k;
  for (const std::size_t reached : run.leaf_reached) EXPECT_EQ(reached, 200u);
  // Histogram: every probe lands in the all-leaves-reached bucket.
  ASSERT_EQ(run.outcome_counts.size(), 4u);
  EXPECT_EQ(run.outcome_counts[3], 200u);
  const Vector y = run.leaf_loss_metrics();
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 0.0) << i;
}

TEST(MulticastProbe, DeliveryRatesMatchTheLawOfLargeNumbers) {
  Graph g;
  const auto tree = two_leaf_tree(g);
  ASSERT_TRUE(tree.ok());
  MulticastProbeOptions opt;
  opt.probes = 20000;
  opt.seed = 0xfeedULL;
  opt.link_delivery = {0.9, 0.8, 0.6};
  const MulticastProbeRun run = run_multicast_probes(*tree, opt);
  const double n = static_cast<double>(run.probes_sent);
  // Leaf pass rates ≈ chain products 0.72 and 0.54 (±2% at 20k probes).
  EXPECT_NEAR(static_cast<double>(run.leaf_reached[0]) / n, 0.72, 0.02);
  EXPECT_NEAR(static_cast<double>(run.leaf_reached[1]) / n, 0.54, 0.02);
  // Internal OR count ≈ 0.9·(1 − 0.4·0.2).
  EXPECT_NEAR(run.obs.gamma(1), 0.9 * (1.0 - 0.4 * 0.2), 0.02);
  // Metrics are −log of the empirical pass rates.
  const Vector y = run.leaf_loss_metrics();
  EXPECT_NEAR(y[0], -std::log(run.obs.gamma(2)), 1e-12);
  EXPECT_NEAR(y[1], -std::log(run.obs.gamma(3)), 1e-12);
}

TEST(MulticastProbe, IndependentGreyHoleDrainsOnlyTheVictimSubtree) {
  Graph g;
  const auto tree = two_leaf_tree(g);
  ASSERT_TRUE(tree.ok());
  // Adversary at the branch point drops the copy into leaf node 2's subtree
  // 30% of the time; the sibling leaf is untouched.
  MulticastAdversary adv;
  adv.rules = {{1, 2}};
  adv.drop_rate = 0.3;
  MulticastProbeOptions opt;
  opt.probes = 20000;
  opt.seed = 0xabcULL;
  opt.adversary = &adv;
  const MulticastProbeRun run = run_multicast_probes(*tree, opt);
  const double n = static_cast<double>(run.probes_sent);
  EXPECT_NEAR(static_cast<double>(run.leaf_reached[0]) / n, 0.7, 0.02);
  EXPECT_EQ(run.leaf_reached[1], run.probes_sent);
}

TEST(MulticastProbe, ExclusiveCoinNeverFiresTwoRulesOnOneProbe) {
  Graph g;
  const auto tree = two_leaf_tree(g);
  ASSERT_TRUE(tree.ok());
  // Both subtrees targeted at 40% under ONE shared exclusive coin: at most
  // one rule fires per probe, so no probe ever loses both leaves to the
  // adversary — with perfect links the both-lost histogram bucket is empty,
  // while independent coins at the same rate lose both ≈ 16% of the time.
  MulticastAdversary adv;
  adv.rules = {{1, 2}, {1, 3}};
  adv.drop_rate = 0.4;
  adv.exclusive = true;
  MulticastProbeOptions opt;
  opt.probes = 20000;
  opt.seed = 0x5eedULL;
  opt.adversary = &adv;
  const MulticastProbeRun run = run_multicast_probes(*tree, opt);
  ASSERT_EQ(run.outcome_counts.size(), 4u);
  EXPECT_EQ(run.outcome_counts[0], 0u);  // anti-correlation: never both lost
  EXPECT_NEAR(static_cast<double>(run.leaf_reached[0]) / 20000.0, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(run.leaf_reached[1]) / 20000.0, 0.6, 0.02);

  adv.exclusive = false;
  const MulticastProbeRun indep = run_multicast_probes(*tree, opt);
  EXPECT_NEAR(static_cast<double>(indep.outcome_counts[0]) / 20000.0, 0.16,
              0.02);
}

TEST(MulticastProbe, HistogramSkipsTreesOverTheLeafCap) {
  Graph g;
  const auto tree = two_leaf_tree(g);
  ASSERT_TRUE(tree.ok());
  MulticastProbeOptions opt;
  opt.probes = 50;
  opt.histogram_max_leaves = 1;
  const MulticastProbeRun run = run_multicast_probes(*tree, opt);
  EXPECT_TRUE(run.outcome_counts.empty());
  EXPECT_EQ(run.obs.reach_count[0], 50u);  // OR counts still accumulate
}

}  // namespace
}  // namespace scapegoat::simnet
