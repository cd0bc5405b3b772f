// Cross-thread-count determinism of the folded metrics (DESIGN.md §9).
//
// Runs the same small Fig. 7 workload with dedicated pools of 1, 2, 4 and 8
// workers under fresh registries and asserts that every algorithmic counter
// folds to the identical value. Counters under the "pool." prefix are
// scheduling-dependent (how many chunks ran inline vs dispatched) and are
// explicitly outside the contract, so they are stripped before comparing.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace scapegoat {
namespace {

std::map<std::string, std::uint64_t> algorithmic_counters(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name.rfind("pool.", 0) == 0) continue;
    out[c.name] = c.value;
  }
  return out;
}

TEST(ObsDeterminism, CountersIdenticalAt1248Threads) {
  std::map<std::string, std::uint64_t> baseline;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::MetricsRegistry registry;
    {
      obs::ScopedInstrumentation inst(registry);
      PresenceRatioOptions opt;
      opt.threads = threads;  // dedicated pool of exactly this size
      opt.topologies = 1;
      opt.trials_per_topology = 24;
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
    }
    const auto counters = algorithmic_counters(registry.snapshot());
    ASSERT_FALSE(counters.empty());
    EXPECT_GT(counters.at("core.fig7.trials"), 0u);
    EXPECT_GT(counters.at("lp.simplex.pivots"), 0u);
    if (threads == 1) {
      baseline = counters;
    } else {
      EXPECT_EQ(counters, baseline)
          << "algorithmic counters drifted at " << threads << " threads";
    }
  }
}

// Histogram counts (not timings — the durations differ, the event counts
// must not) also hold across thread counts.
TEST(ObsDeterminism, HistogramCountsIdenticalAcrossThreads) {
  std::map<std::string, std::uint64_t> baseline;
  for (std::size_t threads : {1u, 4u}) {
    obs::MetricsRegistry registry;
    {
      obs::ScopedInstrumentation inst(registry);
      PresenceRatioOptions opt;
      opt.threads = threads;
      opt.topologies = 1;
      opt.trials_per_topology = 16;
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
    }
    std::map<std::string, std::uint64_t> counts;
    for (const obs::HistogramSample& h : registry.snapshot().histograms) {
      if (h.name.rfind("pool.", 0) == 0) continue;
      counts[h.name] = h.count;
    }
    if (threads == 1) {
      baseline = counts;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(counts, baseline);
    }
  }
}

}  // namespace
}  // namespace scapegoat
