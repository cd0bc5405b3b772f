// Multicast probe mode for the measurement-plane simulator.
//
// A monitor at the root of a logical MulticastTree multicasts probes; every
// physical link passes each probe independently with its delivery
// probability, and a grey-hole adversary sitting at a tree node may drop
// the copy forwarded into a chosen child subtree — the selective-forwarding
// attack that frames the victim logical link (attack/loss_scapegoat.hpp).
//
// Determinism contract: every per-(link, probe) pass decision and every
// per-(rule, probe) adversary coin is a pure hash of (seed, salt, keys) —
// the same chained derive_seed construction as robust/faults.cpp — so the
// schedule is independent of evaluation order. The probes run serially on
// the calling thread; an experiment parallelizes over its trials instead
// (core/checkpoint_runner.hpp), each trial owning its own probe run.
//
// ProbeMode names the measurement channel an experiment feeds its defender:
// kMulticast delivers the joint OR-counts (the correlation evidence the MLE
// residual needs), kUnicast only the per-leaf marginal pass rates — the
// loss-domain ablation's knob for "how much does correlation buy".

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "tomography/multicast_mle.hpp"

namespace scapegoat::simnet {

enum class ProbeMode { kUnicast, kMulticast };

std::string to_string(ProbeMode mode);
std::optional<ProbeMode> probe_mode_from_string(std::string_view s);
std::ostream& operator<<(std::ostream& os, ProbeMode mode);

// One grey-hole rule: the adversary at tree node `at` drops the probe copy
// forwarded into child subtree `victim` (a tree index with parent == at).
struct GreyHoleRule {
  std::size_t at = 0;
  std::size_t victim = 0;
};

struct MulticastAdversary {
  std::vector<GreyHoleRule> rules;
  double drop_rate = 0.0;  // per-probe firing probability of each rule
  // false: every rule draws its own independent per-probe coin — the drops
  //   mimic i.i.d. link loss and stay consistent with the tree model.
  // true: one coin per probe selects AT MOST one rule to fire (disjoint
  //   intervals of a shared uniform draw; requires rules·rate ≤ 1). The
  //   anti-correlation across sibling subtrees is what no per-link loss
  //   assignment can reproduce — the detectable framing variant.
  bool exclusive = false;
};

struct MulticastProbeOptions {
  std::size_t probes = 1000;
  std::uint64_t seed = 0;
  // Per-physical-link delivery probability, indexed by LinkId; empty means
  // every link delivers with probability 1.
  std::vector<double> link_delivery;
  const MulticastAdversary* adversary = nullptr;
  // Record the full 2^leaves outcome histogram up to this many leaves (the
  // brute-force oracle's input); larger trees skip it.
  std::size_t histogram_max_leaves = 12;
};

struct MulticastProbeRun {
  MulticastObservation obs;                // per-node OR counts
  std::vector<std::size_t> leaf_reached;   // per leaf (leaves order)
  std::vector<std::size_t> outcome_counts; // 2^leaves histogram, maybe empty
  std::size_t probes_sent = 0;

  // Empirical per-leaf loss metrics −log(max(γ̂_leaf, floor)), in tree leaf
  // order — the y the estimator interface consumes.
  Vector leaf_loss_metrics(double floor = 1e-9) const;
};

// Runs `opt.probes` multicast probes down the tree. The per-probe leaf
// reachability row feeds tomography's bottom-up accumulate_gamma_counts, so
// the observation is exactly the γ recursion's data pass.
MulticastProbeRun run_multicast_probes(const MulticastTree& tree,
                                       const MulticastProbeOptions& opt);

}  // namespace scapegoat::simnet
