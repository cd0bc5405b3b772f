#include "simnet/multicast_probe.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>

#include "obs/obs.hpp"
#include "util/random.hpp"

namespace scapegoat::simnet {

std::string to_string(ProbeMode mode) {
  switch (mode) {
    case ProbeMode::kUnicast:
      return "unicast";
    case ProbeMode::kMulticast:
      return "multicast";
  }
  return "?";
}

std::optional<ProbeMode> probe_mode_from_string(std::string_view s) {
  if (s == "unicast") return ProbeMode::kUnicast;
  if (s == "multicast") return ProbeMode::kMulticast;
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, ProbeMode mode) {
  return os << to_string(mode);
}

namespace {

// Stream salts for the multicast schedule (disjoint from robust/faults.cpp
// so a shared master seed never couples the two planes).
constexpr std::uint64_t kMcLinkSalt = 0x3cca571111ull;  // (link, probe) pass
constexpr std::uint64_t kMcDropSalt = 0x62e7701e5ull;   // (rule, probe) coin

// Pure hash → uniform [0, 1): the faults.cpp chained-finalizer idiom, so
// the schedule depends only on (seed, salt, keys) — never on thread count
// or evaluation order.
double unit(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
            std::uint64_t b) {
  std::uint64_t s = seed ^ salt;
  s = derive_seed(a, s);
  s = derive_seed(b, s);
  s = derive_seed(0, s);
  return static_cast<double>(s >> 11) * 0x1.0p-53;
}

}  // namespace

Vector MulticastProbeRun::leaf_loss_metrics(double floor) const {
  Vector y(leaf_reached.size());
  for (std::size_t i = 0; i < leaf_reached.size(); ++i) {
    const double pass =
        probes_sent == 0 ? 0.0
                         : static_cast<double>(leaf_reached[i]) /
                               static_cast<double>(probes_sent);
    y[i] = -std::log(std::max(pass, floor));
  }
  return y;
}

MulticastProbeRun run_multicast_probes(const MulticastTree& tree,
                                       const MulticastProbeOptions& opt) {
  assert(tree.valid());
  obs::ScopedSpan span("simnet.multicast.run");
  const std::size_t n = tree.num_nodes();
  const std::size_t leaves = tree.num_leaves();
  const bool histogram = leaves <= opt.histogram_max_leaves && leaves < 64;
  const MulticastAdversary* adv = opt.adversary;
  assert(!adv || !adv->exclusive ||
         static_cast<double>(adv->rules.size()) * adv->drop_rate <= 1.0 +
             1e-12);

  MulticastProbeRun run;
  run.probes_sent = opt.probes;
  run.obs.probes = opt.probes;
  run.obs.reach_count.assign(n, 0);
  run.leaf_reached.assign(leaves, 0);
  run.outcome_counts.assign(histogram ? (std::size_t{1} << leaves) : 0, 0);
  std::vector<std::uint8_t> reached(n);
  std::vector<std::uint8_t> leaf_row(leaves);
  // One probe: top-down reachability (parents precede children), then the
  // leaf row feeds tomography's bottom-up γ accumulation.
  for (std::size_t p = 0; p < opt.probes; ++p) {
    reached[0] = 1;
    // Shared exclusive coin: interval i of one uniform draw fires rule i.
    std::size_t exclusive_rule = static_cast<std::size_t>(-1);
    if (adv && adv->exclusive && adv->drop_rate > 0.0) {
      const double u = unit(opt.seed, kMcDropSalt, 0, p);
      const std::size_t slot = static_cast<std::size_t>(u / adv->drop_rate);
      if (slot < adv->rules.size()) exclusive_rule = slot;
    }
    for (std::size_t k = 1; k < n; ++k) {
      const MulticastTreeNode& node = tree.nodes[k];
      bool ok = reached[node.parent] != 0;
      if (ok && adv) {
        for (std::size_t r = 0; r < adv->rules.size(); ++r) {
          const GreyHoleRule& rule = adv->rules[r];
          if (rule.at != node.parent || rule.victim != k) continue;
          const bool fires =
              adv->exclusive
                  ? exclusive_rule == r
                  : adv->drop_rate > 0.0 &&
                        unit(opt.seed, kMcDropSalt, r + 1, p) <
                            adv->drop_rate;
          if (fires) {
            ok = false;
            break;
          }
        }
      }
      if (ok && !opt.link_delivery.empty()) {
        for (LinkId l : node.chain) {
          assert(l < opt.link_delivery.size());
          if (unit(opt.seed, kMcLinkSalt, l, p) >= opt.link_delivery[l]) {
            ok = false;
            break;
          }
        }
      }
      reached[k] = ok ? 1 : 0;
    }
    std::size_t outcome_bits = 0;
    for (std::size_t i = 0; i < leaves; ++i) {
      leaf_row[i] = reached[tree.leaves[i]];
      if (leaf_row[i]) {
        ++run.leaf_reached[i];
        outcome_bits |= std::size_t{1} << i;
      }
    }
    accumulate_gamma_counts(tree, leaf_row, run.obs.reach_count);
    if (histogram) ++run.outcome_counts[outcome_bits];
  }
  obs::count("simnet.multicast.probes", opt.probes);
  return run;
}

}  // namespace scapegoat::simnet
