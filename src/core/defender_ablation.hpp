// Defender-choice ablation: least squares vs sparse recovery on the SAME
// attacks (DESIGN.md §14, EXPERIMENTS.md "Defender ablation").
//
// The experiment plants a k-sparse delay anomaly over the topology's
// baseline metrics (the compressive-sensing ground truth the sparse
// defender's prior anchors to), lets an attack family manipulate the
// measurements, and asks every configured defender — the Eq. 23
// least-squares detector and a SparseRecoveryEstimator per ε in the sweep —
// whether it flags the SAME observed y′. Clean trials (anomaly + noise, no
// attack) calibrate each defender's false-alarm rate on the same data.
//
// Families:
//   kUnrestricted — flat +δ on every attacker path, no stealth constraint.
//     The regime that separates the defenders: per-path discrepancies ≤ ε
//     are inside the sparse defender's ball (excess statistic 0) while the
//     least-squares residual accumulates them across paths past α.
//   kConsistent  — Theorem-1 chosen-victim construction on a grown perfect
//     cut. Invisible to least squares (Theorem 3); the sparse defender
//     inherits the blindness whenever the forged estimate stays ⪰ 0.
//   kSparseAware — attack/sparse_aware.hpp with the attacker's ε equal to
//     opt.attack_epsilon_ms: consistent up to ±ε everywhere, plus up to ε
//     extra damage per attacker path.
//
// Determinism contract: both ablations run on the Monte-Carlo trial engine
// the figure runners share (per-trial derived RNG streams, serial
// trial-order fold, journal families "clean" and "trial"), so every counter
// is bitwise identical at every thread count and across any kill/resume
// interleaving (DESIGN.md §7/§10).

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/loss_scapegoat.hpp"
#include "core/experiment.hpp"
#include "util/execution.hpp"

namespace scapegoat {

enum class AttackFamily { kUnrestricted, kConsistent, kSparseAware };

std::string to_string(AttackFamily f);
std::optional<AttackFamily> attack_family_from_string(std::string_view s);
std::ostream& operator<<(std::ostream& os, AttackFamily f);

struct DefenderAblationOptions : ExecutionPolicy {
  DefenderAblationOptions() : ExecutionPolicy(0, /*grain=*/4, /*seed=*/14) {}

  TopologyKind kind = TopologyKind::kWireline;
  std::size_t topologies = 3;
  std::size_t trials_per_cell = 12;   // per (family, k) per topology
  std::size_t clean_trials = 8;       // false-alarm trials per topology

  std::vector<std::size_t> anomaly_sparsity = {1, 4, 8};  // k sweep
  // Sparse-defender ball radii. ε = 0 runs the equality-mode estimator.
  std::vector<double> defender_epsilons_ms = {0.0, 10.0, 50.0};
  std::vector<AttackFamily> families = {AttackFamily::kUnrestricted,
                                        AttackFamily::kConsistent,
                                        AttackFamily::kSparseAware};

  double alpha = 200.0;            // detector threshold, both defenders (§V-D)
  double anomaly_delay_ms = 900.0; // planted per-link anomaly (abnormal band)
  double noise_ms = 1.0;           // per-path jitter ~ U[0, noise_ms) (Rem. 4)
  double attack_epsilon_ms = 50.0; // unrestricted δ / sparse-aware budget

  robust::ResilienceOptions resilience;  // see PresenceRatioOptions
};

// One (family, k) cell: how often each defender flagged the attack, plus the
// per-ε separation counters the EXPERIMENTS.md regime claim is built on.
struct AblationCell {
  AttackFamily family = AttackFamily::kUnrestricted;
  std::size_t sparsity = 0;  // planted k
  std::size_t attacks = 0;   // successful attacks evaluated
  std::size_t ls_detected = 0;
  // All indexed by defender_epsilons_ms position.
  std::vector<std::size_t> sparse_detected;
  std::vector<std::size_t> ls_only;      // LS fired, sparse[e] silent
  std::vector<std::size_t> sparse_only;  // sparse[e] fired, LS silent

  double ls_rate() const {
    return attacks == 0 ? 0.0 : static_cast<double>(ls_detected) / attacks;
  }
  double sparse_rate(std::size_t e) const {
    return attacks == 0 ? 0.0
                        : static_cast<double>(sparse_detected[e]) / attacks;
  }
};

struct AblationSeries {
  TopologyKind kind = TopologyKind::kWireline;
  std::vector<double> epsilons;     // echo of defender_epsilons_ms
  std::vector<AblationCell> cells;  // families × k, fixed enumeration order
  std::size_t total_trials = 0;     // attack trials attempted (incl. failed)

  std::size_t clean_trials = 0;
  std::size_t ls_false_alarms = 0;
  std::vector<std::size_t> sparse_false_alarms;  // per ε

  std::size_t trials_replayed = 0;  // see PresenceRatioSeries
  std::size_t trials_quarantined = 0;
  bool interrupted = false;
};

// Runs the sweep. Topology draws, anomaly placement, attacker placement and
// noise all derive from opt.seed; identical options give bitwise identical
// series at every thread count.
AblationSeries run_defender_ablation(const DefenderAblationOptions& opt);

// ---- loss-domain ablation: multicast MLE vs least squares -----------------
//
// The grey-hole grid (DESIGN.md §15, EXPERIMENTS.md "Loss-domain
// scapegoating"). Each trial draws a topology, roots a multicast tree at a
// monitor, places a grey hole at an internal tree node and frames one child
// subtree (attack/loss_scapegoat.hpp families), then feeds the SAME ground
// truth to two measurement channels:
//
//   * the multicast channel — run_multicast_probes joint OR counts into a
//     tree-native MulticastMleEstimator; detection thresholds the loss
//     residual (probability units) against mle_alpha. probe_mode = kUnicast
//     withholds the joint counts (marginals-only independence completion),
//     the "how much does correlation buy" knob.
//   * the unicast channel — per-path loss probes over the scenario's
//     monitor paths; the grey hole drops probes crossing the attacked
//     edge(s) with the same per-packet rate. Every drop is i.i.d. per
//     packet, i.e. indistinguishable from link loss on that edge, so the
//     least-squares Eq. 23 residual (loss-metric units, ls_alpha) stays at
//     noise for BOTH families — the separation the MLE's clamp statistic
//     provides only on the correlated channel.
//
// Clean trials (honest link loss only, both channels) pin the false-alarm
// rates the EXPERIMENTS.md table's zero-false-alarm claim rests on.
struct LossAblationOptions : ExecutionPolicy {
  LossAblationOptions() : ExecutionPolicy(0, /*grain=*/2, /*seed=*/15) {}

  TopologyKind kind = TopologyKind::kWireline;
  std::size_t topologies = 3;
  std::size_t trials_per_cell = 8;  // per (family, drop rate) per topology
  std::size_t clean_trials = 8;     // false-alarm trials per topology
  std::size_t probes = 4000;        // per trial, both channels
  std::size_t receivers = 5;        // multicast leaves drawn per trial

  std::vector<double> drop_rates = {0.10, 0.20, 0.30};
  std::vector<LossAttackFamily> families = {LossAttackFamily::kSubtreeFraming,
                                            LossAttackFamily::kSplitFraming};
  simnet::ProbeMode probe_mode = simnet::ProbeMode::kMulticast;

  double mle_alpha = 0.05;  // MLE residual threshold, probability units
  double ls_alpha = 0.5;    // LS Eq. 23 threshold, loss-metric units
  // Honest per-link delivery drawn U[min, 1] — the background loss floor.
  double min_link_delivery = 0.985;

  robust::ResilienceOptions resilience;  // see PresenceRatioOptions
};

// One (family, drop rate) cell.
struct LossAblationCell {
  LossAttackFamily family = LossAttackFamily::kSubtreeFraming;
  double drop_rate = 0.0;
  std::size_t attacks = 0;        // trials with a usable tree + attacker
  std::size_t victim_blamed = 0;  // MLE classified every victim link abnormal
  std::size_t mle_detected = 0;
  std::size_t ls_detected = 0;
  std::size_t mle_only = 0;  // MLE fired, LS silent — the separation count
  std::size_t ls_only = 0;

  double blame_rate() const {
    return attacks == 0 ? 0.0
                        : static_cast<double>(victim_blamed) / attacks;
  }
  double mle_rate() const {
    return attacks == 0 ? 0.0
                        : static_cast<double>(mle_detected) / attacks;
  }
  double ls_rate() const {
    return attacks == 0 ? 0.0 : static_cast<double>(ls_detected) / attacks;
  }
};

struct LossAblationSeries {
  TopologyKind kind = TopologyKind::kWireline;
  simnet::ProbeMode probe_mode = simnet::ProbeMode::kMulticast;
  std::vector<LossAblationCell> cells;  // families × rates, enumeration order
  std::size_t total_trials = 0;         // attempted (incl. unusable draws)

  std::size_t clean_trials = 0;
  std::size_t mle_false_alarms = 0;
  std::size_t ls_false_alarms = 0;

  std::size_t trials_replayed = 0;  // see PresenceRatioSeries
  std::size_t trials_quarantined = 0;
  bool interrupted = false;
};

// Runs the grid. Same determinism contract as run_defender_ablation: every
// counter is bitwise identical at every thread count for fixed options.
LossAblationSeries run_loss_ablation(const LossAblationOptions& opt);

}  // namespace scapegoat
