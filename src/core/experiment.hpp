// Monte-Carlo experiment runners behind Figs. 7-9.
//
// Each runner draws topologies of the requested kind (wireline = synthetic
// AS1221-like ISP, wireless = random geometric graph with λ = 5), places
// monitors/paths once per topology, then runs many attack trials with fresh
// ground-truth delays, attacker placements and victims. Results are plain
// structs the bench binaries print as the paper's series.
//
// Trials fan out over a thread pool. Each trial owns a deterministically
// derived RNG stream — Rng(derive_seed(seed ⊕ kind salt, trial index)) — and
// a private copy of the topology's Scenario, so per-trial estimates and the
// folded aggregates are bitwise identical at every thread count (see
// DESIGN.md "Threading model"). `threads` = 0 runs on the process-global
// pool (ThreadPool::global()); any other value uses a dedicated pool of that
// size for the call.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "robust/checkpoint.hpp"
#include "util/execution.hpp"

namespace scapegoat {

enum class TopologyKind { kWireline, kWireless };

std::string to_string(TopologyKind k);

// Draws one topology of the given kind (see DESIGN.md §4 for the Rocketfuel
// substitution) and builds an identifiable scenario on it.
std::optional<Scenario> make_scenario(TopologyKind kind, Rng& rng,
                                      const ScenarioConfig& config = {},
                                      std::size_t redundant_paths = 8);

// A perfect cut grown around a connected region S of non-monitor nodes:
// S's boundary nodes are the attackers, S's internal links the perfectly
// cut victim candidates (Theorem 1).
struct PerfectCutSample {
  std::vector<NodeId> attackers;
  std::vector<LinkId> internal_links;
};

// Grows S by randomized BFS from a random non-monitor seed until it holds
// `target_size` nodes or runs out of non-monitor neighbors. nullopt when S
// has no internal link or no boundary.
std::optional<PerfectCutSample> grow_perfect_cut(const Scenario& sc,
                                                 std::size_t target_size,
                                                 Rng& rng);

// ---------------------------------------------------------------- Fig. 7 --

// threads/grain/seed come from the shared ExecutionPolicy base
// (util/execution.hpp). Each trial draws 1-6 attackers, as in the paper.
struct PresenceRatioOptions : ExecutionPolicy {
  PresenceRatioOptions() : ExecutionPolicy(0, /*grain=*/8, /*seed=*/7) {}

  std::size_t topologies = 2;          // independent topology draws
  std::size_t trials_per_topology = 400;
  std::size_t bins = 10;               // histogram bins over ratio (0, 1)

  // Crash-safety: checkpoint journal, per-trial watchdog budget, quarantine
  // retries (robust/checkpoint.hpp). Not part of the config hash — a journal
  // is resumable at any thread count or budget setting.
  robust::ResilienceOptions resilience;
};

struct PresenceRatioBin {
  double ratio_low = 0.0;   // bin covers (ratio_low, ratio_high]
  double ratio_high = 0.0;
  std::size_t trials = 0;
  std::size_t successes = 0;
  double probability() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(trials);
  }
};

struct PresenceRatioSeries {
  TopologyKind kind;
  std::vector<PresenceRatioBin> bins;  // last bin is the exact-1.0 perfect cut
  std::size_t total_trials = 0;
  // Resilience bookkeeping. `trials_quarantined` is stable across resumes
  // (a quarantined trial stays quarantined); `trials_replayed` counts this
  // session's journal hits and is therefore session-local. `interrupted`
  // means the run stopped resumably (signal or new-trial quota) and the
  // series is a prefix of the full experiment.
  std::size_t trials_replayed = 0;
  std::size_t trials_quarantined = 0;
  bool interrupted = false;
};

// Chosen-victim success probability vs attack presence ratio (Fig. 7).
PresenceRatioSeries run_presence_ratio_experiment(
    TopologyKind kind, const PresenceRatioOptions& opt);

// ---------------------------------------------------------------- Fig. 8 --

// Obfuscation succeeds at ≥ 5 victims, the §V-C2 bar.
struct SingleAttackerOptions : ExecutionPolicy {
  SingleAttackerOptions() : ExecutionPolicy(0, /*grain=*/4, /*seed=*/8) {}

  std::size_t topologies = 2;
  std::size_t trials_per_topology = 60;

  robust::ResilienceOptions resilience;  // see PresenceRatioOptions
};

struct SingleAttackerResult {
  TopologyKind kind;
  std::size_t trials = 0;
  std::size_t max_damage_successes = 0;
  std::size_t obfuscation_successes = 0;
  double max_damage_probability() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(max_damage_successes) / trials;
  }
  double obfuscation_probability() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(obfuscation_successes) / trials;
  }
  std::size_t trials_replayed = 0;     // see PresenceRatioSeries
  std::size_t trials_quarantined = 0;
  bool interrupted = false;
};

// Single-attacker maximum-damage and obfuscation success rates (Fig. 8).
SingleAttackerResult run_single_attacker_experiment(
    TopologyKind kind, const SingleAttackerOptions& opt);

// ---------------------------------------------------------------- Fig. 9 --

enum class AttackStrategy { kChosenVictim, kMaxDamage, kObfuscation };

std::string to_string(AttackStrategy s);

struct DetectionOptionsExperiment : ExecutionPolicy {
  DetectionOptionsExperiment() : ExecutionPolicy(0, /*grain=*/4, /*seed=*/9) {}

  std::size_t topologies = 2;
  std::size_t successful_attacks_per_cell = 30;  // per (strategy, cut) bucket
  std::size_t max_trials_per_cell = 4000;        // sampling budget
  double alpha = 200.0;                          // detector threshold (§V-D)

  robust::ResilienceOptions resilience;  // see PresenceRatioOptions
};

struct DetectionCell {
  AttackStrategy strategy;
  bool perfect_cut = false;
  std::size_t attacks = 0;
  std::size_t detected = 0;
  double detection_ratio() const {
    return attacks == 0 ? 0.0 : static_cast<double>(detected) / attacks;
  }
};

struct DetectionSeries {
  TopologyKind kind;
  std::vector<DetectionCell> cells;  // 3 strategies × {perfect, imperfect}
  std::size_t clean_trials = 0;      // no-attack runs fed to the detector
  std::size_t false_alarms = 0;
  std::size_t trials_replayed = 0;   // see PresenceRatioSeries
  std::size_t trials_quarantined = 0;
  bool interrupted = false;
};

// Detection ratios for all strategies under perfect/imperfect cuts (Fig. 9),
// plus the no-attack false-alarm check.
DetectionSeries run_detection_experiment(TopologyKind kind,
                                         const DetectionOptionsExperiment& opt);

}  // namespace scapegoat
