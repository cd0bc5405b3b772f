// Per-figure reproduction drivers.
//
// Each run_figN() executes the paper's experiment for that figure and
// returns a plain data struct; each print_figN() renders the same
// rows/series the paper reports. The bench binaries and examples are thin
// wrappers around these, so the numbers in EXPERIMENTS.md come from exactly
// one code path.

#pragma once

#include <iosfwd>

#include "attack/manipulation.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "detect/detector.hpp"

namespace scapegoat {

// -------- Fig. 2: qualitative per-link delay profiles, three strategies ---

struct Fig2Result {
  Vector chosen_victim;  // per-link x̂ under each strategy (Fig. 1 network)
  Vector max_damage;
  Vector obfuscation;
  std::vector<LinkId> cv_victims, md_victims, ob_victims;
};
Fig2Result run_fig2(std::uint64_t seed = 2);
void print_fig2(const Fig2Result& r, std::ostream& os);

// -------- Fig. 4: chosen-victim on link 10 of the Fig. 1 network ----------

struct Fig4Result {
  AttackResult attack;          // victim = paper link 10 (imperfect cut)
  Vector x_true;
  double avg_path_delay = 0.0;  // mean observed end-to-end delay (paper: 820.87)
  bool perfect_cut = false;     // paper: false
  DetectionOutcome detection;   // Theorem 3 ⇒ detectable
};
Fig4Result run_fig4(std::uint64_t seed = 4);
void print_fig4(const Fig4Result& r, std::ostream& os);

// -------- Fig. 5: maximum-damage on the Fig. 1 network --------------------

struct Fig5Result {
  AttackResult attack;
  Vector x_true;
  std::vector<std::pair<LinkId, double>> single_victim_damages;
  double avg_path_delay = 0.0;  // paper: 1239.4 ms
};
Fig5Result run_fig5(std::uint64_t seed = 5);
void print_fig5(const Fig5Result& r, std::ostream& os);

// -------- Fig. 6: obfuscation on the Fig. 1 network -----------------------

struct Fig6Result {
  AttackResult attack;
  Vector x_true;
  std::size_t uncertain_links = 0;  // paper: all 10 links in the band
};
Fig6Result run_fig6(std::uint64_t seed = 6);
void print_fig6(const Fig6Result& r, std::ostream& os);

// -------- Figs. 7-9 printers (runners live in experiment.hpp) -------------

// Resilience annotations every Monte-Carlo printout ends with (figures,
// fault sweep, ablations): quarantined trials are excluded from every
// aggregate but never silent, replayed trials are counted, and an
// interrupted series is labelled as a resumable prefix with the resume hint.
void print_resilience_notes(std::size_t quarantined, std::size_t replayed,
                            bool interrupted, std::ostream& os);

void print_fig7(const PresenceRatioSeries& wireline,
                const PresenceRatioSeries& wireless, std::ostream& os);
void print_fig8(const SingleAttackerResult& wireline,
                const SingleAttackerResult& wireless, std::ostream& os);
void print_fig9(const DetectionSeries& series, std::ostream& os);

}  // namespace scapegoat
