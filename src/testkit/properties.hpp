// The paper's differential properties as named, registry-exposed functions.
//
// Each property generates an instance from a Source and diffs a production
// code path against an independent oracle (oracles.hpp) or a stated theorem:
//
//   lp_simplex_matches_reference       two-phase simplex vs brute-force
//                                      vertex enumeration (small boxed LPs)
//   linalg_qr_matches_normal_equations QR least-squares vs the literal Eq. 2
//                                      normal-equations path vs a textbook
//                                      Gaussian-elimination reference
//   linalg_pinv_satisfies_moore_penrose  R⁺ vs the four Moore–Penrose axioms
//   linalg_rank_detects_deficiency     pivoted-QR rank vs constructed rank;
//                                      rank-deficient solves must refuse
//   attack_feasibility_matches_cut_condition  Theorem 1: perfect cut (checked
//                                      directly on the graph) ⇒ consistent
//                                      chosen-victim LP feasible ⇒ invisible
//                                      to Eq. 23 (Theorem 3)
//   attack_obfuscation_bisection_matches_descending_scan  the obfuscation
//                                      shrink vs a one-victim-at-a-time
//                                      descending scan, bitwise, in both
//                                      manipulation modes
//   detector_residual_matches_eq23     detect_scapegoating vs the literal
//                                      Σ|y − Rx̂| evaluation
//   tomography_cached_factorization_matches_fresh_qr  the least-squares
//                                      estimator's kept QR factorization vs
//                                      fresh least_squares / pseudo_inverse
//                                      of R, bitwise (G before path appends
//                                      only); construction factors once
//   tomography_row_append_update_matches_fresh_qr  G = R⁺ carried along
//                                      path appends by the row-append update
//                                      vs a fresh pseudo_inverse of the
//                                      grown R, within a stated tolerance;
//                                      bitwise independent of caching and
//                                      interleaved reads
//   tomography_left_null_basis_matches_fresh_qr  Nᵀ carried along path
//                                      appends: NᵀN = I, NᵀR = 0 and the
//                                      streaming residual N·Nᵀy vs the QR
//                                      residual y − R·x̂, within a stated
//                                      tolerance; bitwise independent of
//                                      caching and interleaved reads
//   tomography_incidence_rank_matches_mgs  path selection's exact rank test
//                                      on incidence rows vs floating-point
//                                      MGS, decision by decision, on paths
//                                      of generated graphs
//   tomography_sparse_matches_least_squares  equality-mode ℓ1 recovery vs
//                                      least squares on identifiable systems
//                                      with a planted k-sparse anomaly (the
//                                      feasible set is the singleton R⁺y, so
//                                      the families must coincide exactly)
//   checkpoint_resume_equivalence      save / interrupt / resume of a
//                                      generated experiment config folds to
//                                      the exact uninterrupted result
//
// The registry maps names to properties so corpus seed files
// (tests/corpus/*.seed) can be replayed generically by test_prop_corpus.

#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "testkit/runner.hpp"

namespace scapegoat::testkit {

struct NamedProperty {
  Property property;
  // CI iteration default when SCAPEGOAT_PROP_ITERS is unset; env budgets are
  // divided by `iters_divisor` for expensive properties so a raised nightly
  // budget scales every suite proportionally.
  std::size_t default_iters = 200;
  std::size_t iters_divisor = 1;
};

// Name → property. Stable names: corpus seed files reference them.
const std::map<std::string, NamedProperty>& property_registry();

// Convenience: run a registry property under its per-property env config.
PropertyOutcome check_registry_property(const std::string& name);

}  // namespace scapegoat::testkit
