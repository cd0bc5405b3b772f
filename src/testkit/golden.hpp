// Fold fingerprints for the Monte-Carlo figure runners.
//
// Each fingerprint serializes every result field that the figure printers
// report — integers in decimal, doubles as IEEE-754 bit patterns
// (robust::encode_double_bits) — and CRC-32s the text. Two series fingerprint
// equal iff they are bitwise the same fold, which is exactly the determinism
// contract (DESIGN.md §7/§10). The golden-figure regression test pins these
// values so a refactor cannot silently re-baseline Figs. 7-9 or the fault
// sweep, the defender ablation or the loss-domain ablation.

#pragma once

#include <cstdint>

#include "core/defender_ablation.hpp"
#include "core/experiment.hpp"
#include "core/fault_experiment.hpp"

namespace scapegoat::testkit {

std::uint32_t fingerprint(const PresenceRatioSeries& series);
std::uint32_t fingerprint(const SingleAttackerResult& result);
std::uint32_t fingerprint(const DetectionSeries& series);
std::uint32_t fingerprint(const FaultSweepSeries& series);
std::uint32_t fingerprint(const AblationSeries& series);
std::uint32_t fingerprint(const LossAblationSeries& series);

}  // namespace scapegoat::testkit
