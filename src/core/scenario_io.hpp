// Scenario persistence: a line-oriented text format capturing everything a
// deployment needs to be reproduced elsewhere — topology, monitors, the
// exact measurement paths, ground-truth metrics and thresholds. Used by the
// CLI (--save/--load) so an attack found once can be re-examined later or
// shared as a test fixture.
//
// Format (version header, then sections, '#' comments allowed):
//   scapegoat-scenario 1
//   nodes <N>
//   links <M>            followed by M lines "u v"
//   monitors <k>         followed by one line of k node ids
//   paths <P>            followed by P lines "n v0 v1 ... v(n-1)"
//   metrics <M>          followed by one line of M doubles
//   config <delay_min> <delay_max> <b_l> <b_u> <cap> <margin>

#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "core/scenario.hpp"
#include "robust/expected.hpp"

namespace scapegoat {

void save_scenario(std::ostream& out, const Scenario& scenario);
bool save_scenario_file(const std::string& path, const Scenario& scenario);

// Parses a saved scenario with a typed diagnostic on failure: kParseError
// for malformed/truncated sections (the message names the section),
// kInvalidInput for absurd header counts (guards against corrupted files
// demanding gigabyte allocations) or non-identifiable recorded paths, and
// kIoError when the file can't be opened. `try_` is the repo-wide prefix
// for Expected-returning variants (DESIGN.md §9).
robust::Expected<Scenario> try_load_scenario(std::istream& in);
robust::Expected<Scenario> try_load_scenario_file(const std::string& path);

// Convenience wrappers that collapse the diagnostic to nullopt.
std::optional<Scenario> load_scenario(std::istream& in);
std::optional<Scenario> load_scenario_file(const std::string& path);

}  // namespace scapegoat
