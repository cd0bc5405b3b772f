// Minimal command-line flag parser for the CLI tool and benches.
//
// Supports `--flag value`, `--flag=value`, boolean `--flag`, and one
// positional command word. Unknown flags are collected as errors so tools
// can fail fast with a usage message.

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/execution.hpp"

namespace scapegoat {

// Largest worker count `--threads` accepts. A count is outside input: above
// this, a typo such as `--threads 1000000` would ask the pool to start that
// many OS threads.
inline constexpr std::size_t kMaxThreads = 256;

class ArgParser {
 public:
  // argv-style input; argv[0] is skipped.
  ArgParser(int argc, const char* const* argv);

  // First non-flag token ("attack", "fig7", ...), if any.
  const std::optional<std::string>& command() const { return command_; }

  bool has(const std::string& flag) const;

  // Typed getters; return `fallback` when the flag is absent. Parse errors
  // are recorded in errors().
  std::string get_string(const std::string& flag,
                         const std::string& fallback = "");
  long get_int(const std::string& flag, long fallback = 0);
  double get_double(const std::string& flag, double fallback = 0.0);
  bool get_bool(const std::string& flag) {
    consumed_[flag] = true;
    return has(flag);
  }

  // Comma-separated integer list, e.g. --attackers 3,17,42.
  std::vector<long> get_int_list(const std::string& flag);

  // Standard `--threads N` flag shared by the benches and the CLI: absent
  // means "auto" (hardware concurrency, returned as 0); an explicit zero,
  // negative, malformed or above-kMaxThreads value is recorded as an error
  // and also returns 0. Feed the result to ThreadPool::set_global_threads or
  // an experiment options struct.
  std::size_t get_threads(const std::string& flag = "threads");

  // Comma-separated list of thread counts (`--threads 1,2,4`), each held to
  // get_threads' range. Empty when absent or when any entry is refused.
  std::vector<std::size_t> get_thread_list(const std::string& flag = "threads");

  // The one call a bench/CLI main makes to honour the shared execution
  // flags: sizes the process-global pool from `--threads` (absent = auto)
  // and overrides `exec.grain` / `exec.seed` when `--grain` / `--seed` are
  // given; a grain of zero or less is refused and the default kept.
  // `exec.threads` is left at 0 so the runner uses the global pool. Works on
  // any options struct deriving ExecutionPolicy.
  void apply_execution(ExecutionPolicy& exec);

  const std::vector<std::string>& errors() const { return errors_; }

  // Flags that were provided but never queried (likely typos); call after
  // all get_* calls.
  std::vector<std::string> unused() const;

 private:
  // `flag` as a count in [1, max]; nullopt when absent or refused (the
  // refusal is recorded in errors()).
  std::optional<std::size_t> get_count(const std::string& flag,
                                       std::size_t max,
                                       const std::string& noun);
  // Records an error unless 1 ≤ v ≤ max; `raw` is the text as typed.
  bool check_count(const std::string& flag, long v, std::size_t max,
                   const std::string& noun, const std::string& raw);

  std::optional<std::string> command_;
  std::map<std::string, std::string> flags_;  // name → raw value ("" = bare)
  std::map<std::string, bool> consumed_;
  mutable std::vector<std::string> errors_;
};

}  // namespace scapegoat
