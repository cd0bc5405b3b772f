// Shared plumbing of the end-to-end benchmark: clocks, quantiles, the
// outcome fingerprint, the in-memory span recorder and the result record
// every workload fills in.
//
// Spans are recorded by the benchmark itself, around its calls into each
// layer's public API; nothing inside the library is instrumented for it.
// They are kept in memory and written out once, at the end of a traced run.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
// the sample is empty.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Smallest value of a non-empty sample.
inline double min_of(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

// FNV-1a over 64-bit words: the outcome fingerprint two runs of the same
// seed must agree on bit for bit.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Single-threaded span recorder. Each span carries the operation (trial,
// build, batch) it belongs to and the span that encloses it, so a layer's
// self time is its duration minus what its child spans cover. When off,
// a scope costs one branch and records nothing.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    int index_;
  };

  void enable(bool on) { on_ = on; }
  // Tags the spans opened from now on with operation id `op`.
  void set_op(std::uint64_t op) { op_ = op; }

  // `layer` must be a string literal ("attack.max_damage", ...).
  [[nodiscard]] Scope span(const char* layer);

  // Self time per layer, seconds.
  std::map<std::string, double> self_seconds() const;
  std::size_t size() const { return spans_.size(); }
  // One JSON object per span: name, op, parent, start/end in µs from the
  // first span.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* layer;
    std::uint64_t op;
    int parent;
    Clock::time_point start, end;
  };
  void close(int index);

  bool on_ = false;
  std::uint64_t op_ = 0;
  int open_ = -1;
  std::deque<Record> spans_;  // no reallocation stalls mid-run
};

// What a workload run reports. `metrics` holds the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced run, by name; units live
// in BENCHMARK.json.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> notes;  // human-readable lines printed before JSON
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;        // self-test sizes
  std::string trace_path;   // where a traced run writes its spans
};

// Adds the per-layer metrics every traced run reports: the self time of each
// span layer, the remainder, and every counter of the registry that was
// installed while the traced part ran.
void add_trace_metrics(RunResult& out, const Spans& spans, double traced_wall,
                       double untraced_wall,
                       const scapegoat::obs::MetricsSnapshot& snapshot);

// Peak resident set size of this process, MB.
double peak_rss_mb();

// One paper-size wireline deployment (AS1221-like ISP, ~160 links; a
// ~40-link one when `tiny`), built stage by stage through the public API
// with a span around each stage: graph → place_monitors → estimator →
// first pseudo-inverse. The graph comes from `topology_seed`, the monitor
// placement from `placement_seed`, the ground-truth delays from
// `metrics_seed`. nullopt if placement did not reach identifiability.
std::optional<scapegoat::Scenario> build_wireline(std::uint64_t topology_seed,
                                                  std::uint64_t placement_seed,
                                                  std::uint64_t metrics_seed,
                                                  bool tiny, Spans& spans);

// Fixed topology seeds: every seed of a workload measures the same graphs,
// so set-up and build work do not swing with the seed.
inline constexpr std::uint64_t kTopologySeeds[] = {1221, 1239, 3257, 3967};

// Checks deployment `t` (of kTopologySeeds) after set-up: the estimator is
// ok(), it has at least one path per link, and its path and monitor counts
// are the ones this fixed graph and placement stream give. A change to
// monitor placement that alters them changes what every workload measures,
// so it must update the table in common.cpp. Returns the failed checks.
std::uint64_t check_deployment(const scapegoat::Scenario& sc, std::size_t t,
                               bool tiny);

RunResult run_paper_trials(const RunOptions& opt);
RunResult run_service_stream(const RunOptions& opt);

}  // namespace perfbench
