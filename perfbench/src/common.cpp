#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "tomography/monitor_placement.hpp"
#include "topology/isp.hpp"

namespace perfbench {

using namespace scapegoat;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Fingerprint::mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

Spans::Scope Spans::span(const char* layer) {
  if (!on_) return Scope(nullptr, -1);
  spans_.push_back(Record{layer, op_, open_, Clock::now(), {}});
  open_ = static_cast<int>(spans_.size() - 1);
  return Scope(this, open_);
}

void Spans::close(int index) {
  Record& r = spans_[static_cast<std::size_t>(index)];
  r.end = Clock::now();
  open_ = r.parent;
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0)
      child[static_cast<std::size_t>(r.parent)] +=
          std::chrono::duration<double>(r.end - r.start).count();
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur =
        std::chrono::duration<double>(spans_[i].end - spans_[i].start).count();
    self[spans_[i].layer] += dur - child[i];
  }
  return self;
}

bool Spans::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point t0 =
      spans_.empty() ? Clock::now() : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, r.layer, static_cast<unsigned long long>(r.op), r.parent,
                  us(r.start), us(r.end));
    out << line;
  }
  return static_cast<bool>(out);
}

void add_trace_metrics(RunResult& out, const Spans& spans, double traced_wall,
                       double untraced_wall,
                       const obs::MetricsSnapshot& snapshot) {
  double covered = 0.0;
  for (const auto& [layer, s] : spans.self_seconds()) {
    out.metrics[layer + "_s"] = s;
    covered += s;
  }
  // Time of the traced part spent outside every span: the benchmark's own
  // loop, clock reads and bookkeeping. Self times plus this add up to the
  // traced wall time.
  out.metrics["bench.other_s"] = traced_wall - covered;
  out.metrics["trace.wall_s"] = traced_wall;
  out.metrics["trace.untraced_wall_s"] = untraced_wall;
  out.metrics["trace.overhead_s"] = traced_wall - untraced_wall;
  out.metrics["trace.spans"] = static_cast<double>(spans.size());
  for (const obs::CounterSample& c : snapshot.counters)
    out.metrics[c.name] = static_cast<double>(c.value);
  const obs::HistogramSample* solve =
      snapshot.histogram("service.batch.solve_us");
  out.metrics["service.batch.solve_p50_us"] =
      solve == nullptr ? 0.0 : solve->quantile(0.5);
  out.metrics["service.batch.solve_p99_us"] =
      solve == nullptr ? 0.0 : solve->quantile(0.99);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a benchmark started from a larger parent (the Python runner) would
  // report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
  }
  return 0.0;
}

std::optional<Scenario> build_wireline(std::uint64_t topology_seed,
                                       std::uint64_t placement_seed,
                                       std::uint64_t metrics_seed, bool tiny,
                                       Spans& spans) {
  Graph g;
  {
    auto s = spans.span("topology.generate");
    IspParams params;  // the paper's AS1221-like defaults
    if (tiny) {
      params.num_backbone = 8;
      params.num_access = 20;
    }
    Rng rng(topology_seed);
    g = isp_topology(params, rng);
  }
  MonitorPlacementResult placement;
  {
    auto s = spans.span("tomography.place_monitors");
    MonitorPlacementOptions opt;
    opt.path_options.redundant_paths = 8;  // as make_scenario
    Rng rng(placement_seed);
    placement = place_monitors(g, opt, rng);
  }
  if (!placement.identifiable) return std::nullopt;
  const std::size_t links = g.num_links();
  std::optional<Scenario> sc;
  {
    auto s = spans.span("tomography.estimator_build");
    sc = Scenario::restore(std::move(g), std::move(placement.monitors),
                           std::move(placement.paths), Vector(links));
  }
  if (!sc) return std::nullopt;
  {
    auto s = spans.span("tomography.pinv");
    sc->estimator().pseudo_inverse();
  }
  Rng rng(metrics_seed);
  sc->resample_metrics(rng);
  return sc;
}

namespace {

struct Deployment {
  std::size_t paths, monitors;
};

// Path and monitor counts of the fixed deployments, per kTopologySeeds
// entry, at full and tiny size.
constexpr Deployment kDeployments[2][std::size(kTopologySeeds)] = {
    {{163, 85}, {169, 84}, {168, 84}, {164, 84}},
    {{57, 24}, {53, 24}, {59, 24}, {58, 24}},
};

}  // namespace

std::uint64_t check_deployment(const Scenario& sc, std::size_t t, bool tiny) {
  const Estimator& est = sc.estimator();
  const Deployment& want = kDeployments[tiny ? 1 : 0][t];
  std::uint64_t failed = 0;
  if (!est.ok()) ++failed;
  if (est.num_paths() < est.num_links()) ++failed;
  if (est.num_paths() != want.paths) ++failed;
  if (sc.monitors().size() != want.monitors) ++failed;
  return failed;
}

}  // namespace perfbench
