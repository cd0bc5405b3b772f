// Observability entry points — the one header instrumented code includes.
//
// A process has at most one active MetricsRegistry and one active TraceSink,
// installed by `ScopedInstrumentation` (RAII: previous installation restored
// on destruction, so scopes nest). When nothing is installed every helper
// below is a relaxed atomic load plus an untaken branch — the "NullSink"
// configuration the hot paths are allowed to keep permanently (measured
// < 1% on bench_fig7; see EXPERIMENTS.md "Observability"). Instrumented code
// therefore never checks a build flag: it calls `obs::count(...)`,
// `obs::ScopedTimer t("x.y_us")`, `obs::ScopedSpan span("x.solve")`
// unconditionally.
//
// Conventions (DESIGN.md §9):
//   * metric names are dot-separated, lowest subsystem first
//     ("lp.simplex.iterations", "linalg.qr.factorize_us"),
//   * duration histograms end in `_us` and record microseconds,
//   * counters under "pool." are scheduling-dependent and excluded from the
//     cross-thread-count determinism contract; every other counter must fold
//     to the same value at any worker count.
//
// Installation is process-global and not synchronized against concurrent
// installs: construct/destroy ScopedInstrumentation from a single thread,
// outside parallel regions (the same discipline ThreadPool::
// set_global_threads already requires).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scapegoat::obs {

namespace detail {
inline std::atomic<MetricsRegistry*> g_metrics{nullptr};
inline std::atomic<TraceSink*> g_sink{nullptr};

inline std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

inline std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}
}  // namespace detail

// Active registry / sink; nullptr when instrumentation is off.
inline MetricsRegistry* metrics() {
  return detail::g_metrics.load(std::memory_order_acquire);
}
inline TraceSink* trace_sink() {
  return detail::g_sink.load(std::memory_order_acquire);
}
inline bool metrics_enabled() { return metrics() != nullptr; }
inline bool tracing() { return trace_sink() != nullptr; }

// Installs a registry (and optionally a sink) for the current scope.
class ScopedInstrumentation {
 public:
  explicit ScopedInstrumentation(MetricsRegistry& registry,
                                 TraceSink* sink = nullptr)
      : prev_metrics_(metrics()), prev_sink_(trace_sink()) {
    detail::g_metrics.store(&registry, std::memory_order_release);
    detail::g_sink.store(sink, std::memory_order_release);
  }
  ~ScopedInstrumentation() {
    detail::g_metrics.store(prev_metrics_, std::memory_order_release);
    detail::g_sink.store(prev_sink_, std::memory_order_release);
  }
  ScopedInstrumentation(const ScopedInstrumentation&) = delete;
  ScopedInstrumentation& operator=(const ScopedInstrumentation&) = delete;

 private:
  MetricsRegistry* prev_metrics_;
  TraceSink* prev_sink_;
};

// ------------------------------------------------------- cheap helpers --

inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* m = metrics()) m->counter(name).add(delta);
}

inline void observe(std::string_view name, double value) {
  if (MetricsRegistry* m = metrics()) m->histogram(name).observe(value);
}

inline void gauge_set(std::string_view name, std::int64_t value) {
  if (MetricsRegistry* m = metrics()) m->gauge(name).set(value);
}

inline void gauge_max(std::string_view name, std::int64_t value) {
  if (MetricsRegistry* m = metrics()) m->gauge(name).record_max(value);
}

// RAII timer recording elapsed microseconds into histogram `name`. The
// registry is captured at construction, so the timer stays valid across a
// ScopedInstrumentation boundary. `name` must outlive the timer (pass a
// string literal).
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : registry_(metrics()), name_(name) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Records now and disarms; returns the elapsed µs (0 when disabled).
  double stop() {
    if (registry_ == nullptr) return 0.0;
    const double us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - start_)
            .count();
    registry_->histogram(name_).observe(us);
    registry_ = nullptr;
    return us;
  }

 private:
  MetricsRegistry* registry_;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

// RAII trace span: captures the sink at construction, emits one TraceEvent
// on destruction. Inert (no allocation, no clock reads) when tracing is
// off. Attributes added while inert are dropped.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : sink_(trace_sink()) {
    if (sink_ == nullptr) return;
    event_.name = std::string(name);
    event_.thread_id = this_thread_id();
    event_.start_us = detail::now_us();
  }
  ~ScopedSpan() {
    if (sink_ == nullptr) return;
    event_.duration_us = detail::now_us() - event_.start_us;
    sink_->write(event_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return sink_ != nullptr; }

  void attr(std::string_view key, std::string_view value) {
    if (sink_ == nullptr) return;
    event_.attrs.emplace_back(std::string(key), std::string(value));
  }
  void attr(std::string_view key, std::uint64_t value) {
    if (sink_ != nullptr) attr(key, std::to_string(value));
  }
  void attr(std::string_view key, double value) {
    if (sink_ != nullptr) attr(key, std::to_string(value));
  }

 private:
  TraceSink* sink_;
  TraceEvent event_;
};

}  // namespace scapegoat::obs
