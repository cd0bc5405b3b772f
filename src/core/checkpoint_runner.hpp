// The Monte-Carlo trial engine every experiment driver runs on: journal
// session lifecycle, replay and quarantine, guarded parallel trial
// execution with retry-then-quarantine, the serial trial-order fold, and
// the stop conditions (SIGINT/SIGTERM, new-trial quota) that make a sweep
// resumable instead of lost.
//
// A driver draws its topologies with draw_topology, then hands the engine
// blocks of trials. A block is a range of global trial indices in one
// journal family; trial `index` runs on its own stream
// Rng(derive_seed(seed_base, index)) and a per-chunk private copy of the
// topology's Scenario, so the folded series is bitwise identical at every
// thread count and across any kill/resume interleaving (DESIGN.md §7/§10).
//
// Trial outputs travel through the journal via two overloads the driver
// declares next to its output type, found by argument-dependent lookup:
//   std::string encode_trial(const Out&);
//   bool decode_trial(std::string_view payload, Out&);  // false = recompute
//
// Internal to src/core; not part of the public surface.

#pragma once

#include <charconv>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "robust/checkpoint.hpp"
#include "robust/watchdog.hpp"
#include "util/execution.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace scapegoat::internal {

// Draws topology t of a run on the stream derive_seed(base ^ salt, t) and
// pre-computes the estimator's lazily cached pseudo-inverse, so the
// per-chunk Scenario copies the engine hands to worker threads are plain
// value copies with no shared lazy state.
std::optional<Scenario> draw_topology(TopologyKind kind, std::uint64_t base,
                                      std::uint64_t salt, std::size_t t);

// Payload helpers for trial outputs that are tuples of unsigned integers:
// ':'-separated decimal fields. split_u64_fields accepts exactly `count`
// fields and nothing else.
inline void append_u64_field(std::string& s, std::uint64_t v) {
  if (!s.empty()) s += ':';
  s += std::to_string(v);
}

inline bool split_u64_fields(std::string_view payload, std::uint64_t* out,
                             std::size_t count) {
  std::size_t field = 0;
  const char* p = payload.data();
  const char* end = p + payload.size();
  while (field < count) {
    std::uint64_t value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc() || next == p) return false;
    out[field++] = value;
    p = next;
    if (field < count) {
      if (p == end || *p != ':') return false;
      ++p;
    }
  }
  return field == count && p == end;
}

// Outcome of guarded execution for one computed trial.
struct GuardOutcome {
  bool quarantined = false;
  std::size_t attempts = 1;
};

// Runs one trial attempt function under the per-trial watchdog budget,
// retrying (robust::kTrialRetries times) with an identical derived RNG
// stream when the budget expires, then quarantining. `attempt_fn(rng)` must
// fully overwrite its outputs on every attempt (trials re-derive all
// randomized state from the rng, so a retry is bitwise-equivalent to a fresh
// first attempt).
template <typename Fn>
GuardOutcome run_trial_guarded(const robust::Budget& budget,
                               std::uint64_t seed, Fn&& attempt_fn) {
  GuardOutcome out;
  for (std::size_t attempt = 0;; ++attempt) {
    robust::Watchdog dog(budget);
    robust::ScopedTrialDeadline scope(&dog);
    Rng rng(seed);
    attempt_fn(rng);
    out.attempts = attempt + 1;
    if (!dog.expired()) return out;
    if (attempt >= robust::kTrialRetries) {
      out.quarantined = true;
      return out;
    }
    obs::count("ckpt.trial_retries");
  }
}

// One block of trials: global indices [first, first + size) in `family`.
struct TrialBlock {
  std::string_view family;
  std::uint64_t first = 0;
  std::size_t size = 0;
  std::uint64_t seed_base = 0;  // trial index i runs on derive_seed(., i)
  std::string_view span = {};   // trace span per computed trial; empty = none
};

// One checkpointed run: the worker pool, the journal (absent when
// checkpointing is off) and the stop conditions. Construct and call
// run_block from one thread.
class CheckpointedRun {
 public:
  CheckpointedRun(const ExecutionPolicy& exec,
                  const robust::ResilienceOptions& opt,
                  const std::string& experiment, std::uint64_t config_hash)
      : opt_(opt), grain_(exec.grain), pool_(&acquire_pool(exec, owned_)) {
    if (opt.checkpoint_path.empty()) return;
    auto opened = robust::CheckpointJournal::open(
        opt.checkpoint_path, experiment, config_hash, opt.resume);
    if (!opened.ok()) {
      // A sweep that cannot journal is still a correct sweep; warn the
      // operator that resumability is gone and carry on.
      std::cerr << "warning: checkpointing disabled: "
                << opened.error_message() << '\n';
      obs::count("ckpt.open_errors");
      return;
    }
    journal_ = std::move(*opened);
    if (!journal_->info().note.empty())
      std::cerr << "note: checkpoint: " << journal_->info().note << '\n';
  }

  // Runs one block on topology `sc`:
  //   1. serial prepass — journaled trials replay, quarantined trials stay
  //      quarantined, only the rest are computed;
  //   2. parallel compute — `trial(local, index, rng)` returns the trial's
  //      output, under the watchdog budget, on a per-chunk Scenario copy;
  //   3. serial fold in trial order — records new results and quarantines,
  //      counts replays, and calls `fold(i, out)` for every trial i of the
  //      block (0-based position) that is not quarantined;
  //   4. flush (the durability point: a crash after it recomputes nothing
  //      from this block) and the stop check.
  // Returns false when the sweep must stop resumably; interrupted() then
  // stays true.
  template <typename Trial, typename Fold>
  bool run_block(const Scenario& sc, const TrialBlock& block, Trial&& trial,
                 Fold&& fold);

  bool interrupted() const { return interrupted_; }

  // Copies the resilience bookkeeping into a driver's result struct.
  // `trials_quarantined` is stable across resumes (a quarantined trial stays
  // quarantined); `trials_replayed` counts this session's journal hits.
  template <typename Series>
  void report(Series& series) const {
    series.trials_replayed = replayed_;
    series.trials_quarantined = quarantined_;
    series.interrupted = interrupted_;
  }

 private:
  enum class Slot : char { kCompute = 0, kReplayed, kQuarantined };

  robust::ResilienceOptions opt_;
  std::size_t grain_;
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
  std::unique_ptr<robust::CheckpointJournal> journal_;
  std::size_t new_trials_ = 0;  // computed (not replayed) this session
  std::size_t replayed_ = 0;
  std::size_t quarantined_ = 0;
  bool interrupted_ = false;
};

template <typename Trial, typename Fold>
bool CheckpointedRun::run_block(const Scenario& sc, const TrialBlock& block,
                                Trial&& trial, Fold&& fold) {
  using Out = std::decay_t<
      std::invoke_result_t<Trial&, Scenario&, std::uint64_t, Rng&>>;
  const std::size_t n = block.size;
  std::vector<Out> outs(n);
  std::vector<Slot> slots(n, Slot::kCompute);
  std::vector<GuardOutcome> guards(n);
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t idx = block.first + i;
    seeds[i] = derive_seed(block.seed_base, idx);
    if (journal_ == nullptr) continue;
    // The recorded derived seed must match this run's — a journal whose
    // seeding scheme drifted is recomputed, never trusted.
    const robust::TrialRecord* rec = journal_->find(block.family, idx);
    if (rec != nullptr && rec->seed == seeds[i] &&
        decode_trial(rec->payload, outs[i])) {
      slots[i] = Slot::kReplayed;
    } else if (journal_->find_quarantined(block.family, idx) != nullptr) {
      slots[i] = Slot::kQuarantined;
    }
  }
  pool_->parallel_for(0, n, grain_, [&](std::size_t lo, std::size_t hi) {
    Scenario local = sc;  // private copy: trials may resample its metrics
    for (std::size_t i = lo; i < hi; ++i) {
      if (slots[i] != Slot::kCompute) continue;
      const std::uint64_t idx = block.first + i;
      std::optional<obs::ScopedSpan> span;
      if (!block.span.empty()) span.emplace(block.span);
      guards[i] = run_trial_guarded(
          opt_.trial_budget, seeds[i],
          [&](Rng& rng) { outs[i] = trial(local, idx, rng); });
      if (span) span->attr("trial", idx);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t idx = block.first + i;
    const bool quarantined =
        slots[i] == Slot::kQuarantined ||
        (slots[i] == Slot::kCompute && guards[i].quarantined);
    if (slots[i] == Slot::kCompute) {
      ++new_trials_;
      if (journal_ != nullptr && quarantined) {
        journal_->append(robust::QuarantineRecord{
            std::string(block.family), idx, seeds[i],
            robust::ErrorCode::kIterationLimit,
            "trial watchdog budget expired", guards[i].attempts});
      } else if (journal_ != nullptr) {
        journal_->append(robust::TrialRecord{std::string(block.family), idx,
                                             seeds[i], encode_trial(outs[i])});
      }
    }
    if (quarantined) {
      ++quarantined_;
      obs::count("ckpt.trials_quarantined");
      continue;
    }
    if (slots[i] == Slot::kReplayed) {
      ++replayed_;
      obs::count("ckpt.trials_replayed");
    }
    fold(i, outs[i]);
  }
  if (journal_ != nullptr) journal_->flush();
  // Stop resumably on an operator signal or once the new-trial quota is
  // spent.
  interrupted_ = robust::shutdown_requested() ||
                 (opt_.stop_after_new_trials != 0 &&
                  new_trials_ >= opt_.stop_after_new_trials);
  return !interrupted_;
}

}  // namespace scapegoat::internal
