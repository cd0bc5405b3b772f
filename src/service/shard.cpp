#include "service/shard.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "obs/obs.hpp"
#include "util/random.hpp"

namespace scapegoat::service {

namespace {

// Thrown when the supervisor's cooperative kill (request_abort) is honoured
// mid-batch or between batches; caught at the top of run() only.
struct ShardAbort {};

// Namespaced seed for topology-scoped journal record streams: windows and
// quarantines live in different index spaces, so each gets its own base.
std::uint64_t topology_stream_seed(std::uint64_t base, std::uint32_t topology,
                                   std::uint64_t tag) {
  return derive_seed(derive_seed(base, tag), topology);
}

constexpr std::uint64_t kWindowStreamTag = 0x77696e646f77ull;  // "window"
constexpr std::uint64_t kQuarantineStreamTag = 0x7175617261ull;  // "quara"

}  // namespace

std::string window_family(std::uint32_t topology) {
  std::string family = "w";
  family.append(std::to_string(topology));
  return family;
}

std::uint64_t window_record_seed(std::uint64_t base, std::uint32_t topology,
                                 std::uint64_t window_index) {
  return derive_seed(topology_stream_seed(base, topology, kWindowStreamTag),
                     window_index);
}

// ------------------------------------------------------- payload codec ---

std::string encode_window_payload(const WindowDecision& decision) {
  std::string out;
  out += "s=" + robust::encode_u64_hex(decision.next_seq);
  out += ";a=";
  out += decision.alarm ? '1' : '0';
  out += ";m=" + robust::encode_double_bits(decision.mean_residual_ms);
  out += ";r=";
  for (std::size_t i = 0; i < decision.residuals.size(); ++i) {
    if (i > 0) out += ',';
    out += robust::encode_double_bits(decision.residuals[i]);
  }
  return out;
}

std::optional<WindowDecision> decode_window_payload(
    std::uint32_t topology, std::uint64_t window_index,
    const std::string& payload) {
  std::string_view rest = payload;
  auto take = [&rest](std::string_view prefix) -> std::optional<std::string_view> {
    if (rest.substr(0, prefix.size()) != prefix) return std::nullopt;
    rest.remove_prefix(prefix.size());
    const std::size_t semi = rest.find(';');
    std::string_view field = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    return field;
  };

  WindowDecision d;
  d.topology = topology;
  d.window_index = window_index;

  const auto seq = take("s=");
  if (!seq) return std::nullopt;
  const auto seq_value = robust::decode_u64_hex(*seq);
  if (!seq_value) return std::nullopt;
  d.next_seq = *seq_value;

  const auto alarm = take("a=");
  if (!alarm || (*alarm != "0" && *alarm != "1")) return std::nullopt;
  d.alarm = *alarm == "1";

  const auto mean = take("m=");
  if (!mean) return std::nullopt;
  const auto mean_value = robust::decode_double_bits(*mean);
  if (!mean_value) return std::nullopt;
  d.mean_residual_ms = *mean_value;

  const auto residuals = take("r=");
  if (!residuals) return std::nullopt;
  std::string_view list = *residuals;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const auto value = robust::decode_double_bits(list.substr(0, comma));
    if (!value) return std::nullopt;
    d.residuals.push_back(*value);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  if (d.residuals.empty()) return std::nullopt;
  return d;
}

// --------------------------------------------------------------- shard ---

Shard::Shard(std::size_t index, IngestQueue& queue,
             const std::vector<const Scenario*>& catalog,
             const ServiceOptions& opt)
    : index_(index), queue_(queue), catalog_(catalog), opt_(opt) {
  if (!opt_.journal_path.empty())
    journal_path_ = opt_.journal_path + ".shard" + std::to_string(index_);
}

Shard::~Shard() {
  queue_.close();
  join();
}

robust::Status Shard::start() {
  join();  // idempotent; restart path joins the crashed worker first
  abort_.store(false, std::memory_order_relaxed);
  in_batch_.store(false, std::memory_order_relaxed);

  if (!journal_path_.empty()) {
    // Config-hash everything that shapes window decisions (threads and
    // queue sizing excluded — restart at a different capacity is fine).
    robust::ConfigHasher hasher;
    hasher.mix("service")
        .mix(opt_.seed)
        .mix(static_cast<std::uint64_t>(opt_.shards))
        .mix(static_cast<std::uint64_t>(opt_.window))
        .mix(static_cast<std::uint64_t>(opt_.stride))
        .mix(opt_.alpha_ms)
        .mix(static_cast<std::uint64_t>(opt_.growth.every))
        .mix(static_cast<std::uint64_t>(opt_.growth.max_extra))
        .mix(static_cast<std::uint64_t>(catalog_.size()));
    const bool resume = starts_ == 0 ? opt_.resume : true;
    auto opened = robust::CheckpointJournal::open(
        journal_path_, "service.shard" + std::to_string(index_),
        hasher.hash(), resume);
    if (!opened.ok()) return opened.error();
    journal_ = std::move(opened.value());
  }

  states_.clear();
  for (std::uint32_t t = 0; t < catalog_.size(); ++t) {
    if (t % opt_.shards != index_) continue;
    states_.emplace_back(t, catalog_[t]->estimator());
  }
  restore_states();

  ++starts_;
  phase_.store(Phase::kRunning, std::memory_order_release);
  thread_ = std::thread(&Shard::run, this);
  return robust::ok_status();
}

void Shard::restore_states() {
  if (!journal_) return;
  for (TopologyState& st : states_) {
    const std::string family = window_family(st.topology);
    for (std::uint64_t w = 0;; ++w) {
      const robust::TrialRecord* rec = journal_->find(family, w);
      if (rec == nullptr) break;
      // Cross-check the derived seed, exactly like the experiment runners:
      // a record from a differently-seeded run must not feed this one.
      if (rec->seed != window_record_seed(opt_.seed, st.topology, w)) break;
      auto decoded = decode_window_payload(st.topology, w, rec->payload);
      if (!decoded) break;
      st.decisions.push_back(std::move(*decoded));
    }
    if (st.decisions.empty()) continue;
    const WindowDecision& last = st.decisions.back();
    st.next_seq = last.next_seq;
    st.next_window = last.window_index + 1;
    st.residuals.assign(last.residuals.begin(), last.residuals.end());
    st.since_emit = 0;  // the restored window was just emitted
    obs::count("service.shard.windows_restored", st.decisions.size());
  }
}

void Shard::join() {
  if (thread_.joinable()) thread_.join();
}

Shard::TopologyState* Shard::state_for(std::uint32_t topology) {
  for (TopologyState& st : states_)
    if (st.topology == topology) return &st;
  return nullptr;
}

const Shard::TopologyState* Shard::state_for(std::uint32_t topology) const {
  for (const TopologyState& st : states_)
    if (st.topology == topology) return &st;
  return nullptr;
}

std::uint64_t Shard::resume_seq(std::uint32_t topology) const {
  const TopologyState* st = state_for(topology);
  return st == nullptr ? 0 : st->next_seq;
}

ShardCounters Shard::counters() const {
  ShardCounters c;
  c.processed = processed_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.malformed = malformed_.load(std::memory_order_relaxed);
  c.quarantined = quarantined_.load(std::memory_order_relaxed);
  c.windows = windows_.load(std::memory_order_relaxed);
  c.alarms = alarms_.load(std::memory_order_relaxed);
  return c;
}

const std::vector<WindowDecision>& Shard::decisions(
    std::uint32_t topology) const {
  static const std::vector<WindowDecision> kEmpty;
  const TopologyState* st = state_for(topology);
  return st == nullptr ? kEmpty : st->decisions;
}

void Shard::run() {
  try {
    while (true) {
      if (abort_.load(std::memory_order_relaxed)) throw ShardAbort{};
      std::optional<ProbeBatch> batch = queue_.pop_wait(abort_);
      if (abort_.load(std::memory_order_relaxed)) throw ShardAbort{};
      if (!batch) break;  // closed and drained: graceful exit
      in_batch_.store(true, std::memory_order_relaxed);
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
      TopologyState* st = state_for(batch->topology);
      if (st == nullptr) {
        // Mis-routed batch: counted, never silently dropped.
        malformed_.fetch_add(1, std::memory_order_relaxed);
        obs::count("service.batch.misrouted");
      } else {
        robust::Status status = process_batch(*st, *batch);
        if (!status.ok()) quarantine_batch(*st, *batch, status.error());
      }
      in_batch_.store(false, std::memory_order_relaxed);
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }
    if (journal_) journal_->flush();
    phase_.store(Phase::kStopped, std::memory_order_release);
  } catch (const ShardAbort&) {
    obs::count("service.shard.aborted");
    phase_.store(Phase::kCrashed, std::memory_order_release);
  } catch (const std::exception&) {
    // Anything escaping the batch loop parks the shard for the supervisor;
    // state up to the last flushed window is safe in the journal.
    obs::count("service.shard.crashed");
    phase_.store(Phase::kCrashed, std::memory_order_release);
  }
}

robust::Status Shard::process_batch(TopologyState& st,
                                    const ProbeBatch& batch) {
  if (opt_.fault_plan.crash_on_batch == batch.batch_id && !crash_fired_) {
    crash_fired_ = true;  // once per Shard object, or restarts would loop
    throw std::runtime_error("injected shard crash");
  }
  if (batch.seq < st.next_seq) {
    // At-least-once redelivery (producer retries, post-restart replays) is
    // absorbed here: the window state already contains this batch.
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    obs::count("service.batch.duplicate");
    return robust::ok_status();
  }

  ensure_growth(st, batch.seq);
  if (batch.y.size() != st.estimator->num_paths()) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    obs::count("service.batch.malformed");
    st.next_seq = batch.seq + 1;
    return robust::ok_status();
  }

  robust::Watchdog dog(robust::Budget{opt_.batch_budget_ms, 0});
  robust::ScopedTrialDeadline deadline(&dog);

  if (opt_.fault_plan.stall_on_batch == batch.batch_id) {
    // Injected wedge: recoverable through either supervision channel —
    // the batch budget (quarantine, shard lives) or the wedge detector's
    // abort (shard restarts from its journal).
    while (true) {
      if (abort_.load(std::memory_order_relaxed)) throw ShardAbort{};
      if (dog.armed() && dog.expired())
        return robust::Error{robust::ErrorCode::kIterationLimit,
                             "injected stall exceeded the batch budget"};
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  double residual_norm = 0.0;
  {
    obs::ScopedTimer timer("service.batch.solve_us");
    // Streaming hot path: the family's streaming residual (least squares:
    // N·(Nᵀy) through the cached left-null-space basis, no x̂ and no
    // per-batch factorization).
    residual_norm = st.estimator->streaming_residual(batch.y).norm1();
  }
  if (dog.armed() && dog.expired())
    return robust::Error{robust::ErrorCode::kIterationLimit,
                         "batch exceeded its watchdog budget"};

  st.residuals.push_back(residual_norm);
  if (st.residuals.size() > opt_.window) st.residuals.pop_front();
  st.next_seq = batch.seq + 1;
  ++st.since_emit;
  processed_.fetch_add(1, std::memory_order_relaxed);
  obs::observe("service.batch.residual_ms", residual_norm);

  if (st.residuals.size() == opt_.window && st.since_emit >= opt_.stride)
    emit_window(st);
  return robust::ok_status();
}

void Shard::ensure_growth(TopologyState& st, std::uint64_t seq) {
  const std::size_t want = grown_path_count(st.base_paths, opt_.growth, seq);
  while (st.estimator->num_paths() < want) {
    const std::size_t k = st.estimator->num_paths() - st.base_paths;
    // Copy: paths() is invalidated by the append below.
    const Path source =
        st.estimator->paths()[grown_path_source(st.base_paths, k)];
    if (!st.estimator->try_append_path(source).ok()) break;  // can't happen
    obs::count("service.paths.grown");
  }
}

void Shard::emit_window(TopologyState& st) {
  double sum = 0.0;
  for (double r : st.residuals) sum += r;

  WindowDecision d;
  d.topology = st.topology;
  d.window_index = st.next_window;
  d.next_seq = st.next_seq;
  d.mean_residual_ms = sum / static_cast<double>(st.residuals.size());
  d.alarm = d.mean_residual_ms > opt_.alpha_ms;  // Eq. 23, online form
  d.residuals.assign(st.residuals.begin(), st.residuals.end());

  if (journal_) {
    robust::TrialRecord rec;
    rec.family = window_family(st.topology);
    rec.index = d.window_index;
    rec.seed = window_record_seed(opt_.seed, st.topology, d.window_index);
    rec.payload = encode_window_payload(d);
    journal_->append(rec);
    journal_->flush();  // durability unit: one window decision
  }

  const bool alarm = d.alarm;
  st.decisions.push_back(std::move(d));
  ++st.next_window;
  st.since_emit = 0;
  windows_.fetch_add(1, std::memory_order_relaxed);
  obs::count("service.window.emitted");
  if (alarm) {
    alarms_.fetch_add(1, std::memory_order_relaxed);
    obs::count("service.window.alarm");
  }
}

void Shard::quarantine_batch(TopologyState& st, const ProbeBatch& batch,
                             const robust::Error& error) {
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  obs::count("service.batch.quarantined");
  if (journal_) {
    robust::QuarantineRecord rec;
    rec.family = "q";
    rec.family.append(std::to_string(st.topology));
    rec.index = batch.seq;
    rec.seed = derive_seed(
        topology_stream_seed(opt_.seed, st.topology, kQuarantineStreamTag),
        batch.seq);
    rec.code = error.code;
    rec.message = error.message;
    rec.attempts = 1;
    journal_->append(rec);
    journal_->flush();
  }
  // Accounted and skipped — the stream advances past the poisoned batch.
  st.next_seq = batch.seq + 1;
}

}  // namespace scapegoat::service
