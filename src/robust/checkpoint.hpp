// Crash-safe experiment checkpointing: an append-only, CRC-framed JSONL
// journal plus an atomically-replaced manifest.
//
// Layout on disk for `--checkpoint sweep.ckpt`:
//   sweep.ckpt            the journal — one CRC-framed JSON line per record
//   sweep.ckpt.manifest   tiny header naming the experiment and the config
//                         hash, written via temp+fsync+rename (atomic_file)
//
// Each journal line is `{"c":"<crc32 hex8>","r":<record>}` where the CRC
// covers the exact serialized `<record>` text. Appends go straight to the
// journal (append-only files survive crashes up to a torn tail; the CRC
// frame makes the tear detectable), and the loader accepts the longest
// valid prefix, reporting how many bytes/lines it had to drop. Resume
// truncates the journal back to that valid prefix before appending.
//
// Records are keyed by (family, index): `family` namespaces the per-runner
// index spaces ("trial" for the main trial stream, "clean"/"perfect"/
// "imperfect" for Fig. 9's three streams) and `index` is the global trial
// index the runner derives its RNG seed from. The derived seed is stored
// and cross-checked on replay, so a journal can never silently feed trial
// 17's result to a run whose seeding scheme changed. Payloads are opaque
// strings owned by the runner; doubles inside them are serialized as
// 16-hex-digit bit patterns (encode_double_bits) so a replayed trial is
// bitwise identical to a recomputed one.
//
// Quarantine records share the journal: a trial that kept exceeding its
// watchdog budget or returning an Expected error is recorded with its error
// taxonomy code and excluded from folds with an explicit count — never a
// silent drop, and never recomputed on resume (a poisoned trial stays
// quarantined until the operator deletes the journal).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "robust/expected.hpp"
#include "robust/watchdog.hpp"

namespace scapegoat::robust {

// IEEE CRC-32 (reflected, 0xEDB88320), the frame checksum.
std::uint32_t crc32(std::string_view data);

// Exact double round-trip through text: 16 lowercase hex digits of the IEEE
// bit pattern. Used inside journal payloads; never lossy, locale-proof.
std::string encode_double_bits(double value);
std::optional<double> decode_double_bits(std::string_view hex);
std::string encode_u64_hex(std::uint64_t value);
std::optional<std::uint64_t> decode_u64_hex(std::string_view hex);

// FNV-1a accumulator for config hashes: every option field that affects
// results (seed included, threads/grain excluded — resume at a different
// worker count is explicitly supported) gets mixed in a fixed order.
class ConfigHasher {
 public:
  ConfigHasher& mix(std::uint64_t v);
  ConfigHasher& mix(double v);  // by bit pattern
  ConfigHasher& mix(std::string_view s);
  std::uint64_t hash() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct TrialRecord {
  std::string family;    // index namespace within the experiment
  std::uint64_t index = 0;
  std::uint64_t seed = 0;  // derived seed, cross-checked on replay
  std::string payload;     // runner-owned serialization of the trial output
};

struct QuarantineRecord {
  std::string family;
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  ErrorCode code = ErrorCode::kIterationLimit;
  std::string message;
  std::size_t attempts = 0;  // how many times the trial was tried
};

// Serialized journal lines (exposed for tests; append() uses these).
std::string encode_journal_line(const TrialRecord& record);
std::string encode_journal_line(const QuarantineRecord& record);

struct JournalContents {
  using Key = std::pair<std::string, std::uint64_t>;  // (family, index)
  std::map<Key, TrialRecord> trials;
  std::map<Key, QuarantineRecord> quarantined;
  std::size_t dropped_lines = 0;  // CRC/parse rejects (torn tail, corruption)
  std::uint64_t valid_bytes = 0;  // longest valid prefix of the journal
};

// Reads a journal file, accepting the longest valid prefix. Missing file is
// an empty journal, not an error; unreadable file is kIoError.
Expected<JournalContents> read_journal(const std::string& path);

// One checkpoint session: open → find/append per trial → flush per block.
// Not thread-safe by design — the experiment runners only touch it from the
// serial fold, never from worker threads.
class CheckpointJournal {
 public:
  struct OpenInfo {
    bool resumed = false;         // prior records were accepted
    std::size_t prior_trials = 0;
    std::size_t prior_quarantined = 0;
    std::size_t dropped_lines = 0;  // torn/corrupt tail lines discarded
    std::string note;               // human-readable reason on fresh start
  };

  // Opens the session. With `resume`, prior records are loaded when the
  // manifest matches (experiment, config_hash); a missing or mismatched
  // manifest, or a corrupt journal head, falls back to a fresh journal —
  // recorded in OpenInfo::note, never fatal. Without `resume` any existing
  // journal is discarded. kIoError only when the files cannot be written.
  static Expected<std::unique_ptr<CheckpointJournal>> open(
      const std::string& path, const std::string& experiment,
      std::uint64_t config_hash, bool resume);

  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  const OpenInfo& info() const { return info_; }

  // Replay lookups. find() returns nullptr when the trial must be computed.
  const TrialRecord* find(std::string_view family, std::uint64_t index) const;
  const QuarantineRecord* find_quarantined(std::string_view family,
                                           std::uint64_t index) const;

  // Appends a record (buffered; call flush() at block boundaries). Records
  // for a (family, index) already present are skipped — replay never
  // duplicates a line.
  void append(const TrialRecord& record);
  void append(const QuarantineRecord& record);

  // Flushes buffered lines to the OS and fsyncs the journal. The unit of
  // durability: a crash after flush() loses nothing, a crash mid-block
  // loses at most the block (recomputed on resume).
  void flush();

 private:
  CheckpointJournal() = default;

  std::string path_;
  JournalContents contents_;
  OpenInfo info_;
  int fd_ = -1;           // append-mode journal descriptor
  std::string buffer_;    // lines staged since the last flush
};

// Retries of a trial whose watchdog budget expired; attempts before
// quarantine = 1 + kTrialRetries.
inline constexpr std::size_t kTrialRetries = 1;

// Resilience knobs shared by all four experiment runners (wired from
// `--checkpoint FILE` / `--resume` / `--trial-budget-ms` in the drivers).
struct ResilienceOptions {
  std::string checkpoint_path;  // empty = checkpointing off
  bool resume = false;          // replay completed trials from the journal
  Budget trial_budget;          // per-trial watchdog budget (0 = unlimited)
  // Stop (resumably) after computing this many new trials; 0 = no quota.
  // The kill/resume tests use it to stop at deterministic points; operators
  // can use it to slice a huge sweep into bounded sessions.
  std::size_t stop_after_new_trials = 0;
};

}  // namespace scapegoat::robust
