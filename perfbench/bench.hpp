#pragma once
// ssdbench: the end-to-end benchmark of the ssdfail daily loop.
//
// Three workloads drive the public functions of store, core, ml,
// robustness, daemon and online; perfbench/run.py builds this binary and
// passes its command-line arguments through.  Everything here is harness code:
// inputs are generated from --seed, each unit of work is checked against
// an oracle, and spans are recorded around the calls into each layer.
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/fleet_observation.hpp"
#include "daemon/compactor.hpp"
#include "daemon/daemon.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "online/retrainer.hpp"
#include "sim/fleet_simulator.hpp"

namespace perfbench {

using namespace ssdfail;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Sizes.  One fixed configuration: every workload runs the same mixed fleet
// (MLC-A/B/D, HDD, NVMe), so all four class counters and zone-map class
// pruning are exercised.
struct Sizes {
  std::uint32_t drives_per_model = 160;
  std::uint32_t chunk_drives = 64;      ///< v3 chunk size (drives)
  std::uint32_t drives_per_shard = 256; ///< store shard split
  std::size_t daemon_shards = 2;
  std::size_t ring_capacity = 1024;
  std::size_t max_batch = 256;
  std::uint64_t wal_rotate_bytes = 4u << 20;
  double fault_rate = 0.002;            ///< FaultInjector corruption per record
  std::size_t forest_trees = 100;
  std::size_t folds = 5;
};

/// The dataset protocol shared by the retrain round and the served model:
/// N = 1, negatives kept with p = 0.02 (Section 5.1).
[[nodiscard]] core::DatasetBuildOptions dataset_options(std::uint64_t seed);
[[nodiscard]] ml::RandomForest::Params forest_params(const Sizes& sizes,
                                                     std::uint64_t seed);
[[nodiscard]] online::RetrainerConfig retrainer_config(const std::string& store_dir,
                                                       std::uint64_t seed);

// ---------------------------------------------------------------------------
// Spans (the traced run).  Kept in memory, written out when the run ends.
struct SpanRecord {
  std::string name;  ///< "<layer>.<operation>"
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  int round = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_round(int round) noexcept { round_ = round; }
  int open(std::string name);
  void close(int id);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  /// Durations of every closed span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover, summed by layer (the name before the dot).
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  int round_ = 0;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(std::move(name)) : -1) {}
  ~Span() { if (id_ >= 0) tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Oracle bookkeeping and the printed result.
class Verdict {
 public:
  /// Record one checked output; a failed check is printed to stderr.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n = 1) noexcept { attempted_ += n; }
  void fail(std::uint64_t n) noexcept { failed_ += n; }
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

[[nodiscard]] std::string result_json(const Verdict& verdict, const Metrics& metrics);

// Digests used by the oracles (FNV-1a over exact bit patterns).
[[nodiscard]] std::uint64_t dataset_digest(const ml::Dataset& data);
[[nodiscard]] bool bit_identical(const std::vector<float>& a, const std::vector<float>& b);

// ---------------------------------------------------------------------------
// Fixture: the generated inputs plus the setup-time references.

/// A drive swap routed through TelemetryDaemon::retire().  It is issued once
/// `after_row` stream rows have been pushed: far enough behind the drive's
/// last record that the record has left its ring (so replay order, and the
/// state digest, do not depend on appender timing).  after_row == stream
/// size means "after the stream has drained".
struct Retirement {
  std::size_t after_row = 0;
  trace::DriveModel model = trace::DriveModel::MlcA;
  std::uint32_t drive_index = 0;
};

struct IngestReference {
  std::uint64_t state_digest = 0;
  std::uint64_t alerts = 0;
  std::uint64_t scored = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t duplicates = 0;
};

struct CycleReference {
  daemon::CompactionResult compaction;
  std::size_t retrain_rows = 0;
  std::size_t retrain_positives = 0;
};

enum class Need : unsigned {
  kStore = 1,         ///< sharded v3 store + row-path dataset digest
  kModel = 2,         ///< served forest
  kStream = 4,        ///< day-major fault-injected stream + retire schedule
  kIngestRef = 8,     ///< 1-shard reference replay
  kSealedWals = 16,   ///< rotated WAL segments + reference cycle
};
[[nodiscard]] constexpr unsigned operator|(Need a, Need b) {
  return static_cast<unsigned>(a) | static_cast<unsigned>(b);
}
[[nodiscard]] constexpr unsigned operator|(unsigned a, Need b) {
  return a | static_cast<unsigned>(b);
}

struct Fixture {
  Sizes sizes;
  std::uint64_t seed = 0;
  std::string dir;  ///< scratch directory of this fixture (inside the checkout)

  trace::FleetTrace fleet;
  std::uint64_t fleet_records = 0;

  std::string store_dir;
  std::uint64_t store_bytes = 0;
  std::uint64_t reference_dataset_digest = 0;  ///< row-path build_dataset(fleet)

  std::shared_ptr<const ml::RandomForest> served_forest;
  std::shared_ptr<const ml::FlatForestClassifier> served;

  std::vector<core::FleetObservation> stream;
  std::vector<Retirement> retirements;  ///< sorted by after_row
  std::int32_t last_day = 0;
  IngestReference ingest_ref;

  std::string wal_dir;  ///< sealed segments left by a rotating daemon
  std::string cycle_store_dir;
  CycleReference cycle_ref;

  double simulate_s = 0.0;
  double store_write_s = 0.0;
};

/// Build every input `needs` asks for.  Throws on any setup failure.
[[nodiscard]] std::unique_ptr<Fixture> make_fixture(const Sizes& sizes, std::uint64_t seed,
                                                    const std::string& dir, unsigned needs,
                                                    Tracer& tracer);

[[nodiscard]] daemon::DaemonConfig daemon_config(const Sizes& sizes, std::size_t shards,
                                                 std::string wal_dir);

// ---------------------------------------------------------------------------
// Units of work.  Each returns its wall time and feeds the verdict.

struct RetrainRound {
  double seconds = 0.0;
  double auc = 0.0;
  std::uint64_t store_rows = 0;
  std::uint64_t dataset_rows = 0;
};
/// `expect_auc` (when set) must match this round's AUC bit for bit.
RetrainRound retrain_round(const Fixture& fx, Verdict& verdict, Tracer& tracer,
                           std::optional<double> expect_auc);

struct IngestPass {
  double seconds = 0.0;          ///< first push to stream fully processed
  std::uint64_t offered = 0;
  std::uint64_t lost = 0;        ///< shed + rejected
  std::vector<double> latency_ms;  ///< open loop: push-to-scored from due time
  std::vector<double> lateness_ms; ///< open loop: generator lateness per row
  std::vector<double> push_us;     ///< traced: duration of each push() call
  double ring_depth_max = 0.0;     ///< traced: sampled registry gauge
  daemon::DaemonStats stats;
  std::uint64_t state_digest = 0;
  bool reference_digest_match = true;  ///< see ingest_pass()
};
/// Push the fixture's stream, with its retirements, through a fresh daemon
/// built from `cfg` (fx.served as the model; its WAL directory is emptied
/// first), wait until every row is processed, then stop it.
IngestPass replay_stream(const Fixture& fx, const daemon::DaemonConfig& cfg, Tracer& tracer,
                         double rate_rows_per_s, bool sample_pushes);
/// rate_rows_per_s == 0: saturated closed loop (blocking backpressure).
/// Otherwise an open loop at that constant rate, timing each row from its
/// due time.  Runs the 2-shard daemon with its WAL on and checks the pass.
/// `check_recovery` also restarts a daemon over the pass's WAL (untimed;
/// it replays the whole stream again) and compares its state digest.
IngestPass ingest_pass(const Fixture& fx, Verdict& verdict, Tracer& tracer,
                       double rate_rows_per_s, bool sample_pushes, bool check_recovery);

struct Cycle {
  double seconds = 0.0;
  daemon::CompactionResult compaction;
  bool model = false;
  std::size_t retrain_rows = 0;
  std::size_t retrain_positives = 0;
};
/// Compact fx.wal_dir into an empty fx.cycle_store_dir, then retrain.
Cycle run_cycle(const Fixture& fx, Tracer& tracer);
Cycle online_cycle(const Fixture& fx, Verdict& verdict, Tracer& tracer);

/// Oracle checks, separated from the units so the self-test can feed them
/// bad inputs.  check_ingest: conservation (scored + quarantined + duplicates + shed + rejected ==
/// offered), counts and alerts equal to the 1-shard reference, and — when
/// given — the digest of a daemon recovered from the pass's WAL equal to
/// the live digest.
void check_ingest(const Fixture& fx, const IngestPass& pass,
                  std::optional<std::uint64_t> recovered_digest, Verdict& verdict);
void check_cycle(const CycleReference& ref, const Cycle& cycle, Verdict& verdict);

/// The traced run: every layer probe, whatever the workload.
Metrics traced_run(const Fixture& fx, Verdict& verdict, Tracer& tracer, double rate);

/// Oracle self-test at a tiny size; returns the number of oracles that did
/// not trip on bad input.
int selftest(const std::string& dir);

// Small statistics helpers.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set (VmHWM) since the last reset_peak_rss().
void reset_peak_rss();
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
