// Setup: simulate the fleet, write the store, train the served model,
// build the telemetry stream, and record the references the oracles use.
#include <algorithm>
#include <filesystem>
#include <tuple>
#include <unordered_map>

#include "bench.hpp"
#include "ml/downsample.hpp"
#include "robustness/fault_injector.hpp"
#include "store/sharded.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Drives whose swap is routed through retire(): those whose stream ends
/// in a dead-flagged record or whose last swap follows their last record
/// (replaced, never re-entered) — the same rule as `ssdfail_cli daemon`.
/// Mid-life swaps with repair re-entry are not routed: retire() is terminal.
bool retires(const trace::DriveHistory& d) {
  const bool dead_flagged = std::any_of(d.records.begin(), d.records.end(),
                                        [](const trace::DailyRecord& r) { return r.dead; });
  const bool terminal_swap =
      !d.swaps.empty() && !d.records.empty() && d.swaps.back().day > d.records.back().day;
  return dead_flagged || terminal_swap;
}

void build_stream(Fixture& fx) {
  std::vector<core::FleetObservation> stream;
  stream.reserve(fx.fleet_records);
  for (const auto& d : fx.fleet.drives)
    for (const auto& r : d.records) stream.push_back({d.model, d.drive_index, d.deploy_day, r});
  std::stable_sort(stream.begin(), stream.end(),
                   [](const core::FleetObservation& a, const core::FleetObservation& b) {
                     return a.record.day < b.record.day;
                   });
  robustness::FaultInjector injector(fx.seed ^ 0x9e3779b97f4a7c15ull,
                                     robustness::FaultRates::uniform(fx.sizes.fault_rate));
  fx.stream = injector.corrupt(stream).observations;

  std::unordered_map<std::uint64_t, std::size_t> last_row;
  for (const auto& d : fx.fleet.drives)
    if (retires(d)) last_row.emplace(d.uid(), fx.stream.size());
  fx.last_day = 0;
  for (std::size_t i = 0; i < fx.stream.size(); ++i) {
    fx.last_day = std::max(fx.last_day, fx.stream[i].record.day);
    if (auto it = last_row.find(fx.stream[i].uid()); it != last_row.end()) it->second = i;
  }
  // A record is out of its ring once `ring_capacity` later records of the
  // same shard have been accepted; 8 rings' worth of rows over 2 shards
  // clears that bound by a wide margin.
  const std::size_t delay = 8 * fx.sizes.ring_capacity;
  fx.retirements.clear();
  for (const auto& [uid, row] : last_row) {
    if (row == fx.stream.size()) continue;  // every record was dropped
    fx.retirements.push_back({std::min(row + 1 + delay, fx.stream.size()),
                              fx.stream[row].drive_model, fx.stream[row].drive_index});
  }
  std::sort(fx.retirements.begin(), fx.retirements.end(),
            [](const Retirement& a, const Retirement& b) {
              return std::tie(a.after_row, a.model, a.drive_index) <
                     std::tie(b.after_row, b.model, b.drive_index);
            });
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

}  // namespace

daemon::DaemonConfig daemon_config(const Sizes& sizes, std::size_t shards,
                                   std::string wal_dir) {
  daemon::DaemonConfig cfg;
  cfg.shards = shards;
  cfg.ring_capacity = sizes.ring_capacity;
  cfg.max_batch = sizes.max_batch;
  cfg.backpressure = daemon::Backpressure::kBlock;
  // Long patience: a blocked push is latency the open loop measures, not a
  // loss; shedding only happens on a stall of this length.
  cfg.block_timeout = std::chrono::milliseconds(2000);
  cfg.wal_dir = std::move(wal_dir);
  // Per-segment fsync on this class of disk spreads throughput by 2x run to
  // run; the benchmark times WAL framing, not the device.
  cfg.fsync = daemon::FsyncPolicy::kNever;
  return cfg;
}

std::unique_ptr<Fixture> make_fixture(const Sizes& sizes, std::uint64_t seed,
                                      const std::string& dir, unsigned needs,
                                      Tracer& tracer) {
  const auto wants = [needs](Need n) { return (needs & static_cast<unsigned>(n)) != 0; };
  auto fx = std::make_unique<Fixture>();
  fx->sizes = sizes;
  fx->seed = seed;
  fx->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);

  {
    Span span(tracer, "sim.simulate");
    const auto t0 = Clock::now();
    sim::FleetConfig cfg;
    cfg.drives_per_model = sizes.drives_per_model;
    cfg.seed = seed;
    fx->fleet = sim::FleetSimulator(cfg.mixed()).generate_all();
    fx->fleet_records = fx->fleet.total_records();
    fx->simulate_s = seconds_since(t0);
  }

  const core::DatasetBuildOptions opts = dataset_options(seed);
  ml::Dataset row_path;
  if (wants(Need::kStore) || wants(Need::kModel)) {
    Span span(tracer, "core.reference_build");
    row_path = core::build_dataset(fx->fleet, opts);
  }
  if (wants(Need::kStore)) {
    fx->store_dir = dir + "/store";
    {
      Span span(tracer, "store.setup_write");
      const auto t0 = Clock::now();
      store::ShardedWriteOptions wopts;
      wopts.store.version = store::kColumnarVersionV3;
      wopts.store.chunk_drives = sizes.chunk_drives;
      wopts.drives_per_shard = sizes.drives_per_shard;
      store::write_sharded(fx->store_dir, fx->fleet, wopts);
      fx->store_write_s = seconds_since(t0);
    }
    fx->store_bytes = directory_bytes(fx->store_dir);
    fx->reference_dataset_digest = dataset_digest(row_path);
  }
  if (wants(Need::kModel)) {
    Span span(tracer, "ml.served_fit");
    auto forest = std::make_shared<ml::RandomForest>(forest_params(sizes, seed));
    forest->fit(ml::downsample_negatives(row_path, 1.0, seed ^ 0xd0ull));
    fx->served_forest = forest;
    fx->served = std::make_shared<ml::FlatForestClassifier>(
        std::static_pointer_cast<const ml::Classifier>(forest));
  }
  if (wants(Need::kStream)) {
    Span span(tracer, "harness.build_stream");
    build_stream(*fx);
  }
  if (wants(Need::kIngestRef)) {
    Span span(tracer, "daemon.reference_replay");
    const IngestPass ref =
        replay_stream(*fx, daemon_config(sizes, 1, ""), tracer, 0.0, false);
    fx->ingest_ref = {ref.state_digest, ref.stats.alerts, ref.stats.scored,
                      ref.stats.quarantined, ref.stats.duplicates_dropped};
  }
  if (wants(Need::kSealedWals)) {
    fx->wal_dir = dir + "/sealed";
    fx->cycle_store_dir = dir + "/cycle_store";
    fs::create_directories(fx->wal_dir);
    {
      Span span(tracer, "daemon.seal_wals");
      daemon::DaemonConfig cfg = daemon_config(sizes, sizes.daemon_shards, fx->wal_dir);
      cfg.wal_rotate_bytes = sizes.wal_rotate_bytes;
      (void)replay_stream(*fx, cfg, tracer, 0.0, false);
    }
    Span span(tracer, "harness.reference_cycle");
    const Cycle ref = run_cycle(*fx, tracer);
    fx->cycle_ref = {ref.compaction, ref.retrain_rows, ref.retrain_positives};
  }
  return fx;
}

}  // namespace perfbench
