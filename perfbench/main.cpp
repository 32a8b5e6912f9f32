// ssdbench entry point.
//
//   ssdbench --workload {retrain|ingest|online_cycle} --seed N --seconds S
//            --trace {0|1} --rate ROWS_PER_S [--dir D] [--out D]
//
// --rate is the offered rate of the open-loop ingest pass in the traced
// run.
//   ssdbench --selftest [--dir D]
//
// --trace 0 measures the end-to-end metrics with span recording off.
// --trace 1 runs every layer probe with spans on (whatever the workload)
// and writes the spans to <out>/spans-<workload>-<seed>.jsonl.  The last
// line of stdout is the JSON result; exit status is non-zero on any error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double rate = 0.0;  ///< open-loop offered rate of the ingest workload
  std::string dir = ".bench_run";
  std::string out = ".bench_out";
  bool selftest = false;
};

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&kv](const char* name) -> std::string {
    auto it = kv.find(name);
    if (it == kv.end()) return {};
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  o.workload = take("workload");
  const std::string seed = take("seed"), seconds = take("seconds"), trace = take("trace"),
                    rate = take("rate"), dir = take("dir"), out = take("out");
  if (!dir.empty()) o.dir = dir;
  if (!out.empty()) o.out = out;
  if (!kv.empty()) throw std::invalid_argument("unknown option --" + kv.begin()->first);
  if (o.selftest) return o;
  if (o.workload != "retrain" && o.workload != "ingest" && o.workload != "online_cycle")
    throw std::invalid_argument("--workload must be retrain, ingest or online_cycle");
  if (seed.empty() || seconds.empty() || trace.empty() || rate.empty())
    throw std::invalid_argument("--seed, --seconds, --trace and --rate are required");
  o.seed = std::stoull(seed);
  o.seconds = std::stod(seconds);
  o.trace = trace == "1";
  o.rate = std::stod(rate);
  if (o.seconds <= 0.0 || o.rate <= 0.0 || (trace != "0" && trace != "1"))
    throw std::invalid_argument("bad --seconds, --rate or --trace");
  return o;
}

unsigned needs_of(const std::string& workload) {
  if (workload == "retrain") return static_cast<unsigned>(Need::kStore);
  if (workload == "ingest") return Need::kModel | Need::kStream | Need::kIngestRef;
  return Need::kModel | Need::kStream | Need::kSealedWals;
}

/// Set up `reps` times (reporting the median) and keep the last fixture.
std::unique_ptr<Fixture> set_up(const Options& o, unsigned needs, int reps, Tracer& tracer,
                                double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fx;
  for (int r = 0; r < reps; ++r) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = make_fixture(Sizes{}, o.seed, o.dir + "/fixture", needs, tracer);
    times.push_back(seconds_since(t0));
  }
  setup_s = median(times);
  return fx;
}

/// What the untraced loop of one workload measured.
struct Measured {
  std::vector<double> unit_s;  ///< wall time of each closed-loop unit of work
  double rows_per_unit = 0.0;
  double bytes_per_row = 0.0;
};

/// Run units of work for `seconds` (at least `min_units`), after one
/// warm-up unit (caches, page cache, allocator) that is checked but not
/// timed.
Measured measure(const Options& o, const Fixture& fx, Verdict& verdict, Tracer& tracer) {
  Measured m;
  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  const auto more = [&](std::size_t min_units) {
    return m.unit_s.size() < min_units || Clock::now() < deadline;
  };
  if (o.workload == "retrain") {
    const double auc = retrain_round(fx, verdict, tracer, std::nullopt).auc;
    while (more(5)) {
      const RetrainRound r = retrain_round(fx, verdict, tracer, auc);
      m.unit_s.push_back(r.seconds);
      m.rows_per_unit = static_cast<double>(r.store_rows);
    }
    m.bytes_per_row = static_cast<double>(fx.store_bytes) / static_cast<double>(fx.fleet_records);
  } else if (o.workload == "ingest") {
    (void)ingest_pass(fx, verdict, tracer, 0.0, false, true);
    while (more(5)) {
      const IngestPass pass = ingest_pass(fx, verdict, tracer, 0.0, false, false);
      m.unit_s.push_back(pass.seconds);
      m.rows_per_unit = static_cast<double>(pass.offered);
      m.bytes_per_row =
          static_cast<double>(pass.stats.wal_bytes) / static_cast<double>(pass.offered);
    }
  } else {
    (void)online_cycle(fx, verdict, tracer);
    while (more(3)) {
      const Cycle c = online_cycle(fx, verdict, tracer);
      m.unit_s.push_back(c.seconds);
      m.rows_per_unit = static_cast<double>(c.compaction.records);
      m.bytes_per_row = static_cast<double>(c.compaction.shard_bytes_out) /
                        static_cast<double>(c.compaction.records);
    }
  }
  return m;
}

int run(const Options& o) {
  Verdict verdict;
  Metrics metrics;
  Tracer tracer(o.trace);
  double setup_s = 0.0;

  if (o.trace) {
    const auto fx = set_up(o, Need::kStore | Need::kModel | Need::kStream | Need::kIngestRef |
                                  Need::kSealedWals,
                           1, tracer, setup_s);
    metrics = traced_run(*fx, verdict, tracer, o.rate);
    std::filesystem::create_directories(o.out);
    tracer.write_jsonl(o.out + "/spans-" + o.workload + "-" + std::to_string(o.seed) +
                       ".jsonl");
  } else {
    // Setup is repeated so its median is steady.
    const auto fx = set_up(o, needs_of(o.workload), 3, tracer, setup_s);
    if (o.workload != "ingest") {
      // retrain and online_cycle read only the files and references the
      // setup left; release the simulated fleet and stream.
      fx->fleet = trace::FleetTrace{};
      std::vector<core::FleetObservation>().swap(fx->stream);
    }
    reset_peak_rss();
    const Measured m = measure(o, *fx, verdict, tracer);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"rows_per_s", m.rows_per_unit / median(m.unit_s), "rows/s"},
        {"bytes_per_row", m.bytes_per_row, "B/row"},
    };
    std::fprintf(stderr, "ssdbench: %s seed %llu: %zu units of work timed\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed), m.unit_s.size());
  }
  std::filesystem::remove_all(o.dir + "/fixture");
  std::printf("%s\n", result_json(verdict, metrics).c_str());
  return verdict.correct() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse(argc, argv);
    if (o.selftest) return perfbench::selftest(o.dir + "/selftest") == 0 ? 0 : 4;
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssdbench: error: %s\n", e.what());
    return 2;
  }
}
