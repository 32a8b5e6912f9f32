// Oracle self-test: at a tiny size, every unit of work passes on good
// input and every oracle trips on bad input.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

struct Tally {
  int missed = 0;
  int passed = 0;
  void expect(bool ok, const char* what) {
    std::fprintf(stderr, "selftest: %-62s %s\n", what, ok ? "ok" : "MISSED");
    (ok ? passed : missed) += 1;
  }
};

/// True when `body` leaves a fresh verdict incorrect.
bool trips(const std::function<void(Verdict&)>& body) {
  Verdict v;
  body(v);
  return !v.correct();
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  const char c = static_cast<char>(f.get() ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(c);
}

}  // namespace

int selftest(const std::string& dir) {
  Sizes tiny;
  tiny.drives_per_model = 40;
  tiny.forest_trees = 20;
  Tracer off(false);
  Tally t;
  auto fx = make_fixture(tiny, 7, dir,
                         Need::kStore | Need::kModel | Need::kStream | Need::kIngestRef |
                             Need::kSealedWals,
                         off);

  // Good input passes every oracle.
  Verdict good;
  const double auc = retrain_round(*fx, good, off, std::nullopt).auc;
  (void)retrain_round(*fx, good, off, auc);
  const IngestPass pass = ingest_pass(*fx, good, off, 0.0, false, true);
  (void)ingest_pass(*fx, good, off, 2e5, false, false);
  const Cycle cycle = online_cycle(*fx, good, off);
  t.expect(good.correct() && good.failed() == 0, "good input passes every oracle");

  // retrain
  t.expect(trips([&](Verdict& v) { (void)retrain_round(*fx, v, off, auc + 1e-12); }),
           "retrain: AUC differing between rounds");
  {
    const std::uint64_t digest = fx->reference_dataset_digest;
    fx->reference_dataset_digest ^= 1;
    t.expect(trips([&](Verdict& v) { (void)retrain_round(*fx, v, off, auc); }),
             "retrain: wrong reference dataset digest");
    fx->reference_dataset_digest = digest;
  }
  t.expect(!bit_identical({0.0f}, {-0.0f}) && bit_identical({0.5f}, {0.5f}),
           "retrain: flat/walker comparison is bitwise");
  {
    std::string shard;
    for (const auto& e : fs::directory_iterator(fx->store_dir))
      if (e.path().extension() == ".ssdf2") shard = e.path().string();
    flip_byte(shard, fs::file_size(shard) / 2);
    bool threw = false;
    try {
      Verdict v;
      (void)retrain_round(*fx, v, off, auc);
    } catch (const std::exception&) {
      threw = true;
    }
    t.expect(threw, "retrain: flipped byte in a v3 shard fails the open");
  }

  // ingest
  t.expect(trips([&](Verdict& v) {
             IngestPass bad = pass;
             bad.offered += 1;
             check_ingest(*fx, bad, pass.state_digest, v);
           }),
           "ingest: conservation identity off by one row");
  t.expect(trips([&](Verdict& v) {
             IngestPass bad = pass;
             bad.stats.alerts += 1;
             check_ingest(*fx, bad, pass.state_digest, v);
           }),
           "ingest: alert count differing from the reference");
  t.expect(trips([&](Verdict& v) { check_ingest(*fx, pass, pass.state_digest ^ 1, v); }),
           "ingest: WAL-recovered digest differing from the live one");
  t.expect(trips([&](Verdict& v) {
             IngestPass bad = pass;
             bad.stats.wal_degraded = true;
             check_ingest(*fx, bad, pass.state_digest, v);
           }),
           "ingest: WAL degraded");

  // online_cycle
  t.expect(trips([&](Verdict& v) {
             Cycle bad = cycle;
             bad.compaction.shard_bytes_out += 1;
             check_cycle(fx->cycle_ref, bad, v);
           }),
           "online_cycle: shard bytes differing from the reference");
  t.expect(trips([&](Verdict& v) {
             Cycle bad = cycle;
             bad.compaction.records -= 1;
             check_cycle(fx->cycle_ref, bad, v);
           }),
           "online_cycle: record count differing from the reference");
  t.expect(trips([&](Verdict& v) {
             Cycle bad = cycle;
             bad.model = false;
             check_cycle(fx->cycle_ref, bad, v);
           }),
           "online_cycle: retrain returning no model");
  t.expect(trips([&](Verdict& v) {
             CycleReference ref = fx->cycle_ref;
             Cycle bad = cycle;
             ref.retrain_positives = bad.retrain_positives = 0;
             check_cycle(ref, bad, v);
           }),
           "online_cycle: retrain trained on zero positives");

  fx.reset();
  fs::remove_all(dir);
  std::fprintf(stderr, "selftest: %d passed, %d missed\n", t.passed, t.missed);
  return t.missed;
}

}  // namespace perfbench
