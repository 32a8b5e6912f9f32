#pragma once

// The committed SSDF2 v2 fixture and the fleet it encodes.
//
// Nothing writes v2 any more; the reader stays for existing files, so it
// is pinned by a file instead of by writer output.
// data/sweep_fleet_v2.ssdf2 is sweep_fleet() encoded as v2 with 3 drives
// per chunk: 6 drives, 67 records, 10 swaps and 4 models in 2 chunks,
// 6,160 bytes.  random_fleet and sweep_fleet must never change, because
// the fixture is their output.  Each test target that includes this
// header defines SSDFAIL_V2_FIXTURE_DIR in its CMakeLists.txt.

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stats/rng.hpp"
#include "trace/drive_history.hpp"

namespace ssdfail::trace::testing {

/// Drives per chunk the fixture was written with.
inline constexpr std::uint32_t kV2FixtureChunkDrives = 3;

/// A random fleet of 0..6 drives with 0..39 records and 0..3 swaps each;
/// every core field is random, extension counters stay zero.
inline FleetTrace random_fleet(stats::Rng& rng) {
  FleetTrace fleet;
  const std::size_t n_drives = rng.uniform_index(7);  // includes the empty fleet
  for (std::size_t d = 0; d < n_drives; ++d) {
    DriveHistory drive;
    drive.model = kAllModels[rng.uniform_index(kNumModels)];
    drive.drive_index = static_cast<std::uint32_t>(rng.next_u32());
    drive.deploy_day = static_cast<std::int32_t>(rng.uniform_index(1000)) - 100;
    const std::size_t n_records = rng.uniform_index(40);  // includes zero records
    std::int32_t day = drive.deploy_day;
    for (std::size_t r = 0; r < n_records; ++r) {
      DailyRecord rec;
      day += static_cast<std::int32_t>(1 + rng.uniform_index(3));  // gaps are legal
      rec.day = day;
      rec.reads = rng.next_u32();
      rec.writes = rng.next_u32();
      rec.erases = rng.next_u32();
      rec.pe_cycles = rng.next_u32();
      rec.bad_blocks = rng.next_u32();
      rec.factory_bad_blocks = static_cast<std::uint16_t>(rng.next_u32());
      rec.read_only = rng.uniform() < 0.1;
      rec.dead = rng.uniform() < 0.05;
      for (std::uint32_t& e : rec.errors) e = rng.next_u32();
      drive.records.push_back(rec);
    }
    const std::size_t n_swaps = rng.uniform_index(4);
    std::int32_t swap_day = drive.deploy_day;
    for (std::size_t s = 0; s < n_swaps; ++s) {
      swap_day += static_cast<std::int32_t>(1 + rng.uniform_index(50));
      drive.swaps.push_back({swap_day});
    }
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

/// A small but shape-rich fleet for the exhaustive byte-level sweeps.
inline FleetTrace sweep_fleet() {
  stats::Rng rng(2024);
  FleetTrace fleet = random_fleet(rng);
  while (fleet.total_records() < 30 || fleet.drives.size() < 3)
    fleet = random_fleet(rng);
  return fleet;
}

/// Path of the committed v2 encoding of sweep_fleet().
inline std::string v2_fixture_path() {
  return std::string(SSDFAIL_V2_FIXTURE_DIR) + "/sweep_fleet_v2.ssdf2";
}

/// The fixture's bytes.  Throws std::runtime_error if it cannot be read.
inline std::vector<char> v2_fixture_bytes() {
  std::ifstream in(v2_fixture_path(), std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + v2_fixture_path());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace ssdfail::trace::testing
