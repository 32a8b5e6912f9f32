// Property-style sweeps over the drive lifecycle: the structural
// invariants of Fig 2's timeline must hold for every drive, every model,
// every seed, and every window length.

#include <gtest/gtest.h>

#include <tuple>

#include "sim/drive_simulator.hpp"

namespace ssdfail::sim {
namespace {

using trace::DriveHistory;
using trace::DriveModel;

struct LifecycleCase {
  DriveModel model;
  std::uint64_t seed;
  std::int32_t window;
};

class LifecyclePropertyTest : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(LifecyclePropertyTest, StructuralInvariantsHoldForManyDrives) {
  const auto& param = GetParam();
  const DriveModelSpec& spec = preset(param.model);
  for (std::uint32_t idx = 0; idx < 300; ++idx) {
    const DriveHistory d = simulate_drive(spec, param.seed, idx, param.window);

    // Deploy day within the window, records within [deploy, window).
    ASSERT_GE(d.deploy_day, 0);
    ASSERT_LT(d.deploy_day, param.window);
    std::int32_t prev_day = d.deploy_day - 1;
    std::uint32_t prev_pe = 0;
    std::uint32_t prev_bb = 0;
    for (const auto& r : d.records) {
      ASSERT_GT(r.day, prev_day);
      ASSERT_LT(r.day, param.window);
      ASSERT_GE(r.pe_cycles, prev_pe);
      ASSERT_GE(r.bad_blocks, prev_bb);
      prev_day = r.day;
      prev_pe = r.pe_cycles;
      prev_bb = r.bad_blocks;
      // Erases imply writes happened (block recycling needs written pages).
      if (r.writes == 0) {
        ASSERT_EQ(r.erases, 0u);
      }
    }

    // Swap events strictly increasing and paired 1:1 (prefix) with truth
    // failures, each strictly after its failure day.
    const auto& truth = *d.truth;
    ASSERT_LE(d.swaps.size(), truth.failure_days.size());
    std::int32_t prev_swap = -1;
    for (std::size_t s = 0; s < d.swaps.size(); ++s) {
      ASSERT_GT(d.swaps[s].day, truth.failure_days[s]);
      ASSERT_GT(d.swaps[s].day, prev_swap);
      ASSERT_LT(d.swaps[s].day, param.window);
      prev_swap = d.swaps[s].day;
    }
    // At most one unswapped failure (the final one, censored by the window).
    ASSERT_LE(truth.failure_days.size() - d.swaps.size(), 1u);

    // The dead flag never appears on an operational (active) day.
    for (const auto& r : d.records)
      if (r.dead) {
        ASSERT_TRUE(r.inactive());
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LifecyclePropertyTest,
    ::testing::Values(LifecycleCase{DriveModel::MlcA, 1, 2190},
                      LifecycleCase{DriveModel::MlcB, 2, 2190},
                      LifecycleCase{DriveModel::MlcD, 3, 2190},
                      LifecycleCase{DriveModel::MlcB, 4, 365},
                      LifecycleCase{DriveModel::MlcD, 5, 90},
                      LifecycleCase{DriveModel::MlcA, 6, 30},
                      LifecycleCase{DriveModel::MlcB, 99, 1000}),
    [](const auto& param_info) {
      return std::string(trace::model_name(param_info.param.model)).substr(4) + "_w" +
             std::to_string(param_info.param.window) + "_s" +
             std::to_string(param_info.param.seed);
    });

TEST(LifecycleEdgeCases, WindowOfOneDay) {
  for (std::uint32_t idx = 0; idx < 100; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcB), 11, idx, 1);
    ASSERT_LE(d.records.size(), 1u);
    ASSERT_TRUE(d.swaps.empty());  // swap lag >= 1 puts any swap past day 0
  }
}

TEST(LifecycleEdgeCases, TruthFailuresMatchRecordsEnd) {
  // A drive whose last failure has no swap within the window must have no
  // operational records after that failure.
  int verified = 0;
  for (std::uint32_t idx = 0; idx < 2000 && verified < 10; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcB), 12, idx, 2190);
    const auto& truth = *d.truth;
    if (truth.failure_days.size() != d.swaps.size() + 1) continue;
    const std::int32_t last_failure = truth.failure_days.back();
    for (const auto& r : d.records)
      if (r.day > last_failure) {
        ASSERT_TRUE(r.inactive());
      }
    ++verified;
  }
  EXPECT_GT(verified, 0);
}

TEST(LifecycleEdgeCases, GroundTruthProbabilisticFieldsPopulated) {
  const DriveHistory d = simulate_drive(preset(DriveModel::MlcA), 13, 5, 2190);
  EXPECT_GT(d.truth->frailty, 0.0);
  EXPECT_GE(d.truth->error_proneness, 0.0);
}

}  // namespace
}  // namespace ssdfail::sim
