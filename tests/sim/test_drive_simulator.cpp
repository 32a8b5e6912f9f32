#include "sim/drive_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace ssdfail::sim {
namespace {

using trace::DriveHistory;
using trace::DriveModel;
using trace::ErrorType;

const DriveModelSpec& spec_a() { return preset(DriveModel::MlcA); }

TEST(DriveSimulator, DeterministicForSameInputs) {
  const DriveHistory a = simulate_drive(spec_a(), 42, 7, 2190);
  const DriveHistory b = simulate_drive(spec_a(), 42, 7, 2190);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].day, b.records[i].day);
    EXPECT_EQ(a.records[i].writes, b.records[i].writes);
    EXPECT_EQ(a.records[i].errors, b.records[i].errors);
  }
  ASSERT_EQ(a.swaps.size(), b.swaps.size());
  EXPECT_EQ(a.truth->failure_days, b.truth->failure_days);
}

TEST(DriveSimulator, DifferentDrivesDiffer) {
  const DriveHistory a = simulate_drive(spec_a(), 42, 1, 2190);
  const DriveHistory b = simulate_drive(spec_a(), 42, 2, 2190);
  // Astronomically unlikely to coincide in both deploy day and first write.
  const bool same = a.deploy_day == b.deploy_day && !a.records.empty() &&
                    !b.records.empty() && a.records[0].writes == b.records[0].writes;
  EXPECT_FALSE(same);
}

TEST(DriveSimulator, RecordsStrictlyIncreasingWithinWindow) {
  for (std::uint32_t idx = 0; idx < 50; ++idx) {
    const DriveHistory d = simulate_drive(spec_a(), 1, idx, 1000);
    for (std::size_t i = 1; i < d.records.size(); ++i)
      ASSERT_LT(d.records[i - 1].day, d.records[i].day) << "drive " << idx;
    if (!d.records.empty()) {
      EXPECT_GE(d.records.front().day, d.deploy_day);
      EXPECT_LT(d.records.back().day, 1000);
    }
  }
}

TEST(DriveSimulator, CumulativeCountersAreMonotone) {
  for (std::uint32_t idx = 0; idx < 50; ++idx) {
    const DriveHistory d = simulate_drive(spec_a(), 2, idx, 2190);
    for (std::size_t i = 1; i < d.records.size(); ++i) {
      ASSERT_GE(d.records[i].pe_cycles, d.records[i - 1].pe_cycles);
      ASSERT_GE(d.records[i].bad_blocks, d.records[i - 1].bad_blocks);
      ASSERT_EQ(d.records[i].factory_bad_blocks, d.records[i - 1].factory_bad_blocks);
    }
  }
}

TEST(DriveSimulator, SwapsFollowFailuresInOrder) {
  int checked = 0;
  for (std::uint32_t idx = 0; idx < 2000 && checked < 40; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcB), 3, idx, 2190);
    const auto& truth = *d.truth;
    ASSERT_LE(d.swaps.size(), truth.failure_days.size());
    for (std::size_t s = 0; s < d.swaps.size(); ++s) {
      ASSERT_GT(d.swaps[s].day, truth.failure_days[s]);
      ++checked;
    }
  }
  EXPECT_GE(checked, 40) << "fleet produced too few swaps to exercise the check";
}

TEST(DriveSimulator, NoOperationalRecordsBetweenFailureAndReentry) {
  // Between a failure and the drive's re-entry, any logged day must be
  // inactive (zero reads/writes): the drive is failed or in repair.
  int verified = 0;
  for (std::uint32_t idx = 0; idx < 3000 && verified < 30; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcB), 4, idx, 2190);
    const auto& truth = *d.truth;
    for (std::size_t f = 0; f < d.swaps.size(); ++f) {
      const std::int32_t fail = truth.failure_days[f];
      // Find where the next operational period starts (if any).
      std::int32_t next_start = 2190;
      if (f + 1 < truth.failure_days.size() || d.records.back().day > d.swaps[f].day) {
        for (const auto& r : d.records)
          if (r.day > d.swaps[f].day && !r.inactive()) {
            next_start = r.day;
            break;
          }
      }
      for (const auto& r : d.records) {
        if (r.day > fail && r.day < next_start) {
          ASSERT_TRUE(r.inactive()) << "drive " << idx << " day " << r.day;
          ++verified;
        }
      }
    }
  }
  EXPECT_GT(verified, 0);
}

TEST(DriveSimulator, GroundTruthOmittedWhenRequested) {
  const DriveHistory d = simulate_drive(spec_a(), 5, 0, 500, /*keep_truth=*/false);
  EXPECT_FALSE(d.truth.has_value());
}

TEST(DriveSimulator, TruthVectorsConsistent) {
  for (std::uint32_t idx = 0; idx < 500; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcB), 6, idx, 2190);
    ASSERT_EQ(d.truth->failure_days.size(), d.truth->silent.size());
    for (std::size_t i = 1; i < d.truth->failure_days.size(); ++i)
      ASSERT_LT(d.truth->failure_days[i - 1], d.truth->failure_days[i]);
  }
}

TEST(DriveSimulator, FailureDayIsLastActiveDay) {
  // The ground-truth failure day must be the last day with activity before
  // the swap: this is the invariant the analysis layer relies on to
  // re-derive failure points from observables.
  int checked = 0;
  for (std::uint32_t idx = 0; idx < 3000 && checked < 50; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcB), 7, idx, 2190);
    const auto& truth = *d.truth;
    for (std::size_t f = 0; f < d.swaps.size(); ++f) {
      const std::int32_t fail = truth.failure_days[f];
      const std::int32_t swap = d.swaps[f].day;
      for (const auto& r : d.records)
        if (r.day > fail && r.day < swap) {
          ASSERT_TRUE(r.inactive());
        }
      ++checked;
    }
  }
  EXPECT_GE(checked, 50);
}

TEST(DriveSimulator, WindowBoundsRespected) {
  for (std::int32_t window : {1, 10, 100, 2190}) {
    const DriveHistory d = simulate_drive(spec_a(), 8, 3, window);
    for (const auto& r : d.records) {
      EXPECT_GE(r.day, 0);
      EXPECT_LT(r.day, window);
    }
    for (const auto& s : d.swaps) EXPECT_LT(s.day, window);
  }
}

TEST(DriveSimulator, ShortWindowProducesNoOutOfRangeDeploys) {
  for (std::uint32_t idx = 0; idx < 200; ++idx) {
    const DriveHistory d = simulate_drive(spec_a(), 9, idx, 50);
    EXPECT_GE(d.deploy_day, 0);
    EXPECT_LT(d.deploy_day, 50);
  }
}

TEST(DriveSimulator, FinalReadErrorsOnlyOnUncorrectableDays) {
  // rho(final read, UE) = 0.97 in Table 2 because a finally-failed read IS
  // an uncorrectable error; the generator enforces co-occurrence.
  for (std::uint32_t idx = 0; idx < 300; ++idx) {
    const DriveHistory d = simulate_drive(preset(DriveModel::MlcD), 10, idx, 2190);
    for (const auto& r : d.records)
      if (r.error(ErrorType::kFinalRead) > 0) {
        ASSERT_GT(r.error(ErrorType::kUncorrectable), 0u);
      }
  }
}

}  // namespace
}  // namespace ssdfail::sim
