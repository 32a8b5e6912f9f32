// Statistical calibration tests: the generated fleet must reproduce the
// paper's published statistics within tolerances sized to the sampling
// noise of the test fleet (2000 drives/model).  These are the tests that
// anchor the simulator to the paper.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "sim/fleet_simulator.hpp"
#include "stats/spearman.hpp"

namespace ssdfail::sim {
namespace {

using trace::DriveModel;
using trace::ErrorType;

constexpr std::uint32_t kDrives = 2000;

/// Fleet-level aggregates for one model, shared by the calibration tests.
struct ModelStats {
  std::uint64_t drive_days = 0;
  std::array<std::uint64_t, trace::kNumErrorTypes> error_days{};
  std::uint64_t failures = 0;
  std::uint64_t drives_failed = 0;
  std::uint64_t young_failures = 0;
  std::uint64_t swaps = 0;
  std::uint64_t reentries = 0;
  std::uint64_t failed_no_ue_young = 0, failed_young = 0;
  std::uint64_t failed_no_ue_old = 0, failed_old = 0;
  std::uint64_t not_failed_no_ue = 0, not_failed = 0;
  std::vector<double> max_age, pe_end, ue_cum, final_read_cum, erase_cum, bad_blocks;
  std::vector<double> swap_lags;
};

const ModelStats& stats_for(DriveModel model) {
  static std::array<ModelStats, trace::kNumModels> cache;
  static std::array<bool, trace::kNumModels> ready{};
  const auto mi = static_cast<std::size_t>(model);
  if (!ready[mi]) {
    ModelStats s;
    FleetConfig cfg;
    cfg.drives_per_model = kDrives;
    FleetSimulator sim(cfg);
    for (std::uint32_t i = 0; i < kDrives; ++i) {
      const auto d = sim.simulate(mi * kDrives + i);
      s.drive_days += d.records.size();
      for (const auto& r : d.records)
        for (std::size_t e = 0; e < trace::kNumErrorTypes; ++e)
          if (r.errors[e] > 0) ++s.error_days[e];
      const auto cum = d.final_cumulative();
      const auto& truth = *d.truth;
      s.failures += truth.failure_days.size();
      s.swaps += d.swaps.size();
      if (!truth.failure_days.empty()) ++s.drives_failed;
      for (std::size_t f = 0; f < d.swaps.size(); ++f)
        s.swap_lags.push_back(d.swaps[f].day - truth.failure_days[f]);
      // Re-entries: operational records after a swap.
      for (const auto& sw : d.swaps)
        for (const auto& r : d.records)
          if (r.day > sw.day && !r.inactive()) {
            ++s.reentries;
            break;
          }
      const bool any_ue = cum.error(ErrorType::kUncorrectable) > 0;
      if (truth.failure_days.empty()) {
        ++s.not_failed;
        if (!any_ue) ++s.not_failed_no_ue;
      } else {
        const std::int32_t age0 = truth.failure_days[0] - d.deploy_day;
        if (age0 <= kInfantAgeDays) {
          ++s.failed_young;
          if (!any_ue) ++s.failed_no_ue_young;
        } else {
          ++s.failed_old;
          if (!any_ue) ++s.failed_no_ue_old;
        }
        for (std::int32_t fd : truth.failure_days)
          if (fd - d.deploy_day <= kInfantAgeDays) ++s.young_failures;
      }
      s.max_age.push_back(d.max_observed_age());
      s.pe_end.push_back(d.records.empty() ? 0.0 : d.records.back().pe_cycles);
      s.ue_cum.push_back(static_cast<double>(cum.error(ErrorType::kUncorrectable)));
      s.final_read_cum.push_back(static_cast<double>(cum.error(ErrorType::kFinalRead)));
      s.erase_cum.push_back(static_cast<double>(cum.error(ErrorType::kErase)));
      s.bad_blocks.push_back(d.records.empty() ? 0.0 : d.records.back().bad_blocks);
    }
    cache[mi] = std::move(s);
    ready[mi] = true;
  }
  return cache[mi];
}

class CalibrationTest : public ::testing::TestWithParam<DriveModel> {};

TEST_P(CalibrationTest, FailedFractionMatchesTable3) {
  static constexpr std::array<double, 3> target = {0.0695, 0.143, 0.125};
  const ModelStats& s = stats_for(GetParam());
  const double observed = static_cast<double>(s.drives_failed) / kDrives;
  EXPECT_NEAR(observed, target[static_cast<std::size_t>(GetParam())], 0.025);
}

TEST_P(CalibrationTest, UncorrectableIncidenceMatchesTable1) {
  static constexpr std::array<double, 3> target = {0.002176, 0.002349, 0.002583};
  const ModelStats& s = stats_for(GetParam());
  const double observed =
      static_cast<double>(s.error_days[static_cast<std::size_t>(ErrorType::kUncorrectable)]) /
      static_cast<double>(s.drive_days);
  const double t = target[static_cast<std::size_t>(GetParam())];
  EXPECT_GT(observed, t / 1.8);
  EXPECT_LT(observed, t * 1.8);
}

TEST_P(CalibrationTest, CorrectableIncidenceMatchesTable1) {
  static constexpr std::array<double, 3> target = {0.829, 0.776, 0.768};
  const ModelStats& s = stats_for(GetParam());
  const double observed =
      static_cast<double>(s.error_days[static_cast<std::size_t>(ErrorType::kCorrectable)]) /
      static_cast<double>(s.drive_days);
  EXPECT_NEAR(observed, target[static_cast<std::size_t>(GetParam())], 0.08);
}

TEST_P(CalibrationTest, RareErrorsStayRare) {
  const ModelStats& s = stats_for(GetParam());
  for (ErrorType e : {ErrorType::kMeta, ErrorType::kResponse, ErrorType::kTimeout,
                      ErrorType::kFinalWrite}) {
    const double rate = static_cast<double>(s.error_days[static_cast<std::size_t>(e)]) /
                        static_cast<double>(s.drive_days);
    EXPECT_LT(rate, 3e-4) << trace::error_name(e);
  }
}

TEST_P(CalibrationTest, InfantMortalityShare) {
  // Fig 6: ~25% of failures occur within the first 90 days.
  const ModelStats& s = stats_for(GetParam());
  ASSERT_GT(s.failures, 0u);
  const double share = static_cast<double>(s.young_failures) / static_cast<double>(s.failures);
  EXPECT_GT(share, 0.10);
  EXPECT_LT(share, 0.40);
}

TEST_P(CalibrationTest, ZeroUeFractionsMatchFig10) {
  // Fig 10: ~80% of non-failed drives never see a UE; failed drives see
  // them far more often (young 68%, old 45% zero-UE in the paper).
  const ModelStats& s = stats_for(GetParam());
  const double nf = static_cast<double>(s.not_failed_no_ue) / static_cast<double>(s.not_failed);
  EXPECT_NEAR(nf, 0.80, 0.07);
  if (s.failed_old >= 30) {
    const double old_frac =
        static_cast<double>(s.failed_no_ue_old) / static_cast<double>(s.failed_old);
    EXPECT_GT(old_frac, 0.20);
    EXPECT_LT(old_frac, 0.62);
    EXPECT_LT(old_frac, nf) << "failed drives must see more UEs than healthy ones";
  }
  if (s.failed_young >= 30) {
    const double young_frac =
        static_cast<double>(s.failed_no_ue_young) / static_cast<double>(s.failed_young);
    EXPECT_GT(young_frac, 0.35);
    EXPECT_LT(young_frac, 0.90);
  }
}

TEST_P(CalibrationTest, SwapLagDistributionMatchesFig4) {
  const ModelStats& s = stats_for(GetParam());
  ASSERT_GT(s.swap_lags.size(), 30u);
  double within7 = 0;
  double over100 = 0;
  for (double lag : s.swap_lags) {
    if (lag <= 7.0) ++within7;
    if (lag > 100.0) ++over100;
  }
  within7 /= static_cast<double>(s.swap_lags.size());
  over100 /= static_cast<double>(s.swap_lags.size());
  EXPECT_GT(within7, 0.60);  // paper: ~80% within a week
  EXPECT_LT(within7, 0.92);
  EXPECT_GT(over100, 0.015);  // paper: ~8% beyond 100 days
  EXPECT_LT(over100, 0.14);
}

TEST_P(CalibrationTest, AgeAndWearCorrelate) {
  // Table 2: rho(drive age, P/E cycles) = 0.73.
  const ModelStats& s = stats_for(GetParam());
  const double rho = stats::spearman(s.max_age, s.pe_end);
  EXPECT_GT(rho, 0.50);
  EXPECT_LT(rho, 0.90);
}

TEST_P(CalibrationTest, UncorrectableAndFinalReadNearlyIdentical) {
  // Table 2: rho = 0.97 — they describe the same event.
  const ModelStats& s = stats_for(GetParam());
  const double rho = stats::spearman(s.ue_cum, s.final_read_cum);
  EXPECT_GT(rho, 0.85);
}

TEST_P(CalibrationTest, BadBlocksTrackSeriousErrors) {
  // Table 2: rho(bad blocks, UE) ~ 0.37, rho(bad blocks, erase) ~ 0.38.
  const ModelStats& s = stats_for(GetParam());
  const double rho_ue = stats::spearman(s.bad_blocks, s.ue_cum);
  const double rho_erase = stats::spearman(s.bad_blocks, s.erase_cum);
  EXPECT_GT(rho_ue, 0.15);
  EXPECT_LT(rho_ue, 0.65);
  EXPECT_GT(rho_erase, 0.15);
}

TEST_P(CalibrationTest, SomeSwappedDrivesReenter) {
  // Table 5: 40-60% of swapped drives eventually return, but window
  // censoring cuts the observable fraction down.
  const ModelStats& s = stats_for(GetParam());
  ASSERT_GT(s.swaps, 0u);
  const double frac = static_cast<double>(s.reentries) / static_cast<double>(s.swaps);
  EXPECT_GT(frac, 0.03);
  EXPECT_LT(frac, 0.60);
}

TEST_P(CalibrationTest, MaxAgeDistributionMatchesFig1) {
  // Fig 1: >50% of drives are observed for 4+ years.
  const ModelStats& s = stats_for(GetParam());
  double over4y = 0;
  for (double a : s.max_age)
    if (a >= 4 * 365.0) ++over4y;
  over4y /= static_cast<double>(s.max_age.size());
  EXPECT_GT(over4y, 0.35);
  EXPECT_LT(over4y, 0.75);
}

// The paper's published statistics cover the three MLC study models only;
// HDD/NVMe calibration lives in tests/sim/test_device_classes.cpp against
// the Pinciroli-derived targets.  The target arrays above are indexed by
// the MLC model values, and stats_for's flat-index math assumes the
// default (MLC-only) fleet layout.
INSTANTIATE_TEST_SUITE_P(MlcModels, CalibrationTest,
                         ::testing::ValuesIn(trace::kMlcModels),
                         [](const auto& param_info) {
                           std::string name(trace::model_name(param_info.param));
                           return name.substr(name.find('-') + 1);
                         });

TEST(CalibrationCrossModel, FailureOrderingMatchesTable3) {
  const double fa = static_cast<double>(stats_for(DriveModel::MlcA).drives_failed);
  const double fb = static_cast<double>(stats_for(DriveModel::MlcB).drives_failed);
  const double fd = static_cast<double>(stats_for(DriveModel::MlcD).drives_failed);
  EXPECT_GT(fb, fa * 1.4);
  EXPECT_GT(fd, fa * 1.2);
}

TEST(CalibrationCrossModel, WriteErrorQuirkVisibleInData) {
  const auto rate = [](DriveModel m) {
    const ModelStats& s = stats_for(m);
    return static_cast<double>(s.error_days[static_cast<std::size_t>(ErrorType::kWrite)]) /
           static_cast<double>(s.drive_days);
  };
  EXPECT_GT(rate(DriveModel::MlcB), 4.0 * rate(DriveModel::MlcA));
}

}  // namespace
}  // namespace ssdfail::sim
