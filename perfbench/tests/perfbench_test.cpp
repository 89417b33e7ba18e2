// Tests of the benchmark itself: its inputs are pure functions of the
// seed, its tail statistic follows the stated rule, and its traced
// layer runner reproduces Suite::run.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "../src/bench.hpp"
#include "fi/scheduler.hpp"

using namespace perfbench;

namespace {

std::vector<std::string> wire(const std::vector<fi::SuiteSpec>& specs) {
  std::vector<std::string> out;
  for (const fi::SuiteSpec& s : specs)
    out.push_back(fi::serialize_suite_spec(s));
  return out;
}

// The spec with its name blanked: two requests carry the same grid
// exactly when these strings are equal.
std::string grid_key(fi::SuiteSpec spec) {
  spec.name = "grid";
  return fi::serialize_suite_spec(spec);
}

TEST(ServeMix, IsAPureFunctionOfTheSeed) {
  EXPECT_EQ(wire(serve_requests(7, 400)), wire(serve_requests(7, 400)));
  EXPECT_NE(wire(serve_requests(7, 400)), wire(serve_requests(8, 400)));
  for (const Workload w : {Workload::kZooSetup, Workload::kCampaignLong}) {
    EXPECT_EQ(wire({oneshot_spec(w, 7, 4)}), wire({oneshot_spec(w, 7, 4)}));
    EXPECT_NE(wire({oneshot_spec(w, 7, 4)}), wire({oneshot_spec(w, 8, 4)}));
  }
  // A longer mix extends a shorter one: clients that issue more requests
  // see the same first requests.
  const auto longer = wire(serve_requests(7, 800));
  const auto shorter = wire(serve_requests(7, 400));
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
}

TEST(ServeMix, HasNoDuplicateGridsOrNames) {
  const std::vector<fi::SuiteSpec> mix = serve_requests(11, 3000);
  std::set<std::string> grids, names;
  for (const fi::SuiteSpec& s : mix) {
    grids.insert(grid_key(s));
    names.insert(s.name);
  }
  for (const fi::SuiteSpec& s : serve_warmup()) names.insert(s.name);
  EXPECT_EQ(grids.size(), mix.size());
  EXPECT_EQ(names.size(), mix.size() + serve_warmup().size());
}

TEST(ServeMix, AboutHalfTheTrialsAreWeightFaults) {
  std::size_t weight = 0, total = 0;
  for (const fi::SuiteSpec& s : serve_requests(3, 1000))
    for (const fi::SuiteCell& c : fi::compile_suite(s).cells) {
      total += c.total_trials;
      if (c.fault.cls == fi::FaultClass::kWeight) weight += c.total_trials;
    }
  const double share = static_cast<double>(weight) / static_cast<double>(total);
  EXPECT_GT(share, 0.4);
  EXPECT_LT(share, 0.6);
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  // Below 20 samples the rule would pick a percentile under the median.
  for (std::size_t n = 0; n < 20; ++n)
    EXPECT_FALSE(tail_percentile(std::vector<double>(n, 1.0)).has_value());
  std::mt19937 rng(5);
  for (std::size_t n = 20; n <= 600; ++n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), rng);
    const auto t = tail_percentile(v);
    ASSERT_TRUE(t.has_value()) << n;
    EXPECT_EQ(t->samples, n);
    const auto beyond = [&](double x) {
      return std::count_if(v.begin(), v.end(), [x](double s) { return s > x; });
    };
    EXPECT_GE(beyond(t->value), 10) << n;
    // The next percentile up would leave fewer than ten beyond it.
    if (t->percentile < 99) {
      const std::size_t k =
          (static_cast<std::size_t>(t->percentile + 1) * n + 99) / 100;
      EXPECT_LT(static_cast<long>(n - k), 10) << n;
    }
  }
  std::vector<double> v(200);
  std::iota(v.begin(), v.end(), 1.0);
  const auto t = tail_percentile(v);
  EXPECT_EQ(t->percentile, 95);
  EXPECT_EQ(t->value, 190.0);
}

TEST(LayerRunner, SdcCountsEqualSuiteRun) {
  fi::SuiteSpec spec = serve_warmup().front();  // lenet
  spec.name = "layers-vs-suite";
  spec.trials_small = 12;
  spec.threads = 2;
  LayerTimes times;
  const CellSdcs driven = drive_layers({spec}, times);
  const CellSdcs suite = suite_sdcs(fi::Suite(spec).run());
  EXPECT_EQ(driven, suite);
  EXPECT_EQ(times.act_trials + times.weight_trials,
            fi::compile_suite(spec).total_trials);
  EXPECT_GT(times.weight_trials, 0u);
  EXPECT_LE(times.attributed_s(), times.wall_s);
}

TEST(LayerRunner, CapsCellsLikeMaxNewTrials) {
  fi::SuiteSpec spec = oneshot_spec(Workload::kCampaignLong, 2, 2);
  spec.models = {models::ModelId::kLeNet};
  spec.trials_small = 40;
  spec.inputs = 2;
  spec.max_new_trials = 30;
  LayerTimes times;
  const CellSdcs driven = drive_layers({spec}, times);
  EXPECT_EQ(driven, suite_sdcs(fi::Suite(spec).run()));
  EXPECT_EQ(times.act_trials, 30u * fi::compile_suite(spec).cells.size());
}

}  // namespace
