#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "graph/executor.hpp"
#include "models/build.hpp"
#include "models/weights.hpp"
#include "models/workload.hpp"
#include "models/zoo.hpp"
#include "pass_free_plan.hpp"
#include "util/metrics.hpp"

namespace rangerpp::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor input_for(ModelId id) {
  switch (id) {
    case ModelId::kLeNet: return Tensor::full(Shape{1, 28, 28, 1}, 0.5f);
    case ModelId::kDave:
    case ModelId::kDaveDegrees:
      return Tensor::full(Shape{1, 66, 100, 3}, 0.5f);
    case ModelId::kComma: return Tensor::full(Shape{1, 33, 80, 3}, 0.5f);
    default: return Tensor::full(Shape{1, 32, 32, 3}, 0.5f);
  }
}

constexpr ModelId kAllModels[] = {
    ModelId::kLeNet,      ModelId::kAlexNet, ModelId::kVgg11,
    ModelId::kVgg16,      ModelId::kResNet18, ModelId::kSqueezeNet,
    ModelId::kDave,       ModelId::kDaveDegrees, ModelId::kComma};

class ZooModelTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(ZooModelTest, BuildsAndRunsEndToEnd) {
  const ModelId id = GetParam();
  const Weights w = init_weights(id, default_act(id), 42);
  const graph::Graph g = build_model(id, default_act(id), w);
  const Tensor out = float_output(g, {{"input", input_for(id)}});
  if (is_steering(id)) {
    EXPECT_EQ(out.elements(), 1u);
  } else {
    EXPECT_EQ(out.elements(),
              static_cast<std::size_t>(num_classes(id)));
    // Softmax output sums to ~1.
    float sum = 0.0f;
    for (float v : out.values()) sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-3);
  }
}

TEST_P(ZooModelTest, OutputHeadIsNotInjectable) {
  const ModelId id = GetParam();
  const Weights w = init_weights(id, default_act(id), 42);
  const graph::Graph g = build_model(id, default_act(id), w);
  // The output node and its producer chain down to the last FC layer must
  // be excluded from injection (paper §V-B).
  const graph::Node& out = g.node(g.output());
  EXPECT_FALSE(out.injectable) << out.name;
}

TEST_P(ZooModelTest, RangerTransformPreservesFaultFreeOutput) {
  const ModelId id = GetParam();
  const Weights w = init_weights(id, default_act(id), 42);
  const graph::Graph g = build_model(id, default_act(id), w);

  std::vector<fi::Feeds> profile;
  for (int i = 0; i < 3; ++i)
    profile.push_back({{"input", input_for(id)}});
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(g, profile);
  EXPECT_FALSE(bounds.empty());
  const graph::Graph protected_g = core::RangerTransform{}.apply(g, bounds);
  EXPECT_GT(protected_g.size(), g.size());

  const Tensor y0 = float_output(g, {{"input", input_for(id)}});
  const Tensor y1 = float_output(protected_g, {{"input", input_for(id)}});
  ASSERT_EQ(y0.elements(), y1.elements());
  for (std::size_t i = 0; i < y0.elements(); ++i)
    EXPECT_FLOAT_EQ(y0.at(i), y1.at(i)) << model_name(id);
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, ZooModelTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           std::string n = model_name(info.param);
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(Zoo, Metadata) {
  EXPECT_TRUE(reports_top5(ModelId::kVgg16));
  EXPECT_TRUE(reports_top5(ModelId::kResNet18));
  EXPECT_TRUE(reports_top5(ModelId::kSqueezeNet));
  EXPECT_FALSE(reports_top5(ModelId::kLeNet));
  EXPECT_TRUE(is_steering(ModelId::kDave));
  EXPECT_TRUE(outputs_radians(ModelId::kDave));
  EXPECT_FALSE(outputs_radians(ModelId::kDaveDegrees));
  EXPECT_FALSE(outputs_radians(ModelId::kComma));
  EXPECT_EQ(num_classes(ModelId::kVgg11), 43);
  EXPECT_EQ(default_act(ModelId::kComma), ops::OpKind::kElu);
  EXPECT_EQ(default_act(ModelId::kLeNet), ops::OpKind::kRelu);
}

TEST(Zoo, BranchingModelsHaveNoSequentialArch) {
  EXPECT_THROW(make_arch(ModelId::kResNet18), std::invalid_argument);
  EXPECT_THROW(make_arch(ModelId::kSqueezeNet), std::invalid_argument);
}

TEST(Zoo, TanhVariantSwapsEveryActivation) {
  const Weights w = init_weights(ModelId::kLeNet, ops::OpKind::kTanh, 1);
  const graph::Graph g = build_model(ModelId::kLeNet, ops::OpKind::kTanh, w);
  for (const graph::Node& n : g.nodes()) {
    EXPECT_NE(n.op->kind(), ops::OpKind::kRelu) << n.name;
  }
}

TEST(Zoo, SqueezeNetUsesConcat) {
  const graph::Graph g =
      build_model(ModelId::kSqueezeNet, ops::OpKind::kRelu, {});
  bool found = false;
  for (const graph::Node& n : g.nodes())
    if (n.op->kind() == ops::OpKind::kConcat) found = true;
  EXPECT_TRUE(found);
}

TEST(Zoo, ResNetUsesResidualAdds) {
  const graph::Graph g =
      build_model(ModelId::kResNet18, ops::OpKind::kRelu, {});
  int adds = 0;
  for (const graph::Node& n : g.nodes())
    if (n.op->kind() == ops::OpKind::kAdd) ++adds;
  EXPECT_EQ(adds, 8);  // 4 stages x 2 blocks
}

TEST(Zoo, Vgg16HasThirteenConvActivations) {
  const Arch a = make_arch(ModelId::kVgg16);
  int conv_acts = 0;
  for (const LayerDef& d : a.layers)
    if (const auto* act = std::get_if<ActDef>(&d))
      if (act->name.rfind("act_conv", 0) == 0) ++conv_acts;
  EXPECT_EQ(conv_acts, 13);  // Fig 4: "13 ACT layers in total"
}

TEST(Workload, UntrainedClassifierWorkload) {
  WorkloadOptions opt;
  opt.trained = false;
  opt.profile_samples = 5;
  opt.eval_inputs = 3;
  opt.validation_samples = 10;
  const Workload w = make_workload(ModelId::kAlexNet, opt);
  EXPECT_EQ(w.eval_feeds.size(), 3u);
  EXPECT_EQ(w.profile_feeds.size(), 5u);
  EXPECT_EQ(w.validation.samples.size(), 10u);
  // The graph runs on its own eval feeds.
  const Tensor out = float_output(w.graph, w.eval_feeds[0]);
  EXPECT_EQ(out.elements(), 10u);
}

TEST(Workload, UntrainedWorkloadSynthesisesOnlyTheSamplesItReads) {
  // Without a weight-cache miss nothing trains, so the training range
  // beyond the profiling prefix is never synthesised: VGG16's 5000-sample
  // training set costs only its 200 profiling samples.
  WorkloadOptions opt;
  opt.trained = false;
  const bool was_enabled = util::metrics::enabled();
  util::metrics::set_enabled(true);
  util::metrics::reset();
  const Workload w = make_workload(ModelId::kVgg16, opt);
  const std::uint64_t synthesised =
      util::metrics::counter_value("data.samples");
  util::metrics::reset();
  util::metrics::set_enabled(was_enabled);
  EXPECT_EQ(synthesised, opt.profile_samples + opt.validation_samples);
  EXPECT_EQ(synthesised, 400u);
  EXPECT_EQ(w.profile_feeds.size(), opt.profile_samples);
  EXPECT_EQ(w.validation.samples.size(), opt.validation_samples);
}

TEST(Workload, WeightCachePathIsKeyedBySeed) {
  namespace fs = std::filesystem;
  const auto file = [](ModelId id, ops::OpKind act, std::uint64_t seed,
                       const std::string& part) {
    return fs::path(weight_cache_path(id, act, seed, part))
        .filename()
        .string();
  };
  // The default seed keeps the seedless names existing caches use.
  EXPECT_EQ(file(ModelId::kLeNet, ops::OpKind::kRelu, kDefaultWorkloadSeed,
                 ""),
            "LeNet_relu.bin");
  EXPECT_EQ(file(ModelId::kVgg16, ops::OpKind::kRelu, 2021, "head"),
            "VGG16_relu_head.bin");
  // Any other seed trains on other data, so it gets its own files.
  EXPECT_EQ(file(ModelId::kLeNet, ops::OpKind::kRelu, 7, ""),
            "LeNet_relu_s7.bin");
  EXPECT_EQ(file(ModelId::kVgg16, ops::OpKind::kTanh, 7, "head"),
            "VGG16_tanh_s7_head.bin");
  EXPECT_EQ(fs::path(weight_cache_path(ModelId::kLeNet, ops::OpKind::kRelu,
                                       2021))
                .parent_path(),
            fs::path(weight_cache_dir()));
}

TEST(Workload, JudgesMatchModelKind) {
  EXPECT_EQ(default_judges(ModelId::kLeNet).size(), 1u);
  EXPECT_EQ(default_judges(ModelId::kVgg16).size(), 2u);
  EXPECT_EQ(default_judges(ModelId::kDave).size(), 4u);
  EXPECT_EQ(judge_labels(ModelId::kDave).size(), 4u);
  EXPECT_EQ(judge_labels(ModelId::kResNet18)[1], "ResNet-18 (top-5)");
}

TEST(WeightIo, RoundTripsAndValidatesFileSize) {
  Weights w;
  w.emplace("conv/filter", Tensor::full(Shape{3, 3, 1, 2}, 0.25f));
  w.emplace("fc/bias", Tensor::full(Shape{4}, -1.0f));
  const std::string path = testing::TempDir() + "/weights_roundtrip.bin";
  save_weights(w, path);

  Weights loaded;
  ASSERT_TRUE(load_weights(loaded, path));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at("conv/filter").shape(), (Shape{3, 3, 1, 2}));
  EXPECT_FLOAT_EQ(loaded.at("fc/bias").at(0), -1.0f);

  // Absent file: plain false (the caller trains and writes the cache).
  Weights none;
  EXPECT_FALSE(load_weights(none, testing::TempDir() + "/no_such.bin"));

  // Truncated file: the size its own header describes no longer matches —
  // must throw a clear error, never silently accept or retrain over it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated = testing::TempDir() + "/weights_trunc.bin";
  {
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 7));
  }
  Weights t;
  try {
    load_weights(t, truncated);
    FAIL() << "truncated cache was silently accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(truncated), std::string::npos) << msg;
    EXPECT_NE(msg.find("bytes"), std::string::npos) << msg;
  }

  // Trailing garbage after the last entry is corruption too.
  const std::string padded = testing::TempDir() + "/weights_padded.bin";
  {
    std::ofstream out(padded, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write("junk", 4);
  }
  EXPECT_THROW(load_weights(t, padded), std::runtime_error);
}

// Writers rename a finished temp file over the cache path, so a reader
// racing them sees either no file or a complete one — never a prefix
// (which load_weights rejects as corrupt by design).
TEST(WeightIo, ConcurrentReadersNeverSeeAPartialFile) {
  Weights w;
  w.emplace("big/filter", Tensor::full(Shape{64, 64, 4, 4}, 0.5f));
  w.emplace("big/bias", Tensor::full(Shape{16}, 1.0f));
  const std::string path = testing::TempDir() + "/weights_race.bin";
  std::filesystem::remove(path);

  std::atomic<bool> done{false};
  std::atomic<int> absent{0}, complete{0}, bad{0};
  std::thread reader([&] {
    while (!done.load()) {
      Weights got;
      try {
        if (!load_weights(got, path)) {
          ++absent;
        } else if (got.size() == 2 &&
                   got.at("big/filter").elements() == 64u * 64 * 4 * 4) {
          ++complete;
        } else {
          ++bad;
        }
      } catch (const std::exception&) {
        ++bad;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) save_weights(w, path);
    });
  for (std::thread& t : writers) t.join();
  done = true;
  reader.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(absent.load() + complete.load(), 0);
  // No temp file is left behind next to the cache.
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path()))
    EXPECT_EQ(e.path().filename().string().find("weights_race.bin.tmp"),
              std::string::npos)
        << e.path();
}

TEST(Workload, TrainedLeNetReachesUsableAccuracy) {
  WorkloadOptions opt;
  opt.validation_samples = 100;
  const Workload w = make_workload(ModelId::kLeNet, opt);
  const double acc = top1_accuracy(w.graph, w.input_name, w.validation);
  // Synthetic digits are easy; the trained LeNet must be well above chance
  // for the accuracy experiments (Table II) to mean anything.
  EXPECT_GT(acc, 0.8) << "trained LeNet accuracy " << acc;
}

TEST(Workload, TrainedSteeringModelBeatsPredictingZero) {
  WorkloadOptions opt;
  opt.validation_samples = 60;
  const Workload w = make_workload(ModelId::kComma, opt);
  const SteeringMetrics m =
      steering_metrics(w.graph, w.input_name, w.validation, false);
  // Predicting 0 for angles uniform in [-60, 60] gives RMSE ~34.6.
  EXPECT_LT(m.rmse, 30.0) << "Comma RMSE " << m.rmse;
  EXPECT_LT(m.avg_deviation, m.rmse + 1e-9);
}

}  // namespace
}  // namespace rangerpp::models
