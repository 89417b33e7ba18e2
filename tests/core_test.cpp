#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "core/flops_profiler.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "core/restrict_op.hpp"
#include "fi/campaign.hpp"
#include "graph/builder.hpp"
#include "pass_free_plan.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rangerpp::core {
namespace {

using graph::GraphBuilder;
using tensor::Shape;
using tensor::Tensor;

// relu -> maxpool -> flatten net exercising Algorithm 1's extension rules.
graph::Graph relu_pool_net() {
  GraphBuilder b;
  b.input("input", Shape{1, 4, 4, 1});
  b.conv2d("conv", Tensor::full(Shape{3, 3, 1, 2}, 0.3f),
           Tensor(Shape{2}), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  return b.finish();
}

// Concat net: two relu branches merged (the SqueezeNet fire pattern).
graph::Graph concat_net() {
  GraphBuilder b;
  b.input("input", Shape{1, 2, 2, 1});
  const graph::NodeId stem = b.current();
  b.conv2d("conv_a", Tensor::full(Shape{1, 1, 1, 1}, 1.0f),
           Tensor(Shape{1}), {1, 1, ops::Padding::kSame});
  b.activation("relu_a", ops::OpKind::kRelu);
  const graph::NodeId a = b.current();
  b.set_current(stem);
  b.conv2d("conv_b", Tensor::full(Shape{1, 1, 1, 1}, 2.0f),
           Tensor(Shape{1}), {1, 1, ops::Padding::kSame});
  b.activation("relu_b", ops::OpKind::kRelu);
  const graph::NodeId bb = b.current();
  b.concat("concat", a, bb);
  return b.finish();
}

std::vector<fi::Feeds> const_feeds(float v, int n = 3) {
  std::vector<fi::Feeds> feeds;
  for (int i = 0; i < n; ++i)
    feeds.push_back({{"input",
                      Tensor::full(Shape{1, 4, 4, 1},
                                   v + 0.1f * static_cast<float>(i))}});
  return feeds;
}

// ---- RangeProfiler ----------------------------------------------------------

TEST(RangeProfiler, ObservesActivationExtrema) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const RangeProfile p = prof.profile(g, const_feeds(1.0f));
  const util::RunningRange r = p.range_of("relu");
  EXPECT_GT(r.count, 0u);
  // conv of all-1.2 inputs with 0.3 kernel: centre 9*0.3*1.2 = 3.24 max.
  EXPECT_GT(r.max_value, 2.0f);
  EXPECT_GE(r.min_value, 0.0f);  // relu output is non-negative
  EXPECT_THROW(p.range_of("conv"), std::invalid_argument);  // not an ACT
}

TEST(RangeProfiler, BoundsAtFullPercentileEqualExtrema) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const RangeProfile p = prof.profile(g, const_feeds(1.0f));
  const Bounds b = p.bounds(100.0);
  ASSERT_TRUE(b.contains("relu"));
  const util::RunningRange r = p.range_of("relu");
  EXPECT_FLOAT_EQ(b.at("relu").up, r.max_value);
  EXPECT_FLOAT_EQ(b.at("relu").low, r.min_value);
}

TEST(RangeProfiler, PercentileBoundTightens) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const RangeProfile p = prof.profile(g, const_feeds(1.0f, 20));
  const Bounds full = p.bounds(100.0);
  const Bounds tight = p.bounds(90.0);
  EXPECT_LE(tight.at("relu").up, full.at("relu").up);
  EXPECT_THROW(p.bounds(0.0), std::invalid_argument);
  EXPECT_THROW(p.bounds(101.0), std::invalid_argument);
}

TEST(RangeProfiler, AnalyticBoundsForTanhSigmoid) {
  GraphBuilder b;
  b.input("input", Shape{4});
  b.activation("tanh", ops::OpKind::kTanh);
  b.activation("sigmoid", ops::OpKind::kSigmoid);
  const graph::Graph g = b.finish();
  const RangeProfiler prof;
  const Bounds bounds = prof.derive_bounds(
      g, {{{"input", Tensor(Shape{4}, {-1, 0, 1, 2})}}});
  EXPECT_FLOAT_EQ(bounds.at("tanh").low, -1.0f);
  EXPECT_FLOAT_EQ(bounds.at("tanh").up, 1.0f);
  EXPECT_FLOAT_EQ(bounds.at("sigmoid").low, 0.0f);
  EXPECT_FLOAT_EQ(bounds.at("sigmoid").up, 1.0f);
}

// Two-conv net with seeded random weights: `act1` after the first conv,
// `act2` after the second.
graph::Graph two_act_net(ops::OpKind act1, ops::OpKind act2) {
  util::Rng rng(17);
  const auto random = [&rng](Shape shape) {
    Tensor t(shape);
    for (float& v : t.mutable_values())
      v = static_cast<float>(rng.normal(0.0, 0.6));
    return t;
  };
  GraphBuilder b;
  b.input("input", Shape{1, 6, 6, 2});
  b.conv2d("conv1", random(Shape{3, 3, 2, 4}), random(Shape{4}),
           {1, 1, ops::Padding::kSame});
  b.activation("act1", act1);
  b.conv2d("conv2", random(Shape{3, 3, 4, 4}), random(Shape{4}),
           {1, 1, ops::Padding::kSame});
  b.activation("act2", act2);
  b.flatten("flatten");
  return b.finish();
}

std::vector<fi::Feeds> random_feeds(std::size_t n) {
  util::Rng rng(99);
  std::vector<fi::Feeds> feeds;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor t(Shape{1, 6, 6, 2});
    for (float& v : t.mutable_values())
      v = static_cast<float>(rng.normal(0.0, 1.0));
    feeds.push_back({{"input", t}});
  }
  return feeds;
}

struct ReferenceLayer {
  util::RunningRange range;
  util::Reservoir reservoir;
};

// Serial reference profiler: one arena, one pass over the stream in
// order, the hook feeding each non-analytic activation layer's
// RunningRange and Reservoir value by value.
std::map<std::string, ReferenceLayer> serial_reference(
    const graph::Graph& g, const std::vector<fi::Feeds>& samples,
    const ProfileOptions& o) {
  std::map<std::string, ReferenceLayer> layers;
  for (const graph::Node& n : g.nodes()) {
    const ops::OpKind k = n.op->kind();
    if (!ops::is_activation(k) || k == ops::OpKind::kTanh ||
        k == ops::OpKind::kSigmoid || k == ops::OpKind::kRelu6)
      continue;
    layers.emplace(
        n.name,
        ReferenceLayer{{},
                       util::Reservoir(o.reservoir_capacity,
                                       util::derive_seed(
                                           o.seed, static_cast<std::uint64_t>(
                                                       n.id)))});
  }
  const graph::Executor exec({tensor::DType::kFloat32});
  const graph::ExecutionPlan plan =
      pass_free_plan(g, tensor::DType::kFloat32);
  graph::Arena arena;
  for (const fi::Feeds& feeds : samples)
    exec.run(plan, feeds, arena,
             [&layers](const graph::Node& node, Tensor& out) {
               const auto it = layers.find(node.name);
               if (it == layers.end()) return;
               for (float v : out.values()) {
                 it->second.range.observe(v);
                 it->second.reservoir.observe(v);
               }
             });
  return layers;
}

// The bound RangeProfile::bounds derives from one layer's statistics.
Bound reference_bound(const ReferenceLayer& l, double q) {
  if (q >= 100.0) return {l.range.min_value, l.range.max_value};
  const auto sample = l.reservoir.values();
  const float up = static_cast<float>(util::percentile(sample, q));
  const float low =
      l.range.min_value >= 0.0f
          ? l.range.min_value
          : static_cast<float>(util::percentile(sample, 100.0 - q));
  return {low, up};
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(RangeProfiler, ParallelProfileMatchesSerialReference) {
  ProfileOptions opts;
  // Smaller than one sample's activations, so reservoir replacement
  // depends on the order values arrive in.
  opts.reservoir_capacity = 64;
  const graph::Graph relu_net =
      two_act_net(ops::OpKind::kRelu, ops::OpKind::kRelu);
  const graph::Graph tanh_net =
      two_act_net(ops::OpKind::kTanh, ops::OpKind::kElu);
  for (const graph::Graph* g : {&relu_net, &tanh_net}) {
    // 37 is not a multiple of the profiler's sample chunk.
    for (const std::size_t n : {std::size_t{1}, std::size_t{37}}) {
      const std::vector<fi::Feeds> feeds = random_feeds(n);
      const auto ref = serial_reference(*g, feeds, opts);
      const RangeProfile prof = RangeProfiler{opts}.profile(*g, feeds);
      for (const auto& [name, want] : ref) {
        SCOPED_TRACE(name + " with " + std::to_string(n) + " samples");
        const RangeProfile::LayerStats& got = prof.layers().at(name);
        EXPECT_EQ(got.range.count, want.range.count);
        EXPECT_TRUE(same_bits(got.range.min_value, want.range.min_value));
        EXPECT_TRUE(same_bits(got.range.max_value, want.range.max_value));
        EXPECT_EQ(got.reservoir.seen(), want.reservoir.seen());
        const auto a = got.reservoir.values();
        const auto b = want.reservoir.values();
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
                  0);
      }
      for (const double q : {100.0, 99.9}) {
        ProfileOptions at_q = opts;
        at_q.percentile = q;
        const Bounds from_profile = prof.bounds(q);
        const Bounds derived = RangeProfiler{at_q}.derive_bounds(*g, feeds);
        ASSERT_EQ(derived.size(), from_profile.size());
        for (const auto& [name, b] : derived) {
          SCOPED_TRACE(name + " at p" + std::to_string(q) + " with " +
                       std::to_string(n) + " samples");
          const auto it = ref.find(name);
          const Bound want = it == ref.end() ? Bound{-1.0f, 1.0f}  // tanh
                                             : reference_bound(it->second, q);
          EXPECT_TRUE(same_bits(b.low, want.low));
          EXPECT_TRUE(same_bits(b.up, want.up));
          EXPECT_TRUE(same_bits(from_profile.at(name).low, want.low));
          EXPECT_TRUE(same_bits(from_profile.at(name).up, want.up));
        }
      }
    }
  }
}

// ---- RangerTransform ---------------------------------------------------------

TEST(RangerTransform, InsertsClampAfterActAndTransparentOps) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 5.0f}}};
  RangerTransform transform;
  const graph::Graph protected_g = transform.apply(g, bounds);

  // relu, pool and flatten each gain a restriction op.
  EXPECT_NE(protected_g.find("relu/ranger"), graph::kInvalidNode);
  EXPECT_NE(protected_g.find("pool/ranger"), graph::kInvalidNode);
  EXPECT_NE(protected_g.find("flatten/ranger"), graph::kInvalidNode);
  EXPECT_EQ(transform.last_stats().restriction_ops_inserted, 3u);
  EXPECT_EQ(transform.last_stats().activations_bounded, 1u);
  EXPECT_EQ(transform.last_stats().transparent_ops_bounded, 2u);
  EXPECT_EQ(transform.last_stats().bound_values_stored(), 6u);

  // Original names all survive (fault-replay compatibility).
  for (const graph::Node& n : g.nodes())
    EXPECT_NE(protected_g.find(n.name), graph::kInvalidNode) << n.name;
}

TEST(RangerTransform, PreservesFaultFreeOutput) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const Bounds bounds = prof.derive_bounds(g, const_feeds(1.0f));
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);

  const graph::ExecutionPlan p0 = pass_free_plan(g, tensor::DType::kFloat32);
  const graph::ExecutionPlan p1 =
      pass_free_plan(protected_g, tensor::DType::kFloat32);
  const graph::Executor exec;
  graph::Arena a0, a1;
  for (const fi::Feeds& feeds : const_feeds(1.0f)) {
    const Tensor y0 = exec.run(p0, feeds, a0);
    const Tensor y1 = exec.run(p1, feeds, a1);
    ASSERT_EQ(y0.elements(), y1.elements());
    for (std::size_t i = 0; i < y0.elements(); ++i)
      EXPECT_FLOAT_EQ(y0.at(i), y1.at(i));
  }
}

TEST(RangerTransform, RestrictsInjectedFault) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 4.0f}}};
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);
  const graph::ExecutionPlan p0 = pass_free_plan(g, tensor::DType::kFloat32);
  const graph::ExecutionPlan p1 =
      pass_free_plan(protected_g, tensor::DType::kFloat32);
  const graph::Executor exec;
  graph::Arena arena;
  const fi::Feeds feeds{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}};

  // Corrupt the relu output with a huge value; the protected graph's
  // output must stay within what a 4.0-bounded activation can produce.
  const auto corrupt = [](const graph::Node& n, Tensor& out) {
    if (n.name == "relu") out.set(0, 1e9f);
  };
  const Tensor bad = exec.run(p0, feeds, arena, corrupt);
  const Tensor good = exec.run(p1, feeds, arena, corrupt);
  float bad_max = 0.0f, good_max = 0.0f;
  for (float v : bad.values()) bad_max = std::max(bad_max, v);
  for (float v : good.values()) good_max = std::max(good_max, v);
  EXPECT_GE(bad_max, 1e8f);
  EXPECT_LE(good_max, 4.0f);
}

TEST(RangerTransform, ConcatMergesBranchBounds) {
  const graph::Graph g = concat_net();
  const Bounds bounds{{"relu_a", {0.0f, 2.0f}}, {"relu_b", {-1.0f, 7.0f}}};
  RangerTransform transform;
  const graph::Graph protected_g = transform.apply(g, bounds);
  const graph::NodeId concat_clamp = protected_g.find("concat/ranger");
  ASSERT_NE(concat_clamp, graph::kInvalidNode);
  const auto* clamp = dynamic_cast<const ops::ClampOp*>(
      protected_g.node(concat_clamp).op.get());
  ASSERT_NE(clamp, nullptr);
  // Merged bound = (min lows, max ups) — Algorithm 1 lines 7-8.
  EXPECT_FLOAT_EQ(clamp->low(), -1.0f);
  EXPECT_FLOAT_EQ(clamp->high(), 7.0f);
}

TEST(RangerTransform, ConcatWithOneUnboundedBranchIsNotRestricted) {
  const graph::Graph g = concat_net();
  const Bounds bounds{{"relu_a", {0.0f, 2.0f}}};  // relu_b unprofiled
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);
  EXPECT_EQ(protected_g.find("concat/ranger"), graph::kInvalidNode);
}

TEST(RangerTransform, UnboundedActivationsAreLeftAlone) {
  const graph::Graph g = relu_pool_net();
  const graph::Graph protected_g = RangerTransform{}.apply(g, {});
  EXPECT_EQ(protected_g.size(), g.size());
  EXPECT_EQ(RangerTransform{}.last_stats().restriction_ops_inserted, 0u);
}

// ---- Restriction policies (§VI-C design alternatives) -------------------------

TEST(RestrictionPolicies, ZeroResetZeroesOutOfBound) {
  const ZeroResetOp op(0.0f, 1.0f);
  const Tensor x(Shape{3}, {0.5f, 2.0f, -1.0f});
  const Tensor y = op.compute(std::array{x});
  EXPECT_FLOAT_EQ(y.at(0), 0.5f);
  EXPECT_FLOAT_EQ(y.at(1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(2), 0.0f);
}

TEST(RestrictionPolicies, RandomReplaceStaysInBoundsAndIsDeterministic) {
  const RandomReplaceOp op(0.0f, 1.0f, 42);
  const Tensor x(Shape{4}, {0.5f, 5.0f, -3.0f, 0.9f});
  const Tensor y1 = op.compute(std::array{x});
  const Tensor y2 = op.compute(std::array{x});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(y1.at(i), 0.0f);
    EXPECT_LE(y1.at(i), 1.0f);
    EXPECT_FLOAT_EQ(y1.at(i), y2.at(i));  // deterministic
  }
  EXPECT_FLOAT_EQ(y1.at(0), 0.5f);  // in-bound values untouched
}

TEST(RestrictionPolicies, TransformHonoursPolicyChoice) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 1.0f}}};
  const graph::Graph zeroed =
      RangerTransform{{RestrictionPolicy::kZero}}.apply(g, bounds);
  const fi::Feeds feeds{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}};
  // relu outputs exceed 1.0 for this input, so zero-reset nukes them and
  // the final output collapses to 0 — the accuracy catastrophe of §VI-C.
  const Tensor y = float_output(zeroed, feeds);
  for (float v : y.values()) EXPECT_FLOAT_EQ(v, 0.0f);
}

// ---- FLOPs profiler -----------------------------------------------------------

TEST(FlopsProfiler, CountsPerKindAndTotal) {
  // Per-kind accounting goes through the metrics registry, not a
  // bespoke report field.
  util::metrics::set_enabled(true);
  util::metrics::reset();
  const graph::Graph g = relu_pool_net();
  const FlopsReport r = profile_flops(g);
  util::metrics::set_enabled(false);
  EXPECT_GT(r.total, 0u);
  EXPECT_EQ(util::metrics::counter_value("flops.total"), r.total);
  EXPECT_GT(util::metrics::counter_value("flops.Conv2D"), 0u);
  EXPECT_GT(util::metrics::counter_value("flops.Relu"), 0u);
  // Conv dominates this net.
  EXPECT_GT(util::metrics::counter_value("flops.Conv2D"),
            util::metrics::counter_value("flops.Relu"));
  util::metrics::reset();
}

TEST(FlopsProfiler, RangerOverheadIsSmallAndPositive) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 5.0f}}};
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);
  const double pct = flops_overhead_pct(g, protected_g);
  EXPECT_GT(pct, 0.0);
  EXPECT_LT(pct, 50.0);  // tiny nets have high relative clamp cost
}

}  // namespace
}  // namespace rangerpp::core
