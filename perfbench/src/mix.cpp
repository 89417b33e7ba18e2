// Workload generation and the measurement helpers.  The generators are
// pure functions of their arguments: the benchmark's inputs depend on the
// seed alone, never on the host or on timing.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using models::ModelId;

constexpr ModelId kServeModels[] = {ModelId::kLeNet, ModelId::kAlexNet,
                                    ModelId::kComma};
constexpr tensor::DType kServeDtypes[] = {tensor::DType::kFixed32,
                                          tensor::DType::kFixed16};
constexpr fi::Technique kTechniques[] = {fi::Technique::kUnprotected,
                                         fi::Technique::kRanger};

// Every grid the serve workload sends shares these, so the daemon's
// engine caches (keyed by seed and input count) stay warm.
constexpr std::size_t kServeInputs = 2;

// The workload (dataset and campaign) seed of every grid: the default the
// prepare step trains under.  Weights are cached per model, not per seed,
// so a grid under another seed would pair the trained weights with data
// they never saw (VGG11 then classifies no eval input correctly and
// make_workload throws).  The benchmark seed varies everything else.
constexpr std::uint64_t kWorkloadSeed = 2021;

fi::FaultModelSpec activation_fault() { return {}; }

// A single-bit weight-memory fault without ECC (`wsingle`).
fi::FaultModelSpec weight_fault() {
  fi::FaultModelSpec f;
  f.cls = fi::FaultClass::kWeight;
  f.wkind = fi::WeightFaultKind::kSingleBit;
  return f;
}

// A stream of values derived from the benchmark seed, one per use.
util::SplitMix64 seed_stream(std::uint64_t seed, std::uint64_t salt) {
  return util::SplitMix64(util::derive_seed(seed, salt));
}

template <typename T>
void shuffle(std::vector<T>& v, util::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i)  // Fisher-Yates
    std::swap(v[i - 1], v[rng.next() % i]);
}

template <typename T, std::size_t N>
std::vector<T> subset(const T (&all)[N], std::uint64_t mask) {
  std::vector<T> out;
  for (std::size_t i = 0; i < N; ++i)
    if (mask & (1u << i)) out.push_back(all[i]);
  return out;
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "zoo-setup") return Workload::kZooSetup;
  if (name == "campaign-long") return Workload::kCampaignLong;
  if (name == "serve-mixed") return Workload::kServeMixed;
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kZooSetup: return "zoo-setup";
    case Workload::kCampaignLong: return "campaign-long";
    case Workload::kServeMixed: return "serve-mixed";
  }
  return "?";
}

fi::SuiteSpec oneshot_spec(Workload w, std::uint64_t seed, unsigned threads) {
  fi::SuiteSpec spec;
  spec.threads = threads;
  spec.seed = kWorkloadSeed;
  spec.techniques = {std::begin(kTechniques), std::end(kTechniques)};
  spec.dtypes = {tensor::DType::kFixed32};
  spec.faults = {activation_fault()};
  // The seed orders the models (and with them the cells and the set-up
  // sequence) and picks the trial count within a narrow band, which also
  // moves which input each trial runs on.
  util::SplitMix64 rng = seed_stream(seed, 0x05e);
  switch (w) {
    case Workload::kZooSetup:
      // Fixed costs dominate: eight models built, profiled, transformed
      // and compiled for a trial loop of a few hundred trials per cell.
      spec.name = "zoo-setup";
      spec.models = {std::begin(kZoo), std::end(kZoo)};
      spec.trials_small = 20 + rng.next() % 11;
      spec.inputs = 2;
      break;
    case Workload::kCampaignLong:
      // The trial loop dominates: LRN (alexnet), residual branches
      // (resnet18) and the four-judge steering model (dave).
      spec.name = "campaign-long";
      spec.models = {ModelId::kAlexNet, ModelId::kResNet18, ModelId::kDave};
      spec.trials_small = 2000 + rng.next() % 21;
      spec.inputs = 4;
      break;
    case Workload::kServeMixed:
      throw std::invalid_argument("oneshot_spec: serve-mixed is not one-shot");
  }
  shuffle(spec.models, rng);
  return spec;
}

std::vector<fi::SuiteSpec> serve_warmup() {
  std::vector<fi::SuiteSpec> out;
  for (const ModelId m : kServeModels) {
    fi::SuiteSpec spec;
    spec.name = "warm-" + models::model_token(m);
    spec.models = {m};
    spec.dtypes = {std::begin(kServeDtypes), std::end(kServeDtypes)};
    spec.faults = {activation_fault(), weight_fault()};
    spec.techniques = {std::begin(kTechniques), std::end(kTechniques)};
    spec.trials_small = 4;
    spec.inputs = kServeInputs;
    spec.seed = kWorkloadSeed;
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<fi::SuiteSpec> serve_requests(std::uint64_t seed, std::size_t n) {
  const fi::FaultModelSpec faults[] = {activation_fault(), weight_fault()};
  // A request's shape is its non-empty subsets of models, dtypes, fault
  // classes and techniques: 7 x 3 x 3 x 3 = 189 shapes.  The mix runs in
  // rounds, each sending every shape once in a seeded order, so every
  // seed sends the same composition of work (about half of it weight-fault
  // trials) and only order, fault sites and trial counts vary.  A shape's
  // trial count in round r is 10 + (offset + r) % 21 with a seeded offset,
  // so no grid repeats for 21 rounds.  Small requests keep per-request
  // costs visible and give each run about a thousand latency samples.
  constexpr std::size_t kShapes = 7 * 3 * 3 * 3, kTrialSpan = 21;
  if (n > kShapes * kTrialSpan)
    throw std::invalid_argument("serve_requests: too many requests");
  util::SplitMix64 rng = seed_stream(seed, 0x3e9);
  std::vector<std::size_t> offset(kShapes);
  for (std::size_t& o : offset) o = rng.next() % kTrialSpan;
  std::vector<std::size_t> order(kShapes);
  std::vector<fi::SuiteSpec> out;
  for (std::size_t round = 0; out.size() < n; ++round) {
    for (std::size_t i = 0; i < kShapes; ++i) order[i] = i;
    shuffle(order, rng);
    for (const std::size_t shape : order) {
      if (out.size() == n) break;
      std::size_t rest = shape;
      fi::SuiteSpec spec;
      spec.name = "req-" + std::to_string(out.size());
      spec.models = subset(kServeModels, 1 + rest % 7);
      rest /= 7;
      spec.dtypes = subset(kServeDtypes, 1 + rest % 3);
      rest /= 3;
      spec.faults = subset(faults, 1 + rest % 3);
      rest /= 3;
      spec.techniques = subset(kTechniques, 1 + rest % 3);
      spec.trials_small = 10 + (offset[shape] + round) % kTrialSpan;
      spec.inputs = kServeInputs;
      spec.seed = kWorkloadSeed;
      out.push_back(std::move(spec));
    }
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  for (int p = 99; p >= 50; --p) {
    // Nearest rank: the k-th smallest sample, k = ceil(p n / 100).
    const std::size_t k = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (k >= 1 && n - k >= 10) return Tail{p, n, samples[k - 1]};
  }
  return std::nullopt;
}

double req_tail_ms(const std::vector<double>& latencies_ms) {
  const auto tail = tail_percentile(latencies_ms);
  if (tail) {
    std::fprintf(stderr, "perfbench: req_tail_ms is p%d of %zu samples\n",
                 tail->percentile, tail->samples);
    return tail->value;
  }
  std::fprintf(stderr,
               "perfbench: req_tail_ms is the maximum of %zu samples\n",
               latencies_ms.size());
  return *std::max_element(latencies_ms.begin(), latencies_ms.end());
}

void warm_host(double seconds, unsigned threads) {
  util::Timer t;
  while (t.elapsed_seconds() < seconds) {
    std::vector<std::thread> pool;
    for (unsigned k = 0; k < threads; ++k)
      pool.emplace_back([] {
        util::Timer spin;
        while (spin.elapsed_ms() < 1.0) {
        }
      });
    for (std::thread& th : pool) th.join();
  }
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
