// The flag table campaign_cli and suite_cli share (tools/cli_flags.hpp):
// every refusal comes back as a message instead of an exit, so argv
// vectors can be fed through the parser directly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fi/runner.hpp"
#include "fi/suite.hpp"
#include "tools/cli_flags.hpp"

namespace rangerpp {
namespace {

struct Opts {
  cli::CommonFlags common;
  std::vector<std::string> operands;
};

// A tool-side flag reading operands, like campaign_cli's --merge.
constexpr cli::Flag<Opts> kOwn[] = {
    {"--files", "FILE...", "operands",
     [](Opts& o, cli::Args& a) {
       while (a.has_operand()) o.operands.push_back(a.value());
     }},
};

// Sets (or clears) one environment variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// The campaign_cli (one cell) and suite_cli (grid) flavours of a parse.
std::optional<std::string> parse(Opts& o, std::vector<std::string> argv,
                                 bool one_cell) {
  const ScopedEnv shard("RANGERPP_SHARD", nullptr);
  o.common.one_cell = one_cell;
  return cli::parse_flags<Opts>(std::move(argv), kOwn, o);
}

class CliFlagsBothTools : public testing::TestWithParam<bool> {};

TEST_P(CliFlagsBothTools, RefusesMalformedNumbers) {
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"--trials", "10x"},
        {"--target-ci", "nan"},
        {"--target-ci", "-1"},
        {"--inputs", ""},
        {"--threads", "-2"},
        {"--nbits", "0"},
        {"--nbits", "foo"},
        {"--shard", "2/2"},
        {"--seed"}}) {
    Opts o;
    const auto err = parse(o, argv, GetParam());
    ASSERT_TRUE(err) << argv[0];
    EXPECT_NE(err->find(argv[0]), std::string::npos) << *err;
  }
}

TEST_P(CliFlagsBothTools, RefusesCheckEveryZero) {
  Opts o;
  const auto err = parse(o, {"--check-every", "0"}, GetParam());
  ASSERT_TRUE(err);
  EXPECT_EQ(*err, "--check-every wants >= 1");
}

TEST_P(CliFlagsBothTools, RefusesBadShardEnvironment) {
  const ScopedEnv shard("RANGERPP_SHARD", "3/2");
  Opts o;
  o.common.one_cell = GetParam();
  // The environment is refused even where --shard would override it.
  const auto err =
      cli::parse_flags<Opts>({"--shard", "0/2"}, kOwn, o);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("RANGERPP_SHARD"), std::string::npos) << *err;
}

TEST_P(CliFlagsBothTools, EnvironmentFallbacksYieldToFlags) {
  const ScopedEnv trials("RANGERPP_TRIALS", "7");
  const ScopedEnv inputs("RANGERPP_INPUTS", "3");
  const ScopedEnv shard("RANGERPP_SHARD", "1/4");
  Opts o;
  o.common.one_cell = GetParam();
  ASSERT_FALSE(cli::parse_flags<Opts>({"--trials", "9"}, kOwn, o));
  EXPECT_EQ(o.common.spec.trials_small, 9u);
  EXPECT_EQ(o.common.spec.inputs, 3u);
  EXPECT_EQ(o.common.spec.shard_index, 1u);
  EXPECT_EQ(o.common.spec.shard_count, 4u);
}

TEST_P(CliFlagsBothTools, RefusesFaultFlagsTheFaultClassWouldDrop) {
  Opts a;
  auto err = parse(a, {"--ecc", "secded"}, GetParam());
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--fault-class weight"), std::string::npos) << *err;
  Opts b;
  err = parse(b, {"--weight-kind", "row"}, GetParam());
  EXPECT_TRUE(err);
  Opts c;
  err = parse(c, {"--fault-class", "weight", "--consecutive"}, GetParam());
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--weight-kind burst"), std::string::npos) << *err;
}

TEST_P(CliFlagsBothTools, UnknownFlagsAndOwnTable) {
  Opts a;
  const auto err = parse(a, {"--no-such-flag"}, GetParam());
  ASSERT_TRUE(err);
  EXPECT_EQ(*err, "unknown flag --no-such-flag");

  Opts b;
  ASSERT_FALSE(
      parse(b, {"--files", "x", "y", "--quiet", "--seed", "5"}, GetParam()));
  EXPECT_EQ(b.operands, (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(b.common.quiet);
  EXPECT_EQ(b.common.spec.seed, 5u);
}

TEST_P(CliFlagsBothTools, ListStopsParsing) {
  Opts o;
  ASSERT_FALSE(parse(o, {"--list", "--no-such-flag"}, GetParam()));
  EXPECT_TRUE(o.common.list);
}

INSTANTIATE_TEST_SUITE_P(OneCellAndGrid, CliFlagsBothTools, testing::Bool());

TEST(CliFlags, OneCellRefusesAListedFaultAxis) {
  Opts campaign;
  auto err = parse(campaign, {"--nbits", "2,3"}, /*one_cell=*/true);
  ASSERT_TRUE(err);
  EXPECT_NE(err->find("--nbits"), std::string::npos) << *err;
  Opts weight;
  err = parse(weight,
              {"--fault-class", "weight", "--ecc", "none,secded"},
              /*one_cell=*/true);
  EXPECT_TRUE(err);

  Opts suite;
  ASSERT_FALSE(parse(suite, {"--nbits", "2,3"}, /*one_cell=*/false));
  ASSERT_EQ(suite.common.spec.faults.size(), 2u);
  EXPECT_EQ(suite.common.spec.faults[1].n_bits, 3);
}

TEST(CliFlags, WeightFaultAxisCrossesNbitsWithEcc) {
  Opts o;
  ASSERT_FALSE(parse(o,
                     {"--fault-class", "weight", "--weight-kind", "multi",
                      "--nbits", "2,3", "--ecc", "none,secded"},
                     /*one_cell=*/false));
  const std::vector<fi::FaultModelSpec>& f = o.common.spec.faults;
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(fi::fault_spec_token(f[0]), "wmulti2");
  EXPECT_EQ(fi::fault_spec_token(f[3]), "wmulti3-secded");
}

// A burst of one bit is a single-bit fault: --consecutive --nbits 1
// writes "consecutive":0 in the checkpoint header (the suite grid's
// rule), while a wider burst keeps it.
TEST(CliFlags, ConsecutiveAppliesOnlyToMultiBitBursts) {
  for (const auto& [nbits, consecutive] :
       {std::pair<const char*, bool>{"1", false}, {"3", true}}) {
    Opts o;
    ASSERT_FALSE(parse(o,
                       {"--consecutive", "--nbits", nbits, "--trials", "4",
                        "--inputs", "1"},
                       /*one_cell=*/true));
    fi::SuiteSpec spec = o.common.spec;
    spec.models = {models::ModelId::kLeNet};
    spec.techniques = {fi::Technique::kUnprotected};
    const fi::SuiteCell cell = fi::compile_suite(spec).cells.front();
    EXPECT_EQ(cell.fault.consecutive, consecutive) << nbits;
    const fi::CampaignRunner runner(fi::cell_runner_config(spec, cell));
    EXPECT_EQ(runner.make_header(1, 1).consecutive_bits, consecutive)
        << nbits;
  }
}

}  // namespace
}  // namespace rangerpp
