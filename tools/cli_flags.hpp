// Flag parsing shared by campaign_cli and suite_cli: one table of the
// flags both tools take (campaign scalars, sharding, batching, the fault
// model, telemetry), their help lines, the RANGERPP_* environment
// fallbacks and the cross-flag checks.  Each tool adds a table of its own
// flags and parse_flags() reads both in one pass.
//
// Parsing never exits: a malformed value, an unknown flag or a refused
// combination comes back as a message the tool prints above its usage
// (exit 2).  Values go through the strict full-string parsers in
// util/parse.hpp, so `--nbits foo` or `--trials 10x` never silently
// coerces to 0/10 and corrupts a campaign config.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "fi/suite.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace rangerpp::cli {

// A refused command line; what() is the message shown above the usage.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline std::size_t parse_size(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  if (!util::parse_u64(v.c_str(), out))
    throw UsageError(flag + " wants a non-negative integer, got '" + v + "'");
  return static_cast<std::size_t>(out);
}

inline int parse_int(const std::string& flag, const std::string& v,
                     int min_value, int max_value) {
  std::int64_t out = 0;
  if (!util::parse_i64(v.c_str(), out) || out < min_value || out > max_value)
    throw UsageError(flag + " wants an integer in [" +
                     std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "], got '" + v + "'");
  return static_cast<int>(out);
}

// The command line as one flag's handler sees it: the flag being applied
// and the arguments after it.
class Args {
 public:
  explicit Args(std::vector<std::string> argv) : argv_(std::move(argv)) {}

  bool done() const { return next_ >= argv_.size(); }
  const std::string& take_flag() { return flag_ = argv_[next_++]; }

  // The flag's value; a command line that ends here is refused.
  std::string value() {
    if (done()) throw UsageError("missing value for " + flag_);
    return argv_[next_++];
  }
  // True when the next argument is an operand rather than a flag.
  bool has_operand() const {
    return !done() && !argv_[next_].starts_with('-');
  }
  std::size_t size_value() { return parse_size(flag_, value()); }
  int int_value(int min_value, int max_value) {
    return parse_int(flag_, value(), min_value, max_value);
  }
  // A non-negative finite number.
  double number_value() {
    const std::string v = value();
    double out = 0.0;
    if (!util::parse_f64(v.c_str(), out) || out < 0.0)
      throw UsageError(flag_ + " wants a non-negative number, got '" + v +
                       "'");
    return out;
  }
  // A comma-separated list; empty entries are dropped.
  std::vector<std::string> list_value() {
    const std::string v = value();
    std::vector<std::string> out;
    for (std::size_t start = 0, end; start <= v.size(); start = end + 1) {
      end = std::min(v.find(',', start), v.size());
      if (end > start) out.push_back(v.substr(start, end - start));
    }
    if (out.empty()) throw UsageError(flag_ + " wants at least one value");
    return out;
  }
  // A list of grid-axis tokens, each parsed by `from_token` (an
  // optional-returning *_from_token function); `axis` names the refusal.
  template <typename FromToken>
  auto token_list(FromToken from_token, const std::string& axis) {
    std::vector<typename std::invoke_result_t<
        FromToken, const std::string&>::value_type>
        out;
    for (const std::string& token : list_value()) {
      const auto v = from_token(token);
      if (!v) throw UsageError("unknown " + axis + " '" + token + "'");
      out.push_back(*v);
    }
    return out;
  }

 private:
  std::vector<std::string> argv_;
  std::size_t next_ = 0;
  std::string flag_;
};

// One row of a flag table: the spelling, the value placeholder of its
// help line ("" for a switch), the help text ('\n' continues on an
// indented line) and the handler that reads its values into `Opts`.
template <typename Opts>
struct Flag {
  const char* name;
  const char* arg;
  const char* help;
  void (*apply)(Opts&, Args&);
};

// What the shared flags set.  The campaign scalars land in `spec`
// directly; the fault-model flags stay raw until parse_flags() expands
// them into spec.faults.
struct CommonFlags {
  fi::SuiteSpec spec;
  std::vector<int> nbits = {1};
  bool consecutive = false;
  fi::FaultClass fault_class = fi::FaultClass::kActivation;
  fi::WeightFaultKind weight_kind = fi::WeightFaultKind::kSingleBit;
  std::vector<fi::EccModel> eccs = {fi::EccModel{}};
  bool weight_kind_set = false, ecc_set = false;
  std::string trace_path;
  bool progress = false, quiet = false, list = false, help = false;
  // Set by a tool that runs exactly one cell (campaign_cli): a fault
  // expansion giving more than one is refused.
  bool one_cell = false;
};

inline constexpr Flag<CommonFlags> kCommonFlags[] = {
    {"--trials", "N",
     "trials per input (default $RANGERPP_TRIALS or 1000)",
     [](CommonFlags& c, Args& a) { c.spec.trials_small = a.size_value(); }},
    {"--inputs", "N", "FI inputs (default $RANGERPP_INPUTS or 8)",
     [](CommonFlags& c, Args& a) { c.spec.inputs = a.size_value(); }},
    {"--seed", "S", "campaign seed (default $RANGERPP_SEED or 2021)",
     [](CommonFlags& c, Args& a) { c.spec.seed = a.size_value(); }},
    {"--threads", "T", "worker threads (default: all cores)",
     [](CommonFlags& c, Args& a) {
       c.spec.threads = static_cast<unsigned>(a.int_value(0, 1 << 16));
     }},
    {"--shard", "i/N",
     "run only suite-global trials g with g%N == i\n"
     "(default $RANGERPP_SHARD or 0/1)",
     [](CommonFlags& c, Args& a) {
       const auto shard = util::parse_shard_spec(a.value().c_str());
       if (!shard) throw UsageError("--shard wants i/N with i < N");
       c.spec.shard_index = shard->index;
       c.spec.shard_count = shard->count;
     }},
    {"--check-every", "N",
     "trials per checkpoint flush and early-stop\ncheck (default 256)",
     [](CommonFlags& c, Args& a) {
       c.spec.check_every = a.size_value();
       if (c.spec.check_every == 0)
         throw UsageError("--check-every wants >= 1");
     }},
    {"--max-new", "N", "execute at most N new trials per cell this run",
     [](CommonFlags& c, Args& a) { c.spec.max_new_trials = a.size_value(); }},
    {"--target-ci", "PCT",
     "per-cell early stop once judge 0's Wilson-95\n"
     "half-width is below PCT percent",
     [](CommonFlags& c, Args& a) {
       c.spec.target_half_width_pct = a.number_value();
     }},
    {"--nbits", "K[,K...]",
     "bit flips per trial (default 1); a list adds\n"
     "one grid column per value (suite_cli only)",
     [](CommonFlags& c, Args& a) {
       c.nbits.clear();
       for (const std::string& b : a.list_value())
         c.nbits.push_back(parse_int("--nbits", b, 1, 64));
     }},
    {"--consecutive", "",
     "burst model: K adjacent bits in one value\n"
     "(a burst of one bit is a single-bit fault)",
     [](CommonFlags& c, Args&) { c.consecutive = true; }},
    {"--fault-class", "C",
     "activation (default) | weight: persistent\n"
     "faults in Const tensors, each swept over every\n"
     "input (--trials counts faults)",
     [](CommonFlags& c, Args& a) {
       const auto cls = fi::fault_class_from_token(a.value());
       if (!cls) throw UsageError("--fault-class wants activation|weight");
       c.fault_class = *cls;
     }},
    {"--weight-kind", "K",
     "single (default) | multi | burst | stuck0 |\n"
     "stuck1 | row (--nbits is the kind's count)",
     [](CommonFlags& c, Args& a) {
       const auto kind = fi::weight_fault_kind_from_token(a.value());
       if (!kind)
         throw UsageError(
             "--weight-kind wants single|multi|burst|stuck0|stuck1|row");
       c.weight_kind = *kind;
       c.weight_kind_set = true;
     }},
    {"--ecc", "E[,E...]",
     "none (default) | secded | cov<FRACTION>: ECC\n"
     "filter on sampled weight faults; a list adds\n"
     "one grid column per model (suite_cli only)",
     [](CommonFlags& c, Args& a) {
       c.eccs = a.token_list(fi::ecc_from_token, "ecc model");
       c.ecc_set = true;
     }},
    {"--verify-plan", "",
     "run the static plan verifier on every\n"
     "compiled plan; refuse a violated invariant",
     [](CommonFlags& c, Args&) { c.spec.verify_plan = true; }},
    {"--trace", "FILE",
     "Chrome trace-event JSON of the spans, on exit\n"
     "(also RANGERPP_TRACE=FILE); telemetry never\n"
     "changes a checkpoint or manifest byte",
     [](CommonFlags& c, Args& a) { c.trace_path = a.value(); }},
    {"--progress", "", "1 Hz stderr heartbeat: trials done,\ntrials/sec, ETA",
     [](CommonFlags& c, Args&) { c.progress = true; }},
    {"--quiet", "", "summary line only, no tables",
     [](CommonFlags& c, Args&) { c.quiet = true; }},
    {"--list", "", "print every model/axis token and exit 0",
     [](CommonFlags& c, Args&) { c.list = true; }},
    {"--help", "", "print this text (also -h)",
     [](CommonFlags& c, Args&) { c.help = true; }},
};

// Prints one help line per flag of `table`.
template <typename Opts>
void print_flags(std::FILE* f, std::span<const Flag<Opts>> table) {
  for (const Flag<Opts>& flag : table) {
    const std::string head = std::string(flag.name) +
                             (*flag.arg ? " " : "") + flag.arg;
    std::fprintf(f, "  %-20s ", head.c_str());
    for (const char* c = flag.help; *c; ++c) {
      std::fputc(*c, f);
      if (*c == '\n') std::fprintf(f, "%23s", "");
    }
    std::fputc('\n', f);
  }
}

// The fault axis the fault-model flags describe: one cell column per
// --nbits value × --ecc model.  parse_flags refuses --ecc on activation
// faults and --consecutive on weight faults before expanding.  A burst of
// one bit is a single-bit fault, so --consecutive applies only where
// K > 1 — the rule the suite grid has always used.
inline std::vector<fi::FaultModelSpec> fault_axis(const CommonFlags& c) {
  std::vector<fi::FaultModelSpec> out;
  for (const int b : c.nbits)
    for (const fi::EccModel& ecc : c.eccs)
      out.push_back({.n_bits = b,
                     .consecutive = c.consecutive && b > 1,
                     .cls = c.fault_class,
                     .wkind = c.weight_kind,
                     .ecc = ecc});
  return out;
}

// Parses `argv` (without the program name) against the tool's own table
// and kCommonFlags, after seeding the shared values from the RANGERPP_*
// environment (flags override it).  `opts.common` is the CommonFlags the
// shared table fills.  Stops early at --list/--help.  Returns the message
// to print above the usage, or nullopt when the command line is accepted
// — in which case opts.common.spec.faults holds the expanded fault axis.
template <typename Opts>
std::optional<std::string> parse_flags(std::vector<std::string> argv,
                                       std::span<const Flag<Opts>> own,
                                       Opts& opts) {
  CommonFlags& c = opts.common;
  try {
    c.spec.trials_small = util::env_size("RANGERPP_TRIALS", 1000);
    c.spec.inputs = util::env_size("RANGERPP_INPUTS", 8);
    c.spec.seed = util::env_size("RANGERPP_SEED", 2021);
    if (const char* s = std::getenv("RANGERPP_SHARD")) {
      // Same grammar --shard takes; a typo must not silently run the
      // wrong slice, so anything unparseable is fatal.
      const auto shard = util::parse_shard_spec(s);
      if (!shard) throw UsageError("bad RANGERPP_SHARD (want i/N with i < N)");
      c.spec.shard_index = shard->index;
      c.spec.shard_count = shard->count;
    }

    Args args(std::move(argv));
    while (!args.done()) {
      std::string name = args.take_flag();
      if (name == "-h") name = "--help";
      const auto apply = [&](auto table, auto& target) {
        for (const auto& f : table)
          if (name == f.name) {
            f.apply(target, args);
            return true;
          }
        return false;
      };
      if (!apply(own, opts) && !apply(std::span(kCommonFlags), c))
        throw UsageError("unknown flag " + name);
      if (c.list || c.help) return std::nullopt;
    }

    // A silently ignored fault-model flag means a misread experiment —
    // refuse the combinations that would drop one.
    if (c.fault_class == fi::FaultClass::kActivation &&
        (c.weight_kind_set || c.ecc_set))
      throw UsageError("--weight-kind/--ecc require --fault-class weight");
    if (c.fault_class == fi::FaultClass::kWeight && c.consecutive)
      throw UsageError(
          "--consecutive is the activation burst model; use "
          "--weight-kind burst for weight faults");
    c.spec.faults = fault_axis(c);
    if (c.one_cell && c.spec.faults.size() != 1)
      throw UsageError(
          "--nbits/--ecc take one value here (suite_cli runs a grid)");
  } catch (const UsageError& e) {
    return e.what();
  }
  return std::nullopt;
}

// Telemetry is a pure observer: nothing a tool runs branches on it, so
// the checkpoints and manifests it writes are byte-identical with it on
// or off.  `metrics` keeps the registry on for a snapshot on exit.
inline void start_telemetry(const CommonFlags& c, bool metrics) {
  if (metrics || c.progress) util::metrics::set_enabled(true);
  if (!c.trace_path.empty())
    util::trace::start(c.trace_path);
  else
    util::trace::start_from_env();
}

// --progress: a 1 Hz stderr heartbeat read entirely off the metrics
// registry — the counters the suite/runner layers already publish are
// the single source of truth, so the reporter never reaches into run
// internals (and can't perturb the records).  `planned` is the
// CLI-side estimate of trials this process will execute; `with_cells`
// adds the suite's cells-done/cells-total figures.
class ProgressReporter {
 public:
  ProgressReporter(const char* label, std::size_t planned, bool with_cells) {
    th_ = std::thread([this, label, planned, with_cells] {
      const util::Timer t;
      while (!done_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        const std::uint64_t trials =
            util::metrics::counter_value("campaign.trials");
        const double secs = t.elapsed_seconds();
        const double rate =
            secs > 0.0 ? static_cast<double>(trials) / secs : 0.0;
        const double eta = rate > 0.0 && planned > trials
                               ? static_cast<double>(planned - trials) / rate
                               : 0.0;
        std::string cells;
        if (with_cells) {
          cells = std::to_string(
                      util::metrics::counter_value("suite.cells_done")) +
                  "/" +
                  std::to_string(
                      util::metrics::gauge_value("suite.cells_total")) +
                  " cells  ";
        }
        std::fprintf(stderr, "\r%s: %s%llu/%zu trials  %.0f trials/s  "
                             "eta %.0fs   ",
                     label, cells.c_str(),
                     static_cast<unsigned long long>(trials), planned, rate,
                     eta);
      }
      std::fprintf(stderr, "\n");
    });
  }
  ~ProgressReporter() {
    done_.store(true, std::memory_order_relaxed);
    if (th_.joinable()) th_.join();
  }
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread th_;
};

// One `title: token token ...` line of the --list output.
template <typename T, typename Token>
void print_axis(std::FILE* f, const char* title,
                std::initializer_list<T> values, Token token) {
  std::fprintf(f, "%s:", title);
  for (const T v : values)
    std::fprintf(f, " %s", std::string(token(v)).c_str());
  std::fputc('\n', f);
}

// `--list` discovery output shared by campaign_cli and suite_cli: every
// grid-axis token a flag accepts, printed from the same token tables the
// parsers use, so the listing can never drift from what actually parses.
inline void print_axes(std::FILE* f) {
  using models::ModelId;
  print_axis(f, "models",
             {ModelId::kLeNet, ModelId::kAlexNet, ModelId::kVgg11,
              ModelId::kVgg16, ModelId::kResNet18, ModelId::kSqueezeNet,
              ModelId::kDave, ModelId::kDaveDegrees, ModelId::kComma},
             models::model_token);
  print_axis(f, "activations",
             {ops::OpKind::kInput, ops::OpKind::kRelu, ops::OpKind::kTanh,
              ops::OpKind::kSigmoid, ops::OpKind::kElu},
             fi::act_token);
  print_axis(f, "dtypes",
             {tensor::DType::kFixed32, tensor::DType::kFixed16,
              tensor::DType::kInt8, tensor::DType::kFloat32},
             fi::dtype_token);
  print_axis(f, "backends (RANGERPP_BACKEND)",
             {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked,
              ops::KernelBackend::kSimd},
             ops::backend_name);
  print_axis(f, "fault classes",
             {fi::FaultClass::kActivation, fi::FaultClass::kWeight},
             fi::fault_class_token);
  std::fprintf(f,
               "activation fault models: single-bit (--nbits 1), "
               "multi-bit (--nbits K), burst (--nbits K --consecutive)\n");
  using fi::WeightFaultKind;
  print_axis(f, "weight fault kinds",
             {WeightFaultKind::kSingleBit, WeightFaultKind::kMultiBit,
              WeightFaultKind::kConsecutiveBurst, WeightFaultKind::kStuckAt0,
              WeightFaultKind::kStuckAt1, WeightFaultKind::kRowBurst},
             fi::weight_fault_kind_token);
  std::fprintf(f, "ecc models: none secded cov<FRACTION> (e.g. cov0.5)\n");
  print_axis(f, "techniques",
             {fi::Technique::kUnprotected, fi::Technique::kRanger,
              fi::Technique::kRangerPaired},
             fi::technique_token);
  std::fprintf(f, "scheduler modes (scheduler_cli): serve submit status "
                  "stats cancel shutdown\n");
}

}  // namespace rangerpp::cli
