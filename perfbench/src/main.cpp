// perfbench entry point.  Normally driven by perfbench/run.py, which
// builds this binary, prepares the weights once and checks that a timed
// run did not train.
//
//   perfbench prepare
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --work DIR --daemon PATH
//
// `run` prints one JSON object as its last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "models/workload.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench prepare\n"
               "       perfbench run --workload "
               "zoo-setup|campaign-long|serve-mixed --seed N --seconds S "
               "--trace 0|1 --work DIR --daemon PATH\n",
               msg.c_str());
  std::exit(2);
}

// Trains or calibrates every zoo model once, into RANGERPP_WEIGHTS_DIR.
void prepare() {
  models::WorkloadCache cache;
  for (const models::ModelId id : kZoo) {
    std::fprintf(stderr, "perfbench: preparing %s\n",
                 models::model_token(id).c_str());
    cache.get(id);
  }
}

void print_result(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  try {
    if (mode == "prepare") {
      prepare();
      return 0;
    }
    if (mode != "run") usage("unknown mode " + mode);
    RunOptions opt;
    bool trace = false;
    opt.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    bool have_workload = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage("missing value for " + arg);
      const std::string v = argv[++i];
      if (arg == "--workload") {
        const auto w = workload_from_name(v);
        if (!w) usage("unknown workload " + v);
        opt.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(v);
        if (!(opt.seconds > 0)) usage("--seconds wants a positive number");
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") usage("--trace wants 0 or 1");
        trace = v == "1";
      } else if (arg == "--work") {
        opt.work_dir = v;
      } else if (arg == "--daemon") {
        opt.daemon_path = v;
      } else {
        usage("unknown flag " + arg);
      }
    }
    if (!have_workload || opt.work_dir.empty() || opt.daemon_path.empty())
      usage("--workload, --work and --daemon are required");
    const bool serve = opt.workload == Workload::kServeMixed;
    const RunResult r = trace ? (serve ? trace_serve(opt)
                                           : trace_oneshot(opt))
                                  : (serve ? run_serve(opt)
                                           : run_oneshot(opt));
    print_result(r);
    // A run that failed any check still reports, then exits non-zero.
    return r.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
