// serve-mixed: a closed loop of client connections against a
// `scheduler_cli serve` child process, over util::ipc frames.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "fi/record_codec.hpp"
#include "fi/scheduler.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace perfbench {

namespace {

// scheduler_cli's protocol frame types.
constexpr std::uint8_t kSubmit = 'S', kPlan = 'P', kHeader = 'H',
                       kRecords = 'R', kDone = 'D', kError = 'E',
                       kStats = 'M', kShutdown = 'K';

// Requests pre-generated per run; a run that used them all would end its
// timed phase early (it never has at the sizes BENCHMARK.json sets).
constexpr std::size_t kMaxRequests = 3000;
constexpr unsigned kClients = 3;
// Requests whose records are recomputed by the reference, and trials
// sampled per cell of each.
constexpr std::size_t kCheckedRequests = 6;
constexpr std::size_t kCheckedTrialsPerCell = 2;
// Requests the traced run replays through the in-process layer runner.
constexpr std::size_t kReplayedRequests = 12;

// The daemon child: spawned on construction, stopped by shutdown() (or
// killed by the destructor if shutdown never ran).
class Daemon {
 public:
  Daemon(const RunOptions& opt, int index)
      : dir_(std::filesystem::path(opt.work_dir) /
             ("daemon" + std::to_string(index))) {
    namespace fs = std::filesystem;
    const fs::path& dir = dir_;
    fs::remove_all(dir);
    fs::create_directories(dir / "ckpt");
    // A relative socket path keeps sun_path short wherever the checkout is.
    socket_ = (dir / "d.sock").string();
    const std::string log = (dir / "daemon.log").string();
    const std::string workers = std::to_string(opt.threads);
    const std::string ckpt = (dir / "ckpt").string();
    std::vector<std::string> args = {opt.daemon_path, "serve",   "--socket",
                                     socket_,         "--workers", workers,
                                     "--dir",         ckpt};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const int rc =
        posix_spawn(&pid_, opt.daemon_path.c_str(), &fa, nullptr,
                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + opt.daemon_path + ": " +
                               std::strerror(rc));
    }
    util::Timer t;
    while (!util::ipc::connect_unix(socket_).valid()) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited on start; see " + log);
      }
      if (t.elapsed_seconds() > 60)
        throw std::runtime_error("daemon did not listen within 60 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  // Asks the daemon to stop and reaps it; returns its peak RSS in MiB.
  double shutdown() {
    {
      util::ipc::Conn c = util::ipc::connect_unix(socket_);
      std::uint8_t type = 0;
      std::string reply;
      if (!c.valid() || !c.send_frame(kShutdown, "") ||
          !c.recv_frame(type, reply))
        throw std::runtime_error("daemon did not acknowledge shutdown");
    }
    util::Timer t;
    rusage ru{};
    int status = 0;
    while (wait4(pid_, &status, WNOHANG, &ru) != pid_) {
      if (t.elapsed_seconds() > 60) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
        throw std::runtime_error("daemon did not stop within 60 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("daemon exited abnormally");
    std::filesystem::remove_all(dir_ / "ckpt");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  }

 private:
  std::filesystem::path dir_;
  pid_t pid_ = -1;
  std::string socket_;
};

// One request as the client saw it.
struct Request {
  bool ok = false;
  double ack_ms = 0, first_ms = 0, done_ms = 0;
  std::size_t record_bytes = 0;
  std::vector<std::string> record_frames;  // u32 cell index + codec
  std::string error;
};

Request submit(const std::string& socket, const fi::SuiteSpec& spec) {
  Request r;
  util::Timer t;
  util::ipc::Conn c = util::ipc::connect_unix(socket);
  if (!c.valid() || !c.send_frame(kSubmit, fi::serialize_suite_spec(spec))) {
    r.error = "cannot submit";
    return r;
  }
  std::uint8_t type = 0;
  std::string payload;
  bool first = true;
  while (c.recv_frame(type, payload)) {
    switch (type) {
      case kPlan:
        r.ack_ms = t.elapsed_ms();
        break;
      case kHeader:
        break;
      case kRecords:
        if (first) r.first_ms = t.elapsed_ms();
        first = false;
        r.record_bytes += payload.size();
        r.record_frames.push_back(std::move(payload));
        break;
      case kDone:
        r.done_ms = t.elapsed_ms();
        r.ok = payload.find(" done ") != std::string::npos;
        if (!r.ok) r.error = payload;
        return r;
      case kError:
        r.error = payload;
        return r;
      default:
        r.error = "unexpected frame type";
        return r;
    }
  }
  r.error = "connection lost mid-stream";
  return r;
}

// Records per cell (plan order) of a delivered request.
std::vector<std::vector<fi::TrialRecord>> decode(const fi::SuiteSpec& spec,
                                                 const Request& r) {
  std::vector<std::vector<fi::TrialRecord>> cells(
      fi::compile_suite(spec).cells.size());
  for (const std::string& frame : r.record_frames) {
    if (frame.size() < 4) throw std::runtime_error("short record frame");
    const auto* b = reinterpret_cast<const unsigned char*>(frame.data());
    const std::uint32_t ci = b[0] | (b[1] << 8) | (b[2] << 16) |
                             (static_cast<std::uint32_t>(b[3]) << 24);
    if (ci >= cells.size()) throw std::runtime_error("bad cell index");
    std::vector<fi::TrialRecord> batch =
        fi::decode_records(std::string_view(frame).substr(4));
    cells[ci].insert(cells[ci].end(), batch.begin(), batch.end());
  }
  for (auto& c : cells) c = fi::sort_unique_records(std::move(c));
  return cells;
}

std::string stats(const std::string& socket) {
  util::ipc::Conn c = util::ipc::connect_unix(socket);
  std::uint8_t type = 0;
  std::string reply;
  if (!c.valid() || !c.send_frame(kStats, "") || !c.recv_frame(type, reply))
    throw std::runtime_error("stats verb failed");
  return reply;
}

// The number after `"key": ` in a stats JSON object.
double json_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos)
    throw std::runtime_error("stats JSON lacks " + key);
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

// Busy worker-seconds so far: sum over workers of fraction x uptime.
double busy_seconds(const std::string& json) {
  const double up = json_number(json, "uptime_s");
  std::size_t at = json.find("\"worker_busy_fraction\": [");
  if (at == std::string::npos)
    throw std::runtime_error("stats JSON lacks worker_busy_fraction");
  at += 25;
  const std::size_t end = json.find(']', at);
  double busy = 0.0;
  const char* p = json.c_str() + at;
  while (p < json.c_str() + end) {
    char* next = nullptr;
    busy += std::strtod(p, &next) * up;
    if (next == p) break;
    p = next;
    while (*p == ',' || *p == ' ') ++p;
  }
  return busy;
}

// Submits `specs` concurrently, one connection each, and waits for all.
std::vector<Request> submit_all(const std::string& socket,
                                const std::vector<fi::SuiteSpec>& specs) {
  std::vector<Request> out(specs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < specs.size(); ++i)
    threads.emplace_back(
        [&, i] { out[i] = submit(socket, specs[i]); });
  for (std::thread& t : threads) t.join();
  return out;
}

struct Session {
  std::vector<double> setup_s;
  std::vector<fi::SuiteSpec> specs;  // issued requests, in the order issued
  std::vector<Request> requests;
  std::size_t warmup_failed = 0, warmup_attempted = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::string stats_before, stats_after;
};

// Spawns `setups` daemons in turn, each warmed up (the set-up samples),
// and runs the timed closed loop on the last one.
Session run_session(const RunOptions& opt, int setups) {
  const std::vector<fi::SuiteSpec> warm = serve_warmup();
  const std::vector<fi::SuiteSpec> all = serve_requests(opt.seed,
                                                        kMaxRequests);
  warm_host(kWarmSeconds, opt.threads);
  Session s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < setups; ++k) {
    if (daemon) daemon->shutdown();
    daemon.reset();
    util::Timer t;
    daemon = std::make_unique<Daemon>(opt, k);
    for (const Request& r : submit_all(daemon->socket(), warm)) {
      ++s.warmup_attempted;
      if (!r.ok) ++s.warmup_failed;
    }
    s.setup_s.push_back(t.elapsed_seconds());
  }

  s.stats_before = stats(daemon->socket());
  s.requests.resize(all.size());
  std::atomic<std::size_t> next{0};
  const unsigned clients = std::min(kClients, opt.threads);
  util::Timer wall;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c)
    threads.emplace_back([&] {
      // Closed loop: the next request goes out when the previous one's
      // done frame has arrived.
      while (wall.elapsed_seconds() < opt.seconds) {
        const std::size_t i = next.fetch_add(1);
        if (i >= all.size()) return;
        s.requests[i] = submit(daemon->socket(), all[i]);
      }
    });
  for (std::thread& t : threads) t.join();
  s.wall_s = wall.elapsed_seconds();
  s.stats_after = stats(daemon->socket());
  s.peak_rss_mb = daemon->shutdown();

  const std::size_t issued = std::min(next.load(), all.size());
  s.requests.resize(issued);
  s.specs.assign(all.begin(), all.begin() + static_cast<long>(issued));
  return s;
}

// Counts every request (failed unless delivered complete), then recomputes
// a seeded sample of requests' trials with the reference tier.
void check(const RunOptions& opt, const Session& s, RunResult& out) {
  out.attempted += s.warmup_attempted + s.requests.size();
  out.failed += s.warmup_failed;
  std::vector<std::vector<std::vector<fi::TrialRecord>>> records(
      s.requests.size());
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    if (!s.requests[i].ok) {
      std::fprintf(stderr, "perfbench: request %s failed: %s\n",
                   s.specs[i].name.c_str(), s.requests[i].error.c_str());
      ++out.failed;
      continue;
    }
    records[i] = decode(s.specs[i], s.requests[i]);
    const fi::SuitePlan plan = fi::compile_suite(s.specs[i]);
    for (std::size_t c = 0; c < plan.cells.size(); ++c)
      if (records[i][c].size() != plan.cells[c].total_trials) {
        ++out.failed;
        break;
      }
  }
  if (s.requests.empty()) return;
  // One Suite over the union grid supplies workloads and protected
  // graphs for every request (they share seed and input count).
  fi::SuiteSpec u = serve_warmup().front();
  u.models = {models::ModelId::kLeNet, models::ModelId::kAlexNet,
              models::ModelId::kComma};
  fi::Suite graphs(u);
  std::set<std::size_t> sample;
  for (std::uint64_t k = 0; sample.size() < std::min(kCheckedRequests,
                                                      s.requests.size());
       ++k)
    sample.insert(util::derive_seed(opt.seed, 0xc4ec + k) %
                  s.requests.size());
  for (const std::size_t i : sample) {
    if (!s.requests[i].ok) continue;
    check_against_reference(graphs, s.specs[i], records[i],
                            util::derive_seed(opt.seed, i),
                            kCheckedTrialsPerCell, out);
  }
}

}  // namespace

RunResult run_serve(const RunOptions& opt) {
  util::metrics::set_enabled(false);
  const Session s = run_session(opt, /*setups=*/3);

  std::vector<double> done_ms, first_ms;
  std::size_t trials = 0;
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    const Request& r = s.requests[i];
    if (!r.ok) continue;
    done_ms.push_back(r.done_ms);
    first_ms.push_back(r.first_ms);
    trials += fi::compile_suite(s.specs[i]).total_trials;
  }
  RunResult out;
  check(opt, s, out);
  if (done_ms.empty()) throw std::runtime_error("no request completed");
  std::fprintf(stderr, "perfbench: %zu requests from %u clients in %.3f s\n",
               s.requests.size(), std::min(kClients, opt.threads), s.wall_s);
  out.metrics = {
      {"setup_s", {median(s.setup_s), "s"}},
      {"grid_s", {median(done_ms) / 1e3, "s"}},
      {"trials_per_s", {static_cast<double>(trials) / s.wall_s, "trials/s"}},
      {"req_p50_ms", {median(done_ms), "ms"}},
      {"req_tail_ms", {req_tail_ms(done_ms), "ms"}},
      {"first_record_p50_ms", {median(first_ms), "ms"}},
      {"peak_rss_mb", {s.peak_rss_mb, "MiB"}},
  };
  return out;
}

RunResult trace_serve(const RunOptions& opt) {
  util::metrics::set_enabled(false);
  const Session s = run_session(opt, /*setups=*/1);
  RunResult out;
  check(opt, s, out);

  ServeLayers layers;
  std::vector<double> ack_ms, queue_ms;
  std::size_t bytes = 0;
  for (const Request& r : s.requests) {
    if (!r.ok) continue;
    ack_ms.push_back(r.ack_ms);
    queue_ms.push_back(r.first_ms - r.ack_ms);
    bytes += r.record_bytes;
  }
  layers.ack_ms = median(ack_ms);
  layers.queue_ms = median(queue_ms);
  const double workers = json_number(s.stats_after, "workers");
  const double span = json_number(s.stats_after, "uptime_s") -
                      json_number(s.stats_before, "uptime_s");
  layers.busy_frac =
      (busy_seconds(s.stats_after) - busy_seconds(s.stats_before)) /
      (workers * span);
  const double slices = json_number(s.stats_after, "slices") -
                        json_number(s.stats_before, "slices");
  layers.steals_per_slice =
      slices > 0 ? (json_number(s.stats_after, "steals") -
                    json_number(s.stats_before, "steals")) /
                       slices
                 : 0.0;
  layers.record_mb_per_s = static_cast<double>(bytes) / s.wall_s / 1e6;

  // The executor split: warm-up plus the first requests, replayed through
  // the in-process layer runner; their SDC counts must equal the streamed ones.
  std::vector<fi::SuiteSpec> replay = serve_warmup();
  const std::size_t n_warm = replay.size();
  const std::size_t n_req = std::min(kReplayedRequests, s.specs.size());
  replay.insert(replay.end(), s.specs.begin(),
                s.specs.begin() + static_cast<long>(n_req));
  const TracedPass pass = traced_passes(replay, opt);
  std::size_t cell = 0;
  for (std::size_t k = 0; k < replay.size(); ++k) {
    const std::size_t n_cells = fi::compile_suite(replay[k]).cells.size();
    if (k >= n_warm && s.requests[k - n_warm].ok) {
      const auto records = decode(replay[k], s.requests[k - n_warm]);
      for (std::size_t c = 0; c < n_cells; ++c) {
        std::vector<std::size_t> sdcs(pass.sdcs[cell + c].size(), 0);
        for (const fi::TrialRecord& r : records[c])
          for (std::size_t j = 0; j < sdcs.size(); ++j)
            sdcs[j] += (r.sdc_mask >> j) & 1u;
        ++out.attempted;
        if (sdcs != pass.sdcs[cell + c]) ++out.failed;
      }
    }
    cell += n_cells;
  }
  out.metrics = layer_metrics(pass, layers, opt);
  return out;
}

}  // namespace perfbench
