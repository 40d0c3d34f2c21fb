// End-to-end benchmark driver: one process runs one workload for a given
// seed and duration, checks every output, and prints its metrics as the
// last line of standard output. See README.md for the workloads and the
// meaning of each metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "daemon.hpp"
#include "src/apps/registry.hpp"
#include "src/io/text_io.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

const std::vector<WorkloadSpec>& workloads() {
  // Tails: p90 needs 100 samples, p75 40 (10 above the percentile).
  // search_durable computes too few searches in a run for p90. The
  // service's cache reads would support p99, but at under a millisecond
  // each their p99 is the host's scheduling jitter and moved by half from
  // run to run, so it reports p90.
  static const std::vector<WorkloadSpec> table = {
      {"search", Kind::kSearch, 90, 90, 1},
      {"search_robust", Kind::kRobust, 90, 90, 1},
      {"search_durable", Kind::kDurable, 75, 90, 3},
      {"service", Kind::kService, 90, 90, 10},
  };
  return table;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"searches_per_s", "1/s"},
      {"requests_per_s", "1/s"},
      {"best_geomean_ms", "ms"},
      {"sim_search_geomean_s", "s"},
      {"cold_geomean_ms", "ms"},
      {"cold_tail_ms", "ms"},
      {"cached_geomean_ms", "ms"},
      {"cached_tail_ms", "ms"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"sim.runs", "count"},
      {"sim.events", "count"},
      {"sim.runs_censored", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.plan_us", "us"},
      {"sim.lane_ns_per_event", "ns"},
      {"sim.busy_share_est", "ratio"},
      {"eval.suggested", "count"},
      {"eval.evaluated", "count"},
      {"eval.cache_hit_ratio", "ratio"},
      {"eval.censored_share", "ratio"},
      {"eval.runs_per_evaluated", "ratio"},
      {"search.non_sim_s", "s"},
      {"pool.speedup", "ratio"},
      {"pool.useful_run_ratio", "ratio"},
      {"ckpt.count", "count"},
      {"ckpt.bytes_written", "bytes"},
      {"ckpt.final_bytes", "bytes"},
      {"ckpt.serialize_ms", "ms"},
      {"ckpt.write_ms", "ms"},
      {"ckpt.restore_ms", "ms"},
      {"ckpt.self_s", "s"},
      {"journal.self_s", "s"},
      {"journal.events", "count"},
      {"journal.bytes", "bytes"},
      {"service.rtt_us", "us"},
      {"service.handle_submit_mean_us", "us"},
      {"service.queue_wait_mean_ms", "ms"},
      {"service.job_run_mean_ms", "ms"},
      {"service.client_overhead_ms", "ms"},
      {"service.result_cache_hit_ratio", "ratio"},
      {"service.store_bytes", "bytes"},
      {"service.sim_runs", "count"},
      {"setup.generate_ms", "ms"},
      {"setup.parse_ms", "ms"},
      {"setup.sim_ctor_ms", "ms"},
      {"setup.daemon_ready_ms", "ms"},
  };
  return metrics;
}

int parallel_threads(const Config& config) {
  return std::max(1, config.nproc / 2);
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::atomic<std::uint64_t> calibration_sink{0};

/// The instruction mix of a search, from code of the benchmark's own:
/// dependent hashing and floating-point updates over a 256 KiB table (the
/// simulator's clocks), an event queue drained in time order (its event
/// loop), and short string keys inserted into and erased from ordered and
/// hashed maps (the evaluator's caches and the allocator behind them).
/// Each part alone followed the search's speed less closely than the three
/// together.
void calibration_kernel() {
  std::vector<double> table(32768, 1.0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0;
  for (int i = 0; i < 500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& slot = table[x & 32767];
    slot = slot * 0.999 + static_cast<double>(x >> 40) * 1e-9;
    acc += slot;
  }

  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::vector<double> busy_until(64, 0.0);
  std::unordered_map<std::string, double> memo;
  std::string key = "m";
  for (int batch = 0; batch < 40; ++batch) {
    for (int i = 0; i < 500; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      events.push({static_cast<double>(x >> 44), static_cast<int>(x >> 58)});
    }
    while (!events.empty()) {
      const auto [t, resource] = events.top();
      events.pop();
      busy_until[resource] = std::max(busy_until[resource], t) + 1.5;
      acc += busy_until[resource];
    }
    for (int k = 0; k < 200; ++k) {
      key += static_cast<char>('a' + (x >> (k % 50)) % 26);
      if (key.size() > 24) key.erase(0, 8);
      memo[key] += 1e-12;
    }
  }

  std::map<std::string, int> ordered;
  for (int i = 0; i < 10000; ++i) {
    x = x * 6364136223846793005ULL + 1;
    ordered[std::to_string(x % 5000) + "abcdefghijklmnopqrstuvwxyz"] += 1;
    if (i % 3 == 0) ordered.erase(ordered.begin());
  }
  // Keeps the work from being optimized away.
  calibration_sink += static_cast<std::uint64_t>(acc) + memo.size() +
                      ordered.size();
}

}  // namespace

double calibration_sample_s(int threads) {
  std::vector<double> times;
  for (int k = 0; k < 3; ++k) {
    const double t0 = now_s();
    std::vector<std::thread> copies;
    for (int t = 1; t < threads; ++t) copies.emplace_back(calibration_kernel);
    calibration_kernel();
    for (std::thread& c : copies) c.join();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

double speed_factor(double before_s, double after_s) {
  return kReferenceCalibrationS / std::sqrt(before_s * after_s);
}

SetupTiming time_setups(int groups, int per_group,
                        const std::function<double()>& setup) {
  std::vector<double> raw, scaled;
  double before = calibration_sample_s(1);
  for (int g = 0; g < groups; ++g) {
    double took = 0;
    for (int k = 0; k < per_group; ++k) took += setup();
    took /= per_group;
    const double after = calibration_sample_s(1);
    raw.push_back(took);
    scaled.push_back(took * speed_factor(before, after));
    before = after;
  }
  return {median(scaled), median(raw)};
}

void scale_to_reference_speed(Outcome& out) {
  const double calibration = median(out.calibration_s);
  if (!(calibration > 0)) {
    ++out.attempted;
    out.fail("no calibration sample");
    return;
  }
  const double factor = kReferenceCalibrationS / calibration;
  std::printf("calibration: kernel median %.3f ms over %zu samples, "
              "reference %.3f ms; host-time figures scaled by %.4f\nraw:",
              calibration * 1e3, out.calibration_s.size(),
              kReferenceCalibrationS * 1e3, factor);
  for (const char* time : {"cold_geomean_ms", "cold_tail_ms",
                           "cached_geomean_ms", "cached_tail_ms"}) {
    std::printf(" %s=%.6g", time, out.metrics[time]);
    out.metrics[time] *= factor;
  }
  for (const char* rate : {"searches_per_s", "requests_per_s"}) {
    std::printf(" %s=%.6g", rate, out.metrics[rate]);
    out.metrics[rate] /= factor;
  }
  std::printf("\n");
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream is("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag,
                          std::uint64_t index) {
  std::uint64_t h = automap::mix64(seed);
  for (const char c : tag)
    h = automap::mix64(h ^ static_cast<unsigned char>(c));
  return automap::mix64(h ^ (index + 1)) % 1000000007ULL;
}

std::vector<RequestSpec> search_set(std::uint64_t seed) {
  std::vector<RequestSpec> set;
  for (const std::string& app : automap::app_names())
    set.push_back({app, derive_seed(seed, app, 0)});
  return set;
}

RequestSet build_requests(const std::vector<RequestSpec>& specs,
                          automap::Aggregation aggregation,
                          SetupTimes& times) {
  // Inputs as `automap_cli export-machine shepard 2` and
  // `export-app <app> 2 1` produce them.
  constexpr int kNodes = 2;
  constexpr int kStep = 1;
  RequestSet set;
  double t = now_s();
  const std::string machine_text =
      automap::machine_to_string(automap::make_shepard(kNodes));
  for (const RequestSpec& spec : specs) {
    auto r = std::make_unique<Request>();
    r->id = set.size() + 1;
    r->app = spec.app;
    r->machine_text = machine_text;
    {
      Span span("apps", "generate", r->id);
      const automap::BenchmarkApp app =
          automap::make_app_by_name(spec.app, kNodes, kStep);
      r->graph_text = automap::task_graph_to_string(app.graph);
      r->sim = app.sim;
    }
    r->options.seed = spec.seed;
    r->options.resilience.aggregation = aggregation;
    set.push_back(std::move(r));
  }
  times.generate_ms = (now_s() - t) * 1e3;

  t = now_s();
  for (auto& r : set) {
    Span span("io", "parse", r->id);
    r->machine = automap::machine_from_string(r->machine_text);
    r->graph = automap::task_graph_from_string(r->graph_text);
  }
  times.parse_ms = (now_s() - t) * 1e3;

  t = now_s();
  for (auto& r : set) {
    Span span("sim", "simulator_ctor", r->id);
    r->simulator =
        std::make_unique<automap::Simulator>(*r->machine, r->graph, r->sim);
  }
  times.sim_ctor_ms = (now_s() - t) * 1e3;
  return set;
}

void print_overhead(const Metrics& untraced, const Metrics& traced) {
  for (const auto& [name, u] : untraced) {
    const auto it = traced.find(name);
    if (it == traced.end()) continue;
    std::printf("trace overhead %-22s untraced %.6g traced %.6g (%+.6g)\n",
                name.c_str(), u, it->second, it->second - u);
  }
}

namespace {

std::string first_line_of(const std::string& path, const std::string& key) {
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line))
    if (key.empty() || line.rfind(key, 0) == 0) return line;
  return "";
}

std::string host_json(const Config& config) {
  std::string cpu = first_line_of("/proc/cpuinfo", "model name");
  if (const auto colon = cpu.find(':'); colon != std::string::npos)
    cpu = cpu.substr(colon + 2);
  std::string load = first_line_of("/proc/loadavg", "");
  load = load.substr(0, load.find(' ', load.find(' ', load.find(' ') + 1) + 1));
  return "{\"nproc\":" + std::to_string(config.nproc) + ",\"cpu\":\"" +
         automap::json_escape(cpu) + "\",\"loadavg\":\"" +
         automap::json_escape(load) + "\",\"build_type\":\"" E2E_BUILD_TYPE
         "\",\"workload\":\"" + config.workload.name +
         "\",\"seed\":" + std::to_string(config.seed) +
         ",\"seconds\":" + automap::json_double(config.seconds) +
         ",\"trace\":" + (config.trace ? "true" : "false") + "}";
}

int usage() {
  std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH [--out DIR]\n"
               "       e2e_bench --self-test\n";
  return 2;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const std::vector<std::string> failures = self_test();
  for (const std::string& f : failures)
    std::cerr << "self-test failed: " << f << "\n";
  if (!failures.empty()) return 3;

  Config config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      std::cout << "self-test passed\n";
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") config.seed = std::stoull(v);
      else if (a == "--seconds") config.seconds = std::stod(v);
      else if (a == "--trace") config.trace = std::stoi(v) != 0;
      else if (a == "--cli") config.cli_path = v;
      else if (a == "--out") config.out_dir = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || config.cli_path.empty() ||
      !(config.seconds > 0))
    return usage();
  config.workload = *spec;
  if (config.out_dir.empty()) config.out_dir = ".bench_out";
  config.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::filesystem::create_directories(config.out_dir);

  install_daemon_reaper();
  std::cout << "host " << host_json(config) << "\n" << std::flush;
  Outcome out;
  try {
    if (spec->kind == Kind::kService)
      run_service(config, out);
    else
      run_inprocess(config, out);
  } catch (const std::exception& e) {
    // A workload that cannot finish reports nothing: no partial result.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (config.trace) {
    const std::string path = config.out_dir + "/trace-" + spec->name + "-" +
                             std::to_string(config.seed) + ".json";
    Tracer::instance().write_chrome_trace(path);
    std::cout << "chrome trace: " << path << "\nself time by span:\n";
    Tracer::instance().print_self_time_table(std::cout);
  }

  const std::vector<MetricSpec>& wanted =
      config.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricSpec& m : wanted) {
    const auto it = out.metrics.find(m.name);
    double value = 0.0;
    if (it == out.metrics.end() || !std::isfinite(it->second))
      out.fail("metric " + m.name + " was not measured");
    else
      value = it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& f : out.failures)
    std::cout << "check failed: " << f << "\n";
  std::cout << "failed_share "
            << (out.attempted > 0 ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0)
            << " (" << out.failed << " of " << out.attempted << ")\n";
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(out.attempted, 1)
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
