// The `service` workload: an `automap_cli serve` daemon driven by a closed
// loop of client connections from this process, one per job worker. Each
// caller sends its next request only after the previous one is answered.
// Requests follow a fixed sequence: one in every `cached_per_cold + 1` is a
// computed request (a new seed of stencil, circuit or maestro: submit, poll
// status, fetch the result), the rest resubmit a request that already
// finished and read its answer from the result cache. Every answer is
// checked against the in-process search of the same request afterwards.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hpp"
#include "daemon.hpp"
#include "src/automap/automap.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

const std::vector<std::string> kApps = {"stencil", "circuit", "maestro"};

struct Finished {
  std::size_t app = 0;  // index into the request templates
  std::uint64_t seed = 0;
  std::string submit;
  std::string result_json;
};

struct LoopSamples {
  std::vector<double> cold_ms;
  std::vector<double> cached_ms;
  std::vector<double> cold_at_s;  // completion times since the loop began
  std::vector<double> cached_at_s;
  double wall_s = 0;
};

class ServiceLoop {
 public:
  ServiceLoop(const Config& config, const RequestSet& templates,
              const Daemon& daemon, int clients, Outcome& out)
      : config_(config),
        templates_(templates),
        daemon_(daemon),
        clients_(clients),
        out_(out) {}

  /// One computed request per app, so resubmissions have answers to hit
  /// from the first request on. Not timed.
  void prime() {
    for (std::size_t a = 0; a < templates_.size(); ++a)
      (void)cold(a, derive_seed(config_.seed, "prime", a), 0);
  }

  LoopSamples run(double duration_s, bool need_tails) {
    const WorkloadSpec& w = config_.workload;
    need_cold_ = need_tails ? min_samples_for(w.cold_tail) : 0;
    need_cached_ = need_tails ? min_samples_for(w.cached_tail) : 0;
    duration_s_ = duration_s;
    samples_ = {};
    t0_ = now_s();
    std::vector<std::thread> callers;
    for (int c = 0; c < clients_; ++c)
      callers.emplace_back([this] { caller(); });
    for (std::thread& t : callers) t.join();
    samples_.wall_s = now_s() - t0_;
    return samples_;
  }

  [[nodiscard]] const std::vector<Finished>& finished() const {
    return finished_;
  }

 private:
  void caller() {
    const std::uint64_t period = config_.workload.cached_per_cold + 1;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const double elapsed = now_s() - t0_;
        if (elapsed > 150) {
          if (need_cold_ > 0) fail("tail sample minimum not reached");
          return;
        }
        if (elapsed >= duration_s_ &&
            samples_.cold_ms.size() >= need_cold_ &&
            samples_.cached_ms.size() >= need_cached_)
          return;
      }
      const std::uint64_t k = next_++;
      if (k % period == 0) {
        const std::size_t app = (k / period) % templates_.size();
        const double ms = cold(app, derive_seed(config_.seed, "cold", k), k);
        if (ms >= 0) {
          const std::lock_guard<std::mutex> lock(mutex_);
          samples_.cold_ms.push_back(ms);
          samples_.cold_at_s.push_back(now_s() - t0_);
        }
      } else if (const double ms = cached(k); ms >= 0) {
        const std::lock_guard<std::mutex> lock(mutex_);
        samples_.cached_ms.push_back(ms);
        samples_.cached_at_s.push_back(now_s() - t0_);
      }
    }
  }

  void fail(const std::string& what) {
    ++out_.attempted;
    out_.fail(what);
  }

  /// A computed request; its latency in ms, or -1 when it failed.
  double cold(std::size_t app, std::uint64_t seed, std::uint64_t k) {
    const Request& t = *templates_[app];
    automap::SearchOptions o = t.options;
    o.seed = seed;
    Finished f{app, seed, submit_json(t, o), ""};
    try {
      const double t0 = now_s();
      const Answer a = submit_and_wait(daemon_.socket(), f.submit, k);
      const double ms = (now_s() - t0) * 1e3;
      const std::lock_guard<std::mutex> lock(mutex_);
      ++out_.attempted;
      if (a.cached) {
        out_.fail(kApps[app] + ": a new request was answered from cache");
        return -1;
      }
      f.result_json = a.result_json;
      finished_.push_back(std::move(f));
      return ms;
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex_);
      fail(kApps[app] + ": " + e.what());
      return -1;
    }
  }

  /// A resubmission of a finished request; its latency in ms, or -1.
  double cached(std::uint64_t k) {
    std::string submit, expected;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (finished_.empty()) {
        fail("no finished request to resubmit");
        return -1;
      }
      const Finished& f =
          finished_[automap::mix64(config_.seed ^ k) % finished_.size()];
      submit = f.submit;
      expected = f.result_json;
    }
    try {
      const double t0 = now_s();
      const Answer a = submit_and_wait(daemon_.socket(), submit, k);
      const double ms = (now_s() - t0) * 1e3;
      const std::lock_guard<std::mutex> lock(mutex_);
      ++out_.attempted;
      if (!a.cached || a.result_json != expected) {
        out_.fail("a resubmission was not answered from the result cache");
        return -1;
      }
      return ms;
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex_);
      fail(std::string("resubmission: ") + e.what());
      return -1;
    }
  }

  const Config& config_;
  const RequestSet& templates_;
  const Daemon& daemon_;
  const int clients_;
  Outcome& out_;
  std::atomic<std::uint64_t> next_{1};
  std::mutex mutex_;  // guards everything below and out_
  std::vector<Finished> finished_;
  LoopSamples samples_;
  std::size_t need_cold_ = 0;
  std::size_t need_cached_ = 0;
  double duration_s_ = 0;
  double t0_ = 0;
};

/// Every computed answer must be byte-identical to the in-process search
/// of the same request: summary line, mapping and best time. Searches run
/// on nproc threads, one search per thread at a time.
void verify(const Config& config, const RequestSet& templates,
            const std::vector<Finished>& finished, Outcome& out,
            std::vector<double>& best_ms, std::vector<double>& sim_s) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::vector<std::thread> workers;
  for (int c = 0; c < config.nproc; ++c) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < finished.size(); i = next++) {
        const Finished& f = finished[i];
        const Request& t = *templates[f.app];
        automap::SearchOptions o = t.options;
        o.seed = f.seed;
        std::string problem;
        try {
          const automap::SearchResult r = automap::automap_optimize(
              *t.simulator, automap::SearchAlgorithm::kCcd, o);
          const automap::JsonValue answer = automap::parse_json(f.result_json);
          if (answer.str_or("summary", "") !=
                  automap::render_search_summary(r) ||
              answer.str_or("mapping", "") != r.best.serialize() ||
              answer.num_or("best", -1) != r.best_seconds)
            problem = kApps[f.app] + " seed " + std::to_string(f.seed) +
                      ": daemon answer differs from the in-process search";
        } catch (const std::exception& e) {
          problem = kApps[f.app] + ": " + e.what();
        }
        const std::lock_guard<std::mutex> lock(mutex);
        ++out.attempted;
        if (!problem.empty()) {
          out.fail(problem);
          continue;
        }
        const automap::JsonValue answer = automap::parse_json(f.result_json);
        best_ms.push_back(answer.num_or("best", 0) * 1e3);
        const automap::JsonValue* stats = answer.find("stats");
        sim_s.push_back(stats ? stats->num_or("search_time_s", 0) : 0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

/// Rates and geometric means are medians over equal windows of the loop,
/// so load from other processes on the host that covers less than half
/// the run does not move them. Tails are taken over all samples.
void report(const LoopSamples& s, const WorkloadSpec& w, Metrics& m) {
  constexpr int kWindows = 8;
  const double width = s.wall_s / kWindows;
  std::vector<std::vector<double>> cold(kWindows), cached(kWindows);
  const auto bin = [&](const std::vector<double>& at,
                       const std::vector<double>& ms,
                       std::vector<std::vector<double>>& windows) {
    for (std::size_t i = 0; i < at.size(); ++i)
      windows[std::min(kWindows - 1, static_cast<int>(at[i] / width))]
          .push_back(ms[i]);
  };
  bin(s.cold_at_s, s.cold_ms, cold);
  bin(s.cached_at_s, s.cached_ms, cached);
  std::vector<double> cold_rate, all_rate, cold_geo, cached_geo;
  for (int i = 0; i < kWindows; ++i) {
    cold_rate.push_back(static_cast<double>(cold[i].size()) / width);
    all_rate.push_back(static_cast<double>(cold[i].size() + cached[i].size()) /
                       width);
    if (!cold[i].empty()) cold_geo.push_back(geomean(cold[i]));
    if (!cached[i].empty()) cached_geo.push_back(geomean(cached[i]));
  }
  m["searches_per_s"] = median(cold_rate);
  m["requests_per_s"] = median(all_rate);
  m["cold_geomean_ms"] = median(cold_geo);
  m["cold_tail_ms"] = percentile(s.cold_ms, w.cold_tail);
  m["cached_geomean_ms"] = median(cached_geo);
  m["cached_tail_ms"] = percentile(s.cached_ms, w.cached_tail);
  std::printf(
      "loop: %.3f s; %zu computed requests, tail p%g (samples support %s); "
      "%zu cached, tail p%g (samples support %s)\n",
      s.wall_s, s.cold_ms.size(), w.cold_tail,
      supported_tail(s.cold_ms.size()).c_str(), s.cached_ms.size(),
      w.cached_tail, supported_tail(s.cached_ms.size()).c_str());
}

}  // namespace

void run_service(const Config& config, Outcome& out) {
  const WorkloadSpec& w = config.workload;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(config.trace);
  // The daemon's job workers plus its evaluation lanes fill nproc. One
  // client connection per job worker: more would keep every worker busy
  // and queue computed jobs behind each other, so their latency would
  // measure the queue's length rather than the service.
  const int workers = std::max(1, config.nproc / 2);
  const int eval_threads = std::max(1, config.nproc - workers);
  const std::string dir =
      config.out_dir + "/svc-" + std::to_string(::getpid());

  std::vector<RequestSpec> specs;
  for (const std::string& app : kApps) specs.push_back({app, 0});
  std::vector<double> gen_ms, parse_ms, ctor_ms, ready_ms;
  RequestSet templates;
  std::unique_ptr<Daemon> daemon;
  const SetupTiming setup = time_setups(5, 3, [&] {
    daemon.reset();
    SetupTimes t;
    const double t0 = now_s();
    templates = build_requests(specs, automap::Aggregation::kMean, t);
    daemon = std::make_unique<Daemon>(config.cli_path, dir, workers,
                                      eval_threads);
    const double took = now_s() - t0;
    gen_ms.push_back(t.generate_ms);
    parse_ms.push_back(t.parse_ms);
    ctor_ms.push_back(t.sim_ctor_ms);
    ready_ms.push_back(daemon->ready_ms());
    return took;
  });
  tracer.set_enabled(false);

  ServiceLoop loop(config, templates, *daemon, workers, out);
  loop.prime();
  std::vector<double> best_ms, sim_s;
  if (!config.trace) {
    // Calibrated while the daemon is idle, so that its own load cannot
    // slow the kernel and so hide a slower daemon.
    for (int k = 0; k < 5; ++k)
      out.calibration_s.push_back(calibration_sample_s(config.nproc));
    const LoopSamples s = loop.run(config.seconds, true);
    for (int k = 0; k < 5; ++k)
      out.calibration_s.push_back(calibration_sample_s(config.nproc));
    out.metrics["peak_rss_mb"] = daemon->peak_rss_mb();
    daemon->stop();
    verify(config, templates, loop.finished(), out, best_ms, sim_s);
    report(s, w, out.metrics);
    scale_to_reference_speed(out);
    std::printf("setup: median %.6g s as measured\n", setup.raw_s);
    out.metrics["setup_s"] = setup.scaled_s;
    out.metrics["best_geomean_ms"] = geomean(best_ms);
    out.metrics["sim_search_geomean_s"] = geomean(sim_s);
    return;
  }

  Metrics untraced, traced;
  const LoopSamples plain = loop.run(config.seconds / 2, false);
  report(plain, w, untraced);
  tracer.set_enabled(true);
  const LoopSamples s = loop.run(config.seconds / 2, false);
  report(s, w, traced);
  print_overhead(untraced, traced);

  Metrics& m = out.metrics;
  m["service.rtt_us"] = ping_rtt_us(daemon->socket());
  // The daemon's job histogram covers the priming jobs too; a handful
  // against hundreds, so the client mean is taken over the loops alone.
  double cold_sum = 0;
  for (const LoopSamples* l : {&plain, &s})
    for (const double ms : l->cold_ms) cold_sum += ms;
  read_service_stats(daemon->socket(),
                     cold_sum / (plain.cold_ms.size() + s.cold_ms.size()), m);
  daemon->stop();
  verify(config, templates, loop.finished(), out, best_ms, sim_s);

  // The search-side layers, on the first two computed seeds of each app.
  std::vector<RequestSpec> probe;
  for (const Finished& f : loop.finished())
    if (std::count_if(probe.begin(), probe.end(), [&](const RequestSpec& p) {
          return p.app == kApps[f.app];
        }) < 2)
      probe.push_back({kApps[f.app], f.seed});
  SetupTimes unused;
  const RequestSet probe_set =
      build_requests(probe, automap::Aggregation::kMean, unused);
  measure_search_layers(config, probe_set, 1, false, out);
  m["setup.generate_ms"] = median(gen_ms);
  m["setup.parse_ms"] = median(parse_ms);
  m["setup.sim_ctor_ms"] = median(ctor_ms);
  m["setup.daemon_ready_ms"] = median(ready_ms);
}

}  // namespace e2e
