// The in-process workloads: search, search_robust and search_durable.
//
// One caller runs a closed loop of rounds. Each round searches every app
// with a new seed (computed requests) and then asks again for each answer
// it already has (cached requests):
//   - search / search_robust: a computed request is one automap_optimize
//     call; a cached one re-runs the search seeded with the computed run's
//     profiles database, the library's own store of measured mappings, so
//     no candidate is simulated again.
//   - search_durable: a computed request is cut by a simulated budget and
//     resumed from its checkpoint, both legs writing checkpoints and a file
//     journal; a cached one resumes from the final checkpoint on disk, which
//     only re-runs the finalist protocol.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "src/automap/automap.hpp"
#include "src/report/journal.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

using automap::SearchAlgorithm;
using automap::SearchOptions;
using automap::SearchResult;

struct Reference {
  std::string summary;
  automap::Mapping best;
  double best_seconds = 0;
  double search_time_s = 0;
  std::string profiles_db;
};

/// A computed request, kept for the checks and figures after the loop.
struct Computed {
  std::size_t round = 0;
  std::size_t app = 0;  // index into the request set
  std::uint64_t seed = 0;
  std::string summary;
  double best_seconds = 0;
  double search_time_s = 0;
};

/// Per-request latencies, and per-round figures whose medians are reported
/// so that load from other processes on the host covering less than half
/// the rounds does not move them.
struct LoopSamples {
  std::vector<double> cold_ms;
  std::vector<double> cached_ms;
  std::vector<double> round_cold_s;  // computed wall time of each round
  /// Requests per second spent in them (the checks between are excluded).
  std::vector<double> round_rate;
  std::vector<double> round_cold_geomean_ms;
  std::vector<double> round_cached_geomean_ms;
  double wall_s = 0;
  /// Rounds every run of this length completes; the deterministic figures
  /// are taken over these, so they do not depend on the host's speed.
  std::size_t fixed_rounds = 0;

  /// Adds one round's latencies. Only a round in which every computed
  /// request succeeded gives per-round figures.
  void add_round(const std::vector<double>& cold,
                 const std::vector<double>& cached, bool complete) {
    cold_ms.insert(cold_ms.end(), cold.begin(), cold.end());
    cached_ms.insert(cached_ms.end(), cached.begin(), cached.end());
    if (!complete) return;
    double cold_sum = 0, cached_sum = 0;
    for (const double ms : cold) cold_sum += ms;
    for (const double ms : cached) cached_sum += ms;
    round_cold_s.push_back(cold_sum / 1e3);
    round_rate.push_back((cold.size() + cached.size()) * 1e3 /
                         (cold_sum + cached_sum));
    round_cold_geomean_ms.push_back(geomean(cold));
    round_cached_geomean_ms.push_back(geomean(cached));
  }
};

/// A loop's samples as measured and scaled to the reference host speed:
/// each app's requests in a round by the calibration samples taken right
/// before and after them.
struct LoopRun {
  LoopSamples raw;
  LoopSamples scaled;
  std::vector<double> calibration_s;
  std::vector<double> factors;
};

class InProcessWorkload {
 public:
  InProcessWorkload(const Config& config, const RequestSet& set,
                    Outcome& out)
      : w_(config.workload),
        seed_(config.seed),
        set_(set),
        out_(out),
        threads_(w_.kind == Kind::kRobust ? parallel_threads(config)
                                          : 1) {
    for (const auto& r : set_) {
      const std::string base = config.out_dir + "/durable-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(r->id);
      ckpt_paths_.push_back(base + ".ckpt");
      journal_paths_.push_back(base + ".jsonl");
    }
  }

  ~InProcessWorkload() {
    std::error_code ec;
    for (const std::string& p : ckpt_paths_) {
      std::filesystem::remove(p, ec);
      std::filesystem::remove(p + ".tmp", ec);
    }
    for (const std::string& p : journal_paths_) {
      std::filesystem::remove(p, ec);
      std::filesystem::remove(p + ".cut", ec);
    }
  }

  /// Runs rounds until `duration_s` has passed and, with `need_tails`,
  /// every tail has at least 10 samples above it; or until a hard cap.
  /// Every round searches every app with a new seed, so a run covers many
  /// inputs and its figures depend little on the workload seed. Each call
  /// starts again from round 0, so the two halves of a traced run search
  /// the same inputs. With `calibrate`, a calibration sample is taken
  /// before the first request and after each app's requests (outside the
  /// timed requests); without, the scaled samples equal the raw ones.
  LoopRun loop(double duration_s, bool need_tails, bool calibrate) {
    const std::size_t apps = set_.size();
    const std::size_t need_cold =
        need_tails ? min_samples_for(w_.cold_tail) : 0;
    const std::size_t need_cached =
        need_tails ? min_samples_for(w_.cached_tail) : 0;
    constexpr double kCapS = 150;
    LoopRun run;
    computed_.clear();
    const std::size_t fixed_rounds = std::max(
        (need_cold + apps - 1) / apps,
        (need_cached + apps * w_.cached_per_cold - 1) /
            (apps * w_.cached_per_cold));
    double before = calibrate ? calibration_sample_s(threads_) : 0;
    const auto next_factor = [&] {
      if (!calibrate) return 1.0;
      const double after = calibration_sample_s(threads_);
      run.calibration_s.push_back(after);
      run.factors.push_back(speed_factor(before, after));
      before = after;
      return run.factors.back();
    };
    const double t0 = now_s();
    for (std::size_t round = 0;; ++round) {
      bool round_ok = true;
      std::vector<double> cold_ms, cached_ms, cold_scaled, cached_scaled;
      for (std::size_t i = 0; i < apps; ++i) {
        SearchOptions o = set_[i]->options;
        o.seed = derive_seed(seed_, set_[i]->app, round);
        o.threads = threads_;
        Reference ref;
        const double c = cold(i, o, ref);
        if (c < 0) {
          round_ok = false;
          continue;
        }
        cold_ms.push_back(c * 1e3);
        computed_.push_back({round, i, o.seed, ref.summary, ref.best_seconds,
                             ref.search_time_s});
        const std::size_t first_cached = cached_ms.size();
        for (int k = 0; k < w_.cached_per_cold; ++k)
          if (const double h = cached(i, o, ref); h >= 0)
            cached_ms.push_back(h * 1e3);
        const double factor = next_factor();
        cold_scaled.push_back(cold_ms.back() * factor);
        for (std::size_t k = first_cached; k < cached_ms.size(); ++k)
          cached_scaled.push_back(cached_ms[k] * factor);
      }
      run.raw.add_round(cold_ms, cached_ms, round_ok);
      run.scaled.add_round(cold_scaled, cached_scaled, round_ok);
      const double elapsed = now_s() - t0;
      if (elapsed >= duration_s && run.raw.cold_ms.size() >= need_cold &&
          run.raw.cached_ms.size() >= need_cached)
        break;
      if (elapsed > kCapS) {
        if (need_tails) {
          ++out_.attempted;
          out_.fail("tail sample minimum not reached");
        }
        break;
      }
    }
    for (LoopSamples* s : {&run.raw, &run.scaled}) {
      s->wall_s = now_s() - t0;
      s->fixed_rounds =
          need_tails ? fixed_rounds : s->round_cold_s.size();
    }
    return run;
  }

  /// search_robust: every summary at nproc threads must equal the summary
  /// of the same request at one thread.
  void verify_against_one_thread() {
    for (const Computed& c : computed_) {
      ++out_.attempted;
      SearchOptions o = set_[c.app]->options;
      o.seed = c.seed;
      o.threads = 1;
      const SearchResult r = search(*set_[c.app], o, "automap_optimize_1t");
      if (automap::render_search_summary(r) != c.summary)
        out_.fail(set_[c.app]->app + " seed " + std::to_string(c.seed) +
                  ": summary at " + std::to_string(threads_) +
                  " threads differs from 1 thread");
    }
  }

  void report(const LoopSamples& s, Metrics& m) const {
    std::vector<double> best_ms, sim_s;
    for (const Computed& c : computed_) {
      if (c.round >= s.fixed_rounds) continue;
      best_ms.push_back(c.best_seconds * 1e3);
      sim_s.push_back(c.search_time_s);
    }
    m["searches_per_s"] =
        static_cast<double>(set_.size()) / median(s.round_cold_s);
    m["requests_per_s"] = median(s.round_rate);
    m["best_geomean_ms"] = geomean(best_ms);
    m["sim_search_geomean_s"] = geomean(sim_s);
    m["cold_geomean_ms"] = median(s.round_cold_geomean_ms);
    m["cold_tail_ms"] = percentile(s.cold_ms, w_.cold_tail);
    m["cached_geomean_ms"] = median(s.round_cached_geomean_ms);
    m["cached_tail_ms"] = percentile(s.cached_ms, w_.cached_tail);
  }

  void describe(const LoopSamples& s) const {
    std::size_t quality = 0;
    for (const Computed& c : computed_) quality += c.round < s.fixed_rounds;
    std::printf(
        "loop: %zu rounds in %.3f s; %zu computed requests, tail p%g "
        "(samples support %s); %zu cached, tail p%g (samples support %s); "
        "quality figures over %zu searches\n",
        s.round_cold_s.size(), s.wall_s, s.cold_ms.size(), w_.cold_tail,
        supported_tail(s.cold_ms.size()).c_str(), s.cached_ms.size(),
        w_.cached_tail, supported_tail(s.cached_ms.size()).c_str(), quality);
  }

 private:
  static SearchResult search(const Request& r, const SearchOptions& o,
                             const char* span_name) {
    Span span("search", span_name, r.id);
    return automap::automap_optimize(*r.simulator, SearchAlgorithm::kCcd, o);
  }

  static Reference reference_of(const SearchResult& r) {
    return {automap::render_search_summary(r), r.best, r.best_seconds,
            r.stats.search_time_s, r.profiles_db};
  }

  /// search_durable cuts a search at the checkpoint that opens its middle
  /// rotation, so it first runs the search uninterrupted with an in-memory
  /// journal. The journal stamps the simulated clock on every candidate;
  /// the rotation-boundary checkpoint is written at the last clock stamped
  /// before the rotation's first event. A budget just past that clock lets
  /// the checkpoint be written and cuts at the next evaluation. The
  /// uninterrupted result is what the resumed search must reproduce.
  double cut_budget(const Request& r, SearchOptions o, Reference& ref) const {
    automap::Journal journal;
    o.journal = &journal;
    ref = reference_of(search(r, o, "automap_optimize_uninterrupted"));
    const std::string middle =
        "\"rot\":" + std::to_string(o.rotations / 2) + ",";
    std::istringstream lines(journal.text());
    std::string line;
    double clock = -1;
    while (std::getline(lines, line) && line.find(middle) == std::string::npos)
      if (const auto at = line.find("\"clock\":"); at != std::string::npos)
        clock = std::stod(line.substr(at + 8));
    AM_REQUIRE(!lines.fail() && clock >= 0,
               r.app + " search has no middle rotation");
    return std::nextafter(clock, std::numeric_limits<double>::infinity());
  }

  std::string load_checkpoint(std::size_t i) const {
    Span span("support", "load_checksummed", set_[i]->id);
    automap::DurableLoad l = automap::load_checksummed(ckpt_paths_[i]);
    AM_REQUIRE(l.status == automap::DurableLoad::Status::kOk,
               "no intact checkpoint at " + ckpt_paths_[i]);
    return std::move(l.payload);
  }

  /// One computed request of app `i` with options `o`; fills `ref` and
  /// returns the latency, or -1 when it failed.
  double cold(std::size_t i, const SearchOptions& o, Reference& ref) {
    const Request& r = *set_[i];
    ++out_.attempted;
    try {
      double latency = 0;
      if (w_.kind == Kind::kDurable) {
        const double budget = cut_budget(r, o, ref);  // not timed
        const double t0 = now_s();
        std::filesystem::remove(ckpt_paths_[i]);
        SearchOptions cut = o;
        cut.checkpoint_path = ckpt_paths_[i];
        cut.time_budget_s = budget;
        {
          automap::Journal journal(journal_paths_[i] + ".cut");
          cut.journal = &journal;
          (void)search(r, cut, "automap_optimize_cut");
        }
        SearchOptions resume = o;
        resume.checkpoint_path = ckpt_paths_[i];
        resume.resume_state = load_checkpoint(i);
        automap::Journal journal(journal_paths_[i]);
        resume.journal = &journal;
        const SearchResult result =
            search(r, resume, "automap_optimize_resume");
        latency = now_s() - t0;
        if (automap::render_search_summary(result) != ref.summary ||
            !(result.best == ref.best)) {
          out_.fail(r.app + " seed " + std::to_string(o.seed) +
                    ": resumed search differs from the uninterrupted one");
          return -1;
        }
      } else {
        const double t0 = now_s();
        const SearchResult result = search(r, o, "automap_optimize");
        latency = now_s() - t0;
        ref = reference_of(result);
        if (!std::isfinite(result.best_seconds) || result.stats.degraded) {
          out_.fail(r.app + " seed " + std::to_string(o.seed) +
                    ": search found no profiled mapping");
          return -1;
        }
      }
      return latency;
    } catch (const std::exception& e) {
      out_.fail(r.app + ": " + e.what());
      return -1;
    }
  }

  /// One request whose answer the caller already has; latency or -1.
  double cached(std::size_t i, SearchOptions o, const Reference& ref) {
    const Request& r = *set_[i];
    ++out_.attempted;
    try {
      const double t0 = now_s();
      if (w_.kind == Kind::kDurable)
        o.resume_state = load_checkpoint(i);
      else
        o.profiles_seed = ref.profiles_db;
      const SearchResult result = search(r, o, "automap_optimize_cached");
      const double latency = now_s() - t0;
      const bool same =
          w_.kind == Kind::kDurable
              ? automap::render_search_summary(result) == ref.summary
              : result.best == ref.best &&
                    result.best_seconds == ref.best_seconds;
      if (!same) {
        out_.fail(r.app + ": cached answer differs from the computed one");
        return -1;
      }
      return latency;
    } catch (const std::exception& e) {
      out_.fail(r.app + ": " + e.what());
      return -1;
    }
  }

  const WorkloadSpec& w_;
  const std::uint64_t seed_;
  const RequestSet& set_;
  Outcome& out_;
  const int threads_;
  std::vector<Computed> computed_;
  std::vector<std::string> ckpt_paths_;
  std::vector<std::string> journal_paths_;
};

}  // namespace

void run_inprocess(const Config& config, Outcome& out) {
  const WorkloadSpec& w = config.workload;
  const automap::Aggregation aggregation =
      w.kind == Kind::kRobust ? automap::Aggregation::kMedian
                              : automap::Aggregation::kMean;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(config.trace);

  // Set-up is repeated and its median reported, so one slow start-up does
  // not decide the figure.
  std::vector<double> gen_ms, parse_ms, ctor_ms;
  RequestSet set;
  const SetupTiming setup = time_setups(20, 10, [&] {
    set.clear();
    SetupTimes t;
    const double t0 = now_s();
    set = build_requests(search_set(config.seed), aggregation, t);
    const double took = now_s() - t0;
    gen_ms.push_back(t.generate_ms);
    parse_ms.push_back(t.parse_ms);
    ctor_ms.push_back(t.sim_ctor_ms);
    return took;
  });
  tracer.set_enabled(false);

  InProcessWorkload workload(config, set, out);

  if (!config.trace) {
    const LoopRun run = workload.loop(config.seconds, true, true);
    if (w.kind == Kind::kRobust) workload.verify_against_one_thread();
    workload.describe(run.scaled);
    workload.report(run.scaled, out.metrics);
    Metrics raw;
    workload.report(run.raw, raw);
    raw["setup_s"] = setup.raw_s;
    std::printf("calibration: kernel median %.3f ms over %zu samples, "
                "reference %.3f ms; each app's requests scaled by the samples "
                "around them (median factor %.4f), set-up likewise\nraw:",
                median(run.calibration_s) * 1e3, run.calibration_s.size(),
                kReferenceCalibrationS * 1e3, median(run.factors));
    for (const auto& [name, value] : raw)
      std::printf(" %s=%.6g", name.c_str(), value);
    std::printf("\n");
    out.metrics["setup_s"] = setup.scaled_s;
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }

  // Traced run: the same loop untraced and then traced, half the time
  // each, gives the tracing overhead; then the per-layer probes.
  Metrics untraced, traced;
  const LoopSamples plain =
      workload.loop(config.seconds / 2, false, false).raw;
  workload.describe(plain);
  workload.report(plain, untraced);
  tracer.set_enabled(true);
  const LoopSamples spanned =
      workload.loop(config.seconds / 2, false, false).raw;
  workload.describe(spanned);
  workload.report(spanned, traced);
  print_overhead(untraced, traced);

  const int threads =
      w.kind == Kind::kRobust ? parallel_threads(config) : 1;
  measure_search_layers(config, set, threads, w.kind == Kind::kDurable, out);
  measure_service_session(config, set, threads, out);
  out.metrics["setup.generate_ms"] = median(gen_ms);
  out.metrics["setup.parse_ms"] = median(parse_ms);
  out.metrics["setup.sim_ctor_ms"] = median(ctor_ms);
}

}  // namespace e2e
