// Per-layer probes of the traced run. Each layer is measured from outside
// the library: counters the library already exposes (SimOptions::metrics,
// SearchStats, on_checkpoint, the daemon's stats op), timed calls into its
// public functions, and passes over the same requests with one layer
// switched on or off.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "daemon.hpp"
#include "src/automap/automap.hpp"
#include "src/report/journal.hpp"
#include "src/search/evaluator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

using automap::SearchOptions;
using automap::SearchResult;

enum class Durability { kNone, kCheckpoint, kCheckpointAndJournal };

struct Pass {
  double wall_s = 0;
  std::vector<SearchResult> results;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t censored = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t final_checkpoint_bytes = 0;
  std::uint64_t journal_events = 0;
  std::uint64_t journal_bytes = 0;
  std::vector<std::string> checkpoint_paths;
};

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::string scratch_path(const Config& config, const Request& r,
                         const char* suffix) {
  return config.out_dir + "/layers-" + std::to_string(::getpid()) + "-" +
         std::to_string(r.id) + suffix;
}

/// One search of every request in `set`, timed as a whole. Simulators are
/// rebuilt with a metrics registry outside the timed part, so simulator
/// counters cover exactly this pass.
Pass run_pass(const Config& config, const RequestSet& set, int threads,
              Durability durability) {
  Pass pass;
  automap::MetricsRegistry registry;
  std::vector<std::unique_ptr<automap::Simulator>> sims;
  for (const auto& r : set) {
    automap::SimOptions sim = r->sim;
    sim.metrics = &registry;
    sims.push_back(
        std::make_unique<automap::Simulator>(*r->machine, r->graph, sim));
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Request& r = *set[i];
    SearchOptions o = r.options;
    o.threads = threads;
    std::string ckpt, journal_path;
    std::optional<automap::Journal> journal;
    if (durability != Durability::kNone) {
      ckpt = scratch_path(config, r, ".ckpt");
      std::filesystem::remove(ckpt);
      o.checkpoint_path = ckpt;
      o.on_checkpoint = [&pass, &ckpt](int, int) {
        const std::uint64_t bytes = file_size(ckpt);
        ++pass.checkpoints;
        pass.checkpoint_bytes += bytes;
      };
      pass.checkpoint_paths.push_back(ckpt);
    }
    if (durability == Durability::kCheckpointAndJournal) {
      journal_path = scratch_path(config, r, ".jsonl");
      journal.emplace(journal_path);
      o.journal = &*journal;
    }
    const double t0 = now_s();
    {
      Span span("search", "automap_optimize", r.id);
      pass.results.push_back(automap::automap_optimize(
          *sims[i], automap::SearchAlgorithm::kCcd, o));
    }
    pass.wall_s += now_s() - t0;
    if (!ckpt.empty()) pass.final_checkpoint_bytes += file_size(ckpt);
    if (journal) {
      journal->flush();
      journal.reset();
      std::ifstream is(journal_path);
      pass.journal_events += static_cast<std::uint64_t>(
          std::count(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>(), '\n'));
      pass.journal_bytes += file_size(journal_path);
      std::filesystem::remove(journal_path);
    }
  }
  const auto counter = [&registry](const char* name) {
    return registry.counter(name, "", false)->value();
  };
  pass.runs = counter("automap_sim_runs_total");
  pass.events = counter("automap_sim_events_total");
  pass.censored = counter("automap_sim_runs_censored_total");
  return pass;
}

/// The mappings of a serialized profiles database.
std::vector<automap::Mapping> profile_mappings(const std::string& db,
                                               const automap::TaskGraph& g) {
  std::istringstream is(db);
  std::string line;
  std::vector<automap::Mapping> out;
  std::getline(is, line);  // "profiles N"
  while (std::getline(is, line)) {
    AM_REQUIRE(line.rfind("entry ", 0) == 0, "unexpected profiles line");
    std::string text;
    for (std::size_t t = 0; t < g.num_tasks(); ++t) {
      AM_REQUIRE(static_cast<bool>(std::getline(is, line)),
                 "truncated profiles database");
      text += line + "\n";
    }
    out.push_back(automap::Mapping::parse(text, g));
  }
  return out;
}

/// Replays every mapping the searches measured: plan compile
/// (begin_runs), single runs (run_prepared) and the lane kernel
/// (run_repeats) with the search's repeat count, unbounded.
void replay(const RequestSet& set, const Pass& pass, Metrics& m) {
  double plan_s = 0, run_s = 0, lane_s = 0;
  std::uint64_t planned = 0, events = 0, lane_events = 0;
  automap::SimScratch scratch;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Request& r = *set[i];
    Span span("sim", "replay", r.id);
    std::vector<std::uint64_t> seeds;
    for (int k = 0; k < r.options.repeats; ++k)
      seeds.push_back(derive_seed(r.options.seed, "replay", k));
    for (const automap::Mapping& mapping :
         profile_mappings(pass.results[i].profiles_db, r.graph)) {
      double t = now_s();
      const bool ok = r.simulator->begin_runs(mapping, scratch);
      plan_s += now_s() - t;
      if (!ok) continue;
      ++planned;
      t = now_s();
      for (const std::uint64_t seed : seeds)
        events += r.simulator
                      ->run_prepared(mapping, seed, scratch,
                                     std::numeric_limits<double>::infinity())
                      .events;
      run_s += now_s() - t;
      t = now_s();
      for (const automap::ExecutionReport& rep :
           r.simulator->run_repeats(mapping, seeds, scratch))
        lane_events += rep.events;
      lane_s += now_s() - t;
    }
  }
  m["sim.plan_us"] = planned > 0 ? plan_s * 1e6 / planned : 0;
  m["sim.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0;
  m["sim.lane_ns_per_event"] = lane_events > 0 ? lane_s * 1e9 / lane_events : 0;
}

/// Serialize, durable write and restore of each request's final
/// checkpointed evaluator state, timed through the public functions.
void checkpoint_costs(const Config& config, const RequestSet& set,
                      const Pass& pass, int threads, Metrics& m) {
  double serialize_s = 0, write_s = 0, restore_s = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Request& r = *set[i];
    SearchOptions o = r.options;
    o.threads = threads;
    double t = now_s();
    automap::DurableLoad load;
    {
      Span span("support", "load_checksummed", r.id);
      load = automap::load_checksummed(pass.checkpoint_paths[i]);
    }
    AM_REQUIRE(load.status == automap::DurableLoad::Status::kOk,
               "final checkpoint of " + r.app + " is not intact");
    // A checkpoint is seven header lines and the incumbent mapping, then
    // the evaluator state.
    std::size_t pos = 0;
    for (std::size_t k = 0; k < 7 + r.graph.num_tasks(); ++k)
      pos = load.payload.find('\n', pos) + 1;
    automap::Evaluator evaluator(*r.simulator, o);
    {
      Span span("search", "restore_state", r.id);
      evaluator.restore_state(load.payload.substr(pos));
    }
    restore_s += now_s() - t;
    t = now_s();
    std::string state;
    {
      Span span("search", "serialize_state", r.id);
      state = evaluator.serialize_state();
    }
    serialize_s += now_s() - t;
    const std::string copy = scratch_path(config, r, ".state");
    t = now_s();
    {
      Span span("support", "save_checksummed", r.id);
      automap::save_checksummed(copy, state, "checkpoint");
    }
    write_s += now_s() - t;
    std::filesystem::remove(copy);
  }
  m["ckpt.serialize_ms"] = serialize_s * 1e3;
  m["ckpt.write_ms"] = write_s * 1e3;
  m["ckpt.restore_ms"] = restore_s * 1e3;
}

}  // namespace

void measure_search_layers(const Config& config, const RequestSet& set,
                           int threads, bool durable, Outcome& out) {
  Metrics& m = out.metrics;
  const Pass one = run_pass(config, set, 1, Durability::kNone);
  const Pass many =
      run_pass(config, set, parallel_threads(config), Durability::kNone);
  const Pass& own = threads == 1 ? one : many;
  const Pass ckpt = run_pass(config, set, threads, Durability::kCheckpoint);
  const Pass both =
      run_pass(config, set, threads, Durability::kCheckpointAndJournal);

  for (std::size_t i = 0; i < set.size(); ++i) {
    ++out.attempted;
    const std::string summary =
        automap::render_search_summary(own.results[i]);
    if (automap::render_search_summary(ckpt.results[i]) != summary ||
        automap::render_search_summary(both.results[i]) != summary ||
        automap::render_search_summary(one.results[i]) != summary)
      out.fail(set[i]->app + ": checkpoint, journal or thread count changed "
                             "the search summary");
  }

  m["sim.runs"] = static_cast<double>(own.runs);
  m["sim.events"] = static_cast<double>(own.events);
  m["sim.runs_censored"] = static_cast<double>(own.censored);
  std::size_t suggested = 0, evaluated = 0, hits = 0, censored = 0;
  for (const SearchResult& r : own.results) {
    suggested += r.stats.suggested;
    evaluated += r.stats.evaluated;
    hits += r.stats.cache_hits;
    censored += r.stats.censored;
  }
  m["eval.suggested"] = static_cast<double>(suggested);
  m["eval.evaluated"] = static_cast<double>(evaluated);
  m["eval.cache_hit_ratio"] =
      suggested > 0 ? static_cast<double>(hits) / suggested : 0;
  m["eval.censored_share"] =
      evaluated > 0 ? static_cast<double>(censored) / evaluated : 0;
  m["eval.runs_per_evaluated"] =
      evaluated > 0 ? static_cast<double>(own.runs) / evaluated : 0;

  m["pool.speedup"] = one.wall_s / many.wall_s;
  m["pool.useful_run_ratio"] =
      static_cast<double>(one.runs) / static_cast<double>(many.runs);

  m["ckpt.count"] = static_cast<double>(ckpt.checkpoints);
  m["ckpt.bytes_written"] = static_cast<double>(ckpt.checkpoint_bytes);
  m["ckpt.final_bytes"] = static_cast<double>(ckpt.final_checkpoint_bytes);
  m["ckpt.self_s"] = ckpt.wall_s - own.wall_s;
  m["journal.self_s"] = both.wall_s - ckpt.wall_s;
  m["journal.events"] = static_cast<double>(both.journal_events);
  m["journal.bytes"] = static_cast<double>(both.journal_bytes);

  replay(set, own, m);
  checkpoint_costs(config, set, ckpt, threads, m);
  for (const std::string& p : ckpt.checkpoint_paths)
    std::filesystem::remove(p);
  for (const std::string& p : both.checkpoint_paths)
    std::filesystem::remove(p);

  // The simulator's share of one-thread search time, from the replayed
  // cost per event (the pool's effect is pool.speedup). What remains is
  // search control, evaluator fold and cache, and, for search_durable,
  // whatever checkpoint and journal cost beyond their measured self time.
  const double sim_busy_s = one.events * m["sim.ns_per_event"] * 1e-9;
  const double wall = durable ? both.wall_s : one.wall_s;
  m["sim.busy_share_est"] = sim_busy_s / wall;
  m["search.non_sim_s"] =
      wall - sim_busy_s -
      (durable ? m["ckpt.self_s"] + m["journal.self_s"] : 0.0);
  if (durable)
    std::printf("durable gap to plain search %.3f s, of which ckpt.self_s "
                "%.3f s and journal.self_s %.3f s\n",
                both.wall_s - one.wall_s, m["ckpt.self_s"],
                m["journal.self_s"]);
  std::printf(
      "layer passes: 1 thread %.3f s, %d threads %.3f s, +checkpoint %.3f s, "
      "+journal %.3f s\n",
      one.wall_s, parallel_threads(config), many.wall_s, ckpt.wall_s,
      both.wall_s);
}

void measure_service_session(const Config& config, const RequestSet& set,
                             int threads, Outcome& out) {
  Metrics& m = out.metrics;
  const int workers = std::max(1, config.nproc / 2);
  Daemon daemon(config.cli_path,
                config.out_dir + "/svc-" + std::to_string(::getpid()) + "-l",
                workers, std::max(1, threads / workers));
  m["setup.daemon_ready_ms"] = daemon.ready_ms();
  m["service.rtt_us"] = ping_rtt_us(daemon.socket());

  constexpr int kReads = 10;
  std::vector<double> cold_ms;
  for (const auto& r : set) {
    ++out.attempted;
    const std::string submit = submit_json(*r, r->options);
    const double t = now_s();
    const Answer first = submit_and_wait(daemon.socket(), submit, r->id);
    cold_ms.push_back((now_s() - t) * 1e3);
    if (first.cached) out.fail(r->app + ": a first submission was cached");
    for (int k = 0; k < kReads; ++k) {
      ++out.attempted;
      const Answer again = submit_and_wait(daemon.socket(), submit, r->id);
      if (!again.cached || again.result_json != first.result_json)
        out.fail(r->app + ": a resubmission was not a cache hit");
    }
  }
  double cold_sum = 0;
  for (const double ms : cold_ms) cold_sum += ms;
  read_service_stats(daemon.socket(), cold_sum / cold_ms.size(), m);
}

}  // namespace e2e
