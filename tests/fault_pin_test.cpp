// Pins a fault-on search: a mean-aggregation CCD search of stencil with
// crash, straggler, memory-pressure and copy faults injected, at 1 and 2
// threads. The golden digests pin the simulator's reports and a fault-free
// search; this pins what the evaluator makes of faulty runs — retries,
// backoff charges, quarantines, lost finalist repeats — down to the bit
// pattern of every clock. The values were recorded once and must never
// change: reordering a floating-point charge shows up here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "src/apps/registry.hpp"
#include "src/machine/machine.hpp"
#include "src/report/journal.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

/// FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Renders every pinned fact of one search, one per line.
std::string render(const SearchResult& r, const std::string& journal) {
  const SearchStats& s = r.stats;
  std::ostringstream os;
  os << "best_seconds " << bits(r.best_seconds) << "\n"
     << "search_time_s " << bits(s.search_time_s) << "\n"
     << "evaluation_time_s " << bits(s.evaluation_time_s) << "\n"
     << "counters " << s.suggested << " " << s.evaluated << " " << s.invalid
     << " " << s.oom << " " << s.censored << " " << s.cache_hits << " "
     << s.transient_failures << " " << s.retries << " " << s.quarantined
     << " " << (s.degraded ? 1 : 0) << "\n";
  for (const TrajectoryPoint& p : r.trajectory)
    os << "point " << bits(p.search_time_s) << " " << bits(p.best_exec_s)
       << "\n";
  os << "profiles " << hex(fnv1a(r.profiles_db)) << "\n"
     << "journal " << hex(fnv1a(journal)) << "\n";
  return os.str();
}

/// Finalist repeats lost to exhausted retries, read back from the journal.
int lost_finalist_repeats(const std::string& journal, int final_repeats) {
  int lost = 0;
  std::istringstream is(journal);
  std::string line;
  while (std::getline(is, line)) {
    const JsonValue ev = parse_json(line);
    if (ev.str_or("type", "") == "finalist" && !ev.bool_or("excluded", true))
      lost += final_repeats - static_cast<int>(ev.num_or("ok_runs", 0));
  }
  return lost;
}

TEST(FaultPin, MeanCcdSearchAtOneAndTwoThreads) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_app_by_name("stencil", 1, 0);
  // A headroom this small makes every memory-pressure window a failed run.
  const Simulator sim(machine, app.graph,
                      {.iterations = 3,
                       .noise_sigma = 0.02,
                       .faults = {.crash_prob = 0.05,
                                  .straggler_prob = 0.1,
                                  .straggler_factor = 3.0,
                                  .mem_pressure_prob = 0.1,
                                  .mem_pressure_headroom = 1e-5,
                                  .copy_fault_prob = 0.05}});

  const std::string expected =
      "best_seconds 0x3f48aea48cbb60b3\n"
      "search_time_s 0x40120ecad4c73ac3\n"
      "evaluation_time_s 0x40120ecad4c73ac3\n"
      "counters 105 44 0 0 25 61 124 86 2 0\n"
      "point 0x3fbb466a6b7bf7c5 0x3f6338bb6c3fafb3\n"
      "point 0x3fcbd19f5a3c554e 0x3f49d86de9322c1a\n"
      "point 0x3fd171e8f0b54216 0x3f485b85170563f9\n"
      "point 0x3fdec6cade02b688 0x3f46ad5e1f00dc1b\n"
      "point 0x3fe4459649aef998 0x3f45c91280b3d474\n"
      "point 0x3ff1c631a9e0a809 0x3f45af679a46985f\n"
      "profiles 0xf1e7564a5c00571e\n"
      "journal 0x9d4492ecd6198aba\n";

  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Journal journal;
    MetricsRegistry metrics;
    SearchOptions options{.rotations = 2,
                          .repeats = 3,
                          .seed = 17,
                          .journal = &journal,
                          .metrics = &metrics,
                          .journal_snapshot_every = 16};
    options.resilience = {.max_retries = 1, .quarantine_after = 2};
    options.threads = threads;
    const SearchResult r = run_ccd(sim, options);
    const std::string text = journal.text();

    EXPECT_GT(r.stats.retries, 0u);
    EXPECT_GT(r.stats.quarantined, 0u);
    EXPECT_GT(r.stats.censored, 0u);
    EXPECT_GT(lost_finalist_repeats(text, options.final_repeats), 0);
    EXPECT_EQ(render(r, text), expected);
  }
}

}  // namespace
}  // namespace automap
