// Golden digests: pinned 64-bit fingerprints of every ExecutionReport field
// (traces included) for each of the five applications under noise-only and
// all-faults-on runs, each unbounded and bounded below the makespan, plus
// the rendered summary of a median-aggregation CCD search at 1 and 2
// threads. The values were recorded once and must never change: any change
// to the simulator's event loop, its RNG draw order or its floating-point
// operation order shows up here as a digest mismatch.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/registry.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// FNV-1a over a canonical byte rendering of the fields fed to it.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_report(Digest& d, const ExecutionReport& r) {
  d.u64(r.ok ? 1 : 0);
  d.str(r.failure);
  d.u64(r.transient ? 1 : 0);
  d.u64(r.censored ? 1 : 0);
  d.f64(r.time_bound);
  d.f64(r.total_seconds);
  d.u64(static_cast<std::uint64_t>(r.iterations));
  d.u64(r.events);
  d.u64(r.intra_node_copy_bytes);
  d.u64(r.inter_node_copy_bytes);
  d.f64(r.energy_joules);
  d.u64(static_cast<std::uint64_t>(r.demoted_args));
  d.u64(static_cast<std::uint64_t>(r.faults.crashes));
  d.u64(static_cast<std::uint64_t>(r.faults.stragglers));
  d.u64(static_cast<std::uint64_t>(r.faults.mem_pressure));
  d.u64(static_cast<std::uint64_t>(r.faults.copy_retries));
  d.f64(r.faults.lost_seconds);
  d.u64(r.tasks.size());
  for (const TaskReport& t : r.tasks) {
    d.u64(t.task.index());
    d.u64(static_cast<std::uint64_t>(t.proc));
    d.f64(t.compute_seconds);
    d.f64(t.copy_wait_seconds);
    d.f64(t.launch_overhead_seconds);
    d.f64(t.runtime_overhead_seconds);
  }
  d.u64(r.footprints.size());
  for (const MemoryFootprint& f : r.footprints) {
    d.u64(static_cast<std::uint64_t>(f.kind));
    d.u64(f.peak_instance_bytes);
    d.u64(f.capacity_bytes);
  }
  d.u64(r.trace.size());
  for (const TraceEvent& e : r.trace) {
    d.u64(static_cast<std::uint64_t>(e.kind));
    d.str(e.name);
    d.str(e.resource);
    d.u64(static_cast<std::uint64_t>(e.iteration));
    d.f64(e.start_s);
    d.f64(e.duration_s);
    d.u64(e.bytes);
  }
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const std::vector<std::uint64_t>& golden_seeds() {
  static const std::vector<std::uint64_t> kSeeds = {
      1, 0x5eedULL, 0xdecafbadULL, 77, 2024, 0xfeedfaceULL};
  return kSeeds;
}

SimOptions with_faults(SimOptions o) {
  o.faults.crash_prob = 0.004;
  o.faults.straggler_prob = 0.02;
  o.faults.copy_fault_prob = 0.01;
  o.faults.mem_pressure_prob = 0.25;
  return o;
}

/// What the runs behind one application's digests exercised, so a digest
/// cannot silently pin a configuration that never censors or faults.
struct Coverage {
  int censored = 0;
  int faulted = 0;
  int transient = 0;
};

/// Digest of one (simulator, mapping, bound) configuration over the golden
/// seeds. Every entry point that simulates runs — run_prepared, run_repeats
/// and the validating run() — must produce the same reports, so each is
/// folded separately and checked against the run_prepared digest.
std::uint64_t config_digest(const Simulator& sim, const Mapping& m,
                            double bound, Coverage& coverage) {
  const std::vector<std::uint64_t>& seeds = golden_seeds();
  SimScratch scratch;
  Digest prepared;
  if (!sim.begin_runs(m, scratch)) {
    add_report(prepared, sim.run(m, seeds.front(), scratch, bound));
    return prepared.value();
  }
  for (const std::uint64_t s : seeds) {
    const ExecutionReport& r = sim.run_prepared(m, s, scratch, bound);
    add_report(prepared, r);
    coverage.censored += r.censored ? 1 : 0;
    coverage.faulted += r.faults.total() > 0 ? 1 : 0;
    coverage.transient += r.transient ? 1 : 0;
  }

  Digest repeats;
  for (const ExecutionReport& r : sim.run_repeats(m, seeds, scratch, bound))
    add_report(repeats, r);
  EXPECT_EQ(hex(repeats.value()), hex(prepared.value())) << "run_repeats";

  Digest validating;
  SimScratch fresh;
  for (const std::uint64_t s : seeds)
    add_report(validating, sim.run(m, s, fresh, bound));
  EXPECT_EQ(hex(validating.value()), hex(prepared.value())) << "run";
  return prepared.value();
}

/// The search starting point with every second task moved to the CPU pool
/// in System memory and every third kept on the leader node in Zero-Copy
/// memory (each edit kept only when the mapping stays valid), so copies
/// cross memory kinds, gather to the leader node and contend for channels.
Mapping mixed_mapping(const TaskGraph& graph, const MachineModel& machine) {
  Mapping m = search_starting_point(graph, machine);
  for (std::size_t i = 0; i < graph.num_tasks(); ++i) {
    const TaskId t(i);
    const TaskMapping before = m.at(t);
    if (i % 2 == 1) {
      m.at(t).proc = ProcKind::kCpu;
      for (std::size_t a = 0; a < before.arg_memories.size(); ++a)
        m.set_primary_memory(t, a, MemKind::kSystem);
    } else if (i % 3 == 0) {
      m.at(t).distribute = false;
      for (std::size_t a = 0; a < before.arg_memories.size(); ++a)
        m.set_primary_memory(t, a, MemKind::kZeroCopy);
    }
    if (!m.valid(graph, machine)) m.at(t) = before;
  }
  return m;
}

struct Golden {
  const char* mapping;
  const char* config;
  std::uint64_t digest;
};

/// Checks one application on shepard(2): two mappings (the §4.1 search
/// starting point and mixed_mapping) under four configurations.
void expect_golden(const std::string& app_name,
                   const std::vector<Golden>& expected) {
  const MachineModel machine = make_shepard(2);
  const BenchmarkApp app = make_app_by_name(app_name, 2, 0);
  SimOptions noise = app.sim;
  noise.record_trace = true;
  const SimOptions faults = with_faults(noise);
  const Simulator noise_sim(machine, app.graph, noise);
  const Simulator fault_sim(machine, app.graph, faults);

  const std::vector<std::pair<std::string, Mapping>> mappings = {
      {"start", search_starting_point(app.graph, machine)},
      {"mixed", mixed_mapping(app.graph, machine)}};

  std::vector<Golden> actual;
  std::string listing;
  Coverage coverage;
  for (const auto& [mname, m] : mappings) {
    // A bound just below the first seed's noise-only makespan censors
    // that run mid-way and leaves the others to fall either side.
    const ExecutionReport first = noise_sim.run(m, golden_seeds().front());
    const double bound = first.ok ? 0.99 * first.total_seconds : kInf;
    const struct {
      const char* name;
      const Simulator& sim;
      double bound;
    } configs[] = {{"noise", noise_sim, kInf},
                   {"noise-censored", noise_sim, bound},
                   {"faults", fault_sim, kInf},
                   {"faults-censored", fault_sim, bound}};
    for (const auto& c : configs) {
      SCOPED_TRACE(app_name + " " + mname + " " + c.name);
      const std::uint64_t d = config_digest(c.sim, m, c.bound, coverage);
      actual.push_back({mname.c_str(), c.name, d});
      listing += "      {\"" + mname + "\", \"" + c.name + "\", " + hex(d) +
                 "ULL},\n";
    }
  }
  EXPECT_GT(coverage.censored, 0);
  EXPECT_GT(coverage.faulted, 0);
  EXPECT_GT(coverage.transient, 0);
  ASSERT_EQ(actual.size(), expected.size()) << "actual digests:\n" << listing;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_STREQ(actual[i].mapping, expected[i].mapping);
    EXPECT_STREQ(actual[i].config, expected[i].config);
    EXPECT_EQ(hex(actual[i].digest), hex(expected[i].digest))
        << app_name << " " << actual[i].mapping << " " << actual[i].config
        << "\nactual digests:\n"
        << listing;
  }
}

TEST(GoldenDigest, Circuit) {
  expect_golden("circuit",
                {{"start", "noise", 0x4a1472bc570766c6ULL},
                 {"start", "noise-censored", 0x103853193d8f953cULL},
                 {"start", "faults", 0xb75350d15a65fb93ULL},
                 {"start", "faults-censored", 0xcc213f11e2600458ULL},
                 {"mixed", "noise", 0xe644501c8b05dde5ULL},
                 {"mixed", "noise-censored", 0x8902970ffa56615aULL},
                 {"mixed", "faults", 0x3ca224848257edb6ULL},
                 {"mixed", "faults-censored", 0x2b94bd76e11b2bd4ULL}});
}

TEST(GoldenDigest, Stencil) {
  expect_golden("stencil",
                {{"start", "noise", 0x36fa504bd7a5eaa6ULL},
                 {"start", "noise-censored", 0x7733c32e830451f8ULL},
                 {"start", "faults", 0xc20c3480b73bbc53ULL},
                 {"start", "faults-censored", 0xc442f71090a64665ULL},
                 {"mixed", "noise", 0x4bd86f83c5ef8183ULL},
                 {"mixed", "noise-censored", 0xedead0a1a74a091fULL},
                 {"mixed", "faults", 0xadf27b7ba0279c1fULL},
                 {"mixed", "faults-censored", 0x9e329f6af551bac6ULL}});
}

TEST(GoldenDigest, Pennant) {
  expect_golden("pennant",
                {{"start", "noise", 0x747b0b662aae7cdaULL},
                 {"start", "noise-censored", 0xdd1786b18e7af860ULL},
                 {"start", "faults", 0x99b2a9071cd69785ULL},
                 {"start", "faults-censored", 0xc589024b923cbed0ULL},
                 {"mixed", "noise", 0x3f9dd8afd5044ac3ULL},
                 {"mixed", "noise-censored", 0x84c03554f1395cf7ULL},
                 {"mixed", "faults", 0xb4ab488f9da33f10ULL},
                 {"mixed", "faults-censored", 0xc3764f38d17e531bULL}});
}

TEST(GoldenDigest, Htr) {
  expect_golden("htr",
                {{"start", "noise", 0x7643abfc620d1a14ULL},
                 {"start", "noise-censored", 0xfb9a167e0d67ef7cULL},
                 {"start", "faults", 0x252b2d0db928406fULL},
                 {"start", "faults-censored", 0x654448d61dd7d06eULL},
                 {"mixed", "noise", 0x85590aafd695f429ULL},
                 {"mixed", "noise-censored", 0x60a1f6d71a80abf1ULL},
                 {"mixed", "faults", 0x9947b209d25d95fbULL},
                 {"mixed", "faults-censored", 0xb0185bbbc9ff8d24ULL}});
}

TEST(GoldenDigest, Maestro) {
  expect_golden("maestro",
                {{"start", "noise", 0x245002c16dbb6b0cULL},
                 {"start", "noise-censored", 0x4e35d3070297832bULL},
                 {"start", "faults", 0x743279e8b691a00cULL},
                 {"start", "faults-censored", 0x9a3976d2e4a55646ULL},
                 {"mixed", "noise", 0x443b0cd21a16db51ULL},
                 {"mixed", "noise-censored", 0x7695e20096025242ULL},
                 {"mixed", "faults", 0x0d06dd23f49323e7ULL},
                 {"mixed", "faults-censored", 0x8cf50980718f9974ULL}});
}

TEST(GoldenDigest, MedianCcdSummaryAtOneAndTwoThreads) {
  // Median aggregation turns the censoring race off, so every candidate's
  // repeats run to completion and fold in repeat order.
  const MachineModel machine = make_shepard(1);
  const struct {
    BenchmarkApp app;
    const char* summary;
    std::uint64_t best_bits;
  } cases[] = {
      {make_stencil(stencil_config_for(1, 0)),
       "AM-CCD: best mapping 653.3 us after 157 suggested / 60 evaluated "
       "mappings, simulated 313.28 ms of search (100% evaluating)",
       0x3f45680614ecf4aaULL},
      {make_circuit(circuit_config_for(1, 0)),
       "AM-CCD: best mapping 829.5 us after 199 suggested / 69 evaluated "
       "mappings, simulated 351.63 ms of search (100% evaluating)",
       0x3f4b2e8d51a08cf0ULL},
  };
  for (const auto& c : cases) {
    Simulator sim(machine, c.app.graph,
                  {.iterations = 3, .noise_sigma = 0.02});
    for (const int threads : {1, 2}) {
      SearchOptions options{.rotations = 3, .repeats = 3, .seed = 42};
      options.resilience.aggregation = Aggregation::kMedian;
      options.threads = threads;
      const SearchResult result = run_ccd(sim, options);
      SCOPED_TRACE(c.app.name + " threads=" + std::to_string(threads));
      EXPECT_EQ(render_search_summary(result), c.summary);
      EXPECT_EQ(hex(std::bit_cast<std::uint64_t>(result.best_seconds)),
                hex(c.best_bits));
    }
  }
}

}  // namespace
}  // namespace automap
