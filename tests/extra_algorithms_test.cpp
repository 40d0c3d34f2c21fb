// Tests for the additional pluggable search algorithms: random search,
// simulated annealing, and the HEFT-style static baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/report/journal.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/extra_algorithms.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {
namespace {

class ExtraAlgorithms : public ::testing::Test {
 protected:
  ExtraAlgorithms()
      : app(make_circuit(circuit_config_for(1, 1))),
        machine(make_shepard(1)),
        sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02}) {}

  BenchmarkApp app;
  MachineModel machine;
  Simulator sim;
  SearchOptions budgeted{.repeats = 3, .time_budget_s = 10.0, .seed = 11};
};

TEST_F(ExtraAlgorithms, RandomSearchFindsValidMappings) {
  const SearchResult r = run_random_search(sim, budgeted);
  EXPECT_EQ(r.algorithm, "AM-Random");
  EXPECT_TRUE(r.best.valid(app.graph, machine));
  EXPECT_GT(r.stats.evaluated, 10u);
  // All proposals are constructed valid: no constraint-1 rejections.
  EXPECT_EQ(r.stats.invalid, 0u);
}

TEST_F(ExtraAlgorithms, AnnealingImprovesOnStartingPoint) {
  const SearchResult r = run_simulated_annealing(sim, budgeted);
  EXPECT_EQ(r.algorithm, "AM-Anneal");
  EXPECT_TRUE(r.best.valid(app.graph, machine));
  Simulator quiet(machine, app.graph, {.iterations = 3, .noise_sigma = 0.0});
  const double start =
      quiet.run(search_starting_point(app.graph, machine), 0).total_seconds;
  EXPECT_LE(quiet.run(r.best, 0).total_seconds, start * 1.02);
}

TEST_F(ExtraAlgorithms, AnnealingRejectsBadConfigs) {
  EXPECT_THROW((void)run_simulated_annealing(
                   sim, budgeted, {.initial_temperature = 0.0}),
               Error);
  EXPECT_THROW(
      (void)run_simulated_annealing(sim, budgeted, {.cooling = 1.5}), Error);
}

TEST_F(ExtraAlgorithms, HeftPicksFastProcessorsStatistically) {
  const SearchResult r = run_heft_static(sim, budgeted);
  EXPECT_EQ(r.algorithm, "HEFT-static");
  EXPECT_TRUE(r.best.valid(app.graph, machine));
  // HEFT evaluates exactly one mapping (it does not search).
  EXPECT_EQ(r.stats.evaluated, 1u);
  // Every collection lands in the chosen processor's best memory — the
  // single-memory-per-processor assumption of §6.
  for (const GroupTask& t : app.graph.tasks()) {
    const TaskMapping& tm = r.best.at(t.id);
    for (std::size_t a = 0; a < tm.arg_memories.size(); ++a) {
      EXPECT_EQ(r.best.primary_memory(t.id, a),
                machine.best_memory_for(tm.proc));
    }
  }
}

TEST_F(ExtraAlgorithms, CcdBeatsTheBaselinesOnSmallInputs) {
  // The central comparison: joint task+data search beats both pure random
  // exploration and static scheduling on the launch-bound small input.
  const SearchResult ccd =
      run_ccd(sim, {.rotations = 3, .repeats = 3, .seed = 11});
  const SearchOptions same_budget{.repeats = 3,
                                  .time_budget_s = ccd.stats.search_time_s,
                                  .seed = 11};
  const SearchResult heft = run_heft_static(sim, same_budget);
  const SearchResult random = run_random_search(sim, same_budget);
  EXPECT_LE(ccd.best_seconds, heft.best_seconds * 1.02);
  EXPECT_LE(ccd.best_seconds, random.best_seconds * 1.05);
}

TEST_F(ExtraAlgorithms, MultistartNeverWorseThanSingleStart) {
  const SearchOptions unbudgeted{.rotations = 3, .repeats = 3, .seed = 11};
  const SearchResult single = run_ccd(sim, unbudgeted);
  const SearchResult multi = run_ccd_multistart(sim, unbudgeted, 2);
  EXPECT_EQ(multi.algorithm, "AM-CCD-multistart");
  EXPECT_TRUE(multi.best.valid(app.graph, machine));
  // The multistart finalist pool includes the single-start candidates via
  // the shared profiles database, so it cannot be meaningfully worse.
  EXPECT_LE(multi.best_seconds, single.best_seconds * 1.05);
  EXPECT_GT(multi.stats.suggested, single.stats.suggested);
}

TEST_F(ExtraAlgorithms, MultistartRespectsBudget) {
  SearchOptions capped{.rotations = 3, .repeats = 3, .seed = 11};
  const SearchResult single = run_ccd(sim, capped);
  capped.time_budget_s = single.stats.search_time_s;  // room for ~one pass
  const SearchResult multi = run_ccd_multistart(sim, capped, 5);
  // Later passes were skipped or truncated by the budget.
  EXPECT_LT(multi.stats.search_time_s, 3 * single.stats.search_time_s);
  EXPECT_THROW((void)run_ccd_multistart(sim, capped, -1), Error);
}

TEST_F(ExtraAlgorithms, MultistartStatsAreTheSumOfItsPasses) {
  // Faults make every counter move, retries and quarantines included.
  const Simulator faulty(machine, app.graph,
                         {.iterations = 3,
                          .noise_sigma = 0.02,
                          .faults = {.crash_prob = 0.05,
                                     .straggler_prob = 0.1,
                                     .copy_fault_prob = 0.05}});
  Journal journal;
  SearchOptions options{.rotations = 2, .repeats = 3, .seed = 11};
  options.resilience = {.max_retries = 1, .quarantine_after = 2};
  options.journal = &journal;
  const SearchResult multi = run_ccd_multistart(faulty, options, 1);

  // Pass one is a plain CCD search; pass two restarts from the seed and
  // start mapping its search_begin record carries, over pass one's
  // profiles database.
  options.journal = nullptr;
  const SearchResult first = run_ccd(faulty, options);
  std::vector<JsonValue> begins;
  std::istringstream is(journal.text());
  for (std::string line; std::getline(is, line);) {
    JsonValue ev = parse_json(line);
    if (ev.str_or("type", "") == "search_begin") begins.push_back(ev);
  }
  ASSERT_EQ(begins.size(), 2u);
  SearchOptions next = search_options_from_json(*begins[1].find("options"));
  next.profiles_seed = first.profiles_db;
  const SearchResult second = run_ccd_from(
      faulty, next, Mapping::parse(begins[1].str_or("start", ""), app.graph));

  for (const SearchCounter& c : kSearchCounters) {
    EXPECT_EQ(multi.stats.*c.field,
              first.stats.*c.field + second.stats.*c.field)
        << c.name;
  }
  EXPECT_GT(second.stats.cache_hits, 0u);
  EXPECT_GT(second.stats.retries, 0u);
  EXPECT_EQ(multi.stats.degraded,
            first.stats.degraded || second.stats.degraded);
  EXPECT_EQ(multi.stats.search_time_s,
            first.stats.search_time_s + second.stats.search_time_s);
  EXPECT_EQ(multi.stats.evaluation_time_s,
            first.stats.evaluation_time_s + second.stats.evaluation_time_s);
  EXPECT_EQ(multi.stats.suggested, multi.stats.evaluated +
                                       multi.stats.invalid +
                                       multi.stats.cache_hits);
}

TEST_F(ExtraAlgorithms, DeterministicPerSeed) {
  const SearchResult a = run_simulated_annealing(sim, budgeted);
  const SearchResult b = run_simulated_annealing(sim, budgeted);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_seconds, b.best_seconds);
}

}  // namespace
}  // namespace automap
