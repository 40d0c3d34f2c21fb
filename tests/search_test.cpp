// Tests for the search layer: evaluator/profiles database, starting point,
// CD, CCD (Algorithms 1+2), co-location constraints and the ensemble tuner.

#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/circuit.hpp"
#include "src/apps/registry.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/ensemble_tuner.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

/// Small fixture app: GPU-friendly producer feeding a CPU-only consumer
/// through a collection also used by a third task — a space with a
/// non-trivial optimum.
struct MiniApp {
  TaskGraph g;
  CollectionId shared, other;
  TaskId producer, consumer, cpu_only;

  MiniApp() {
    const RegionId r = g.add_region("r", Rect::line(0, (1 << 21) - 1), 8);
    shared = g.add_collection(r, "shared", Rect::line(0, (1 << 20) - 1));
    other = g.add_collection(r, "other",
                             Rect::line(1 << 20, (1 << 21) - 1));
    producer = g.add_task(
        "produce", 8,
        {.cpu_seconds_per_point = 2e-3, .gpu_seconds_per_point = 4e-5},
        {{shared, Privilege::kWriteOnly, 0.4},
         {other, Privilege::kReadOnly, 0.5}});
    consumer = g.add_task("consume", 8, {.cpu_seconds_per_point = 1e-4},
                          {{shared, Privilege::kReadOnly, 0.4}});
    cpu_only = g.add_task("host_side", 8, {.cpu_seconds_per_point = 5e-5},
                          {{other, Privilege::kReadWrite, 0.3}});
    g.add_dependence({.producer = producer,
                      .consumer = consumer,
                      .producer_collection = shared,
                      .consumer_collection = shared,
                      .bytes = g.collection_bytes(shared)});
  }
};

TEST(SearchStartingPoint, MatchesSection41) {
  MiniApp app;
  const MachineModel machine = make_shepard(2);
  const Mapping m = search_starting_point(app.g, machine);
  EXPECT_TRUE(m.valid(app.g, machine));
  EXPECT_TRUE(m.at(app.producer).distribute);
  EXPECT_EQ(m.at(app.producer).proc, ProcKind::kGpu);
  EXPECT_EQ(m.primary_memory(app.producer, 0), MemKind::kFrameBuffer);
  // CPU-only tasks start on the CPU with System memory.
  EXPECT_EQ(m.at(app.cpu_only).proc, ProcKind::kCpu);
  EXPECT_EQ(m.primary_memory(app.cpu_only, 0), MemKind::kSystem);
}

TEST(SearchSpace, Log2MatchesPaperFormula) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  // P^T * M^C with P = 2 processor kinds and M = 2 addressable memory
  // kinds per processor: T + C bits = 3 tasks + 4 collection args.
  EXPECT_NEAR(search_space_log2(app.g, machine), 7.0, 1e-9);
}

TEST(SearchSpace, MatchesFigureFiveExponents) {
  const MachineModel machine = make_shepard(1);
  // Paper Fig. 5: Circuit ~2^18, Stencil ~2^14.
  EXPECT_NEAR(search_space_log2(make_circuit(circuit_config_for(1, 0)).graph,
                                machine),
              18.0, 1e-9);
  EXPECT_NEAR(search_space_log2(make_stencil(stencil_config_for(1, 0)).graph,
                                machine),
              14.0, 1e-9);
}

TEST(Evaluator, CachesRepeatedMappings) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  Evaluator eval(sim, {.repeats = 3, .seed = 1});
  const Mapping m = search_starting_point(app.g, machine);
  const double first = eval.evaluate(m);
  const double second = eval.evaluate(m);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(eval.view().stats().suggested, 2u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
}

TEST(Evaluator, InvalidMappingsGetPenaltyWithoutExecution) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2});
  Evaluator eval(sim, {.repeats = 3, .seed = 1});
  Mapping bad = search_starting_point(app.g, machine);
  bad.set_primary_memory(app.cpu_only, 0, MemKind::kFrameBuffer);
  EXPECT_TRUE(std::isinf(eval.evaluate(bad)));
  EXPECT_EQ(eval.view().stats().invalid, 1u);
  EXPECT_EQ(eval.view().stats().evaluated, 0u);
  EXPECT_EQ(eval.view().stats().evaluation_time_s, 0.0);
}

TEST(Evaluator, TracksBestAndTrajectory) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  Evaluator eval(sim, {.repeats = 2, .seed = 7});
  Mapping a = search_starting_point(app.g, machine);
  const double va = eval.evaluate(a);
  Mapping b = a;
  b.at(app.producer).proc = ProcKind::kCpu;
  b.at(app.producer).arg_memories.assign(2, {MemKind::kSystem});
  const double vb = eval.evaluate(b);
  EXPECT_EQ(eval.view().best_seconds(), std::min(va, vb));
  EXPECT_FALSE(eval.view().trajectory().empty());
  EXPECT_EQ(eval.view().best(), va <= vb ? a : b);
}

TEST(Evaluator, BudgetExhaustionStopsSearch) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  Evaluator eval(sim, {.repeats = 2, .time_budget_s = 1e-9, .seed = 1});
  EXPECT_FALSE(eval.budget_exhausted());
  (void)eval.evaluate(search_starting_point(app.g, machine));
  EXPECT_TRUE(eval.budget_exhausted());
}

TEST(Evaluator, FallbacksExtendPriorityLists) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 1});
  Evaluator eval(sim, {.repeats = 1, .memory_fallbacks = true});
  const Mapping m = search_starting_point(app.g, machine);
  const Mapping extended = eval.with_fallbacks(m);
  // GPU task: FB primary, ZC fallback.
  EXPECT_EQ(extended.at(app.producer).arg_memories[0].size(), 2u);
  EXPECT_EQ(extended.at(app.producer).arg_memories[0][0],
            MemKind::kFrameBuffer);
  EXPECT_EQ(extended.at(app.producer).arg_memories[0][1],
            MemKind::kZeroCopy);
}

TEST(Evaluator, FallbacksBuildDistinctListsForEveryApp) {
  const MachineModel machine = make_shepard(2);
  for (const std::string& name : app_names()) {
    const BenchmarkApp app = make_app_by_name(name, 2, 0);
    Simulator sim(machine, app.graph, {.iterations = 1});
    const Evaluator eval(sim, {.repeats = 1, .memory_fallbacks = true});
    Mapping cpu = search_starting_point(app.graph, machine);
    for (const GroupTask& task : app.graph.tasks()) {
      cpu.at(task.id).proc = ProcKind::kCpu;
      for (std::size_t a = 0; a < task.args.size(); ++a) {
        cpu.at(task.id).arg_memories[a] =
            a % 2 == 0 ? MemPriority{MemKind::kZeroCopy, MemKind::kSystem}
                       : MemPriority{MemKind::kSystem};
      }
    }
    for (const Mapping& m : {search_starting_point(app.graph, machine), cpu}) {
      const Mapping extended = eval.with_fallbacks(m);
      for (const GroupTask& task : app.graph.tasks()) {
        const TaskMapping& tm = extended.at(task.id);
        for (std::size_t a = 0; a < task.args.size(); ++a) {
          const MemPriority& list = tm.arg_memories[a];
          EXPECT_EQ(list.front(), m.primary_memory(task.id, a)) << name;
          EXPECT_EQ(list.size(),
                    machine.memories_addressable_by(tm.proc).size())
              << name;
          for (std::size_t i = 0; i < list.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
              EXPECT_NE(list[i], list[j]) << name << " " << task.name;
        }
      }
      EXPECT_EQ(Mapping::parse(extended.serialize(), app.graph), extended);
    }
  }
}

TEST(OverlapMap, ConnectsOverlappingAndSharedCollections) {
  MiniApp app;
  std::vector<OverlapEdge> edges = app.g.build_overlap_graph();
  // shared/other are disjoint, so only the same-collection coupling edge
  // connects producer and consumer.
  edges.push_back({app.shared, app.shared, app.g.collection_bytes(app.shared)});
  const auto map = detail::build_overlap_map(app.g, edges);
  const auto& related = map[app.producer.index()][0];  // (produce, shared)
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0].task, app.consumer);
  // (produce, other) is coupled to nothing: no edge was added for `other`.
  EXPECT_TRUE(map[app.producer.index()][1].empty());
}

TEST(Colocation, MovesOverlappingArgumentsTogether) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  std::vector<OverlapEdge> edges = {
      {app.shared, app.shared, app.g.collection_bytes(app.shared)}};
  const auto overlap = detail::build_overlap_map(app.g, edges);

  Mapping f = search_starting_point(app.g, machine);
  // Move (produce, shared) to ZeroCopy; the consumer's use must follow.
  Mapping fp = f;
  fp.at(app.producer).proc = ProcKind::kGpu;
  fp.set_primary_memory(app.producer, 0, MemKind::kZeroCopy);
  fp = detail::colocation_constraints(fp, app.producer, 0, ProcKind::kGpu,
                                      MemKind::kZeroCopy, overlap, app.g,
                                      machine);
  EXPECT_EQ(fp.primary_memory(app.consumer, 0), MemKind::kZeroCopy);
  EXPECT_TRUE(fp.valid(app.g, machine));
}

TEST(Colocation, PullsTasksToAddressableProcessor) {
  // Moving a collection to FrameBuffer must pull CPU tasks using it to the
  // GPU (constraint 1 repair, Algorithm 2 ll. 10-13) — unless they have no
  // GPU variant, in which case their argument is re-homed instead.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, 1023), 8);
  const CollectionId c = g.add_collection(r, "c", Rect::line(0, 1023));
  const TaskId gpu_task = g.add_task(
      "a", 4, {.cpu_seconds_per_point = 1e-4, .gpu_seconds_per_point = 1e-5},
      {{c, Privilege::kReadWrite, 1.0}});
  const TaskId flexible = g.add_task(
      "b", 4, {.cpu_seconds_per_point = 1e-4, .gpu_seconds_per_point = 1e-5},
      {{c, Privilege::kReadOnly, 1.0}});
  const MachineModel machine = make_shepard(1);

  std::vector<OverlapEdge> edges = {{c, c, g.collection_bytes(c)}};
  const auto overlap = detail::build_overlap_map(g, edges);

  Mapping f(g);
  f.at(gpu_task).proc = ProcKind::kGpu;
  f.at(flexible).proc = ProcKind::kCpu;
  f.set_primary_memory(flexible, 0, MemKind::kSystem);
  f.set_primary_memory(gpu_task, 0, MemKind::kFrameBuffer);

  const Mapping fp = detail::colocation_constraints(
      f, gpu_task, 0, ProcKind::kGpu, MemKind::kFrameBuffer, overlap, g,
      machine);
  EXPECT_EQ(fp.primary_memory(flexible, 0), MemKind::kFrameBuffer);
  EXPECT_EQ(fp.at(flexible).proc, ProcKind::kGpu);
  EXPECT_TRUE(fp.valid(g, machine));
}

TEST(TasksByRuntime, OrdersByMeasuredCompute) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const Mapping f = search_starting_point(app.g, machine);
  const auto order = detail::tasks_by_runtime(sim, f, 1);
  ASSERT_EQ(order.size(), 3u);
  // The GPU-heavy producer dominates runtime under the starting point.
  EXPECT_EQ(order.front(), app.producer);
}

// --- end-to-end algorithm behaviour ---------------------------------------

TEST(CoordinateDescent, NeverWorseThanStartingPoint) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 3, .noise_sigma = 0.02});
  Evaluator probe(sim, {.repeats = 7, .seed = 3});
  const double start =
      probe.evaluate(search_starting_point(app.g, machine));

  const SearchResult cd = run_cd(sim, {.repeats = 7, .seed = 3});
  const SearchResult ccd = run_ccd(sim, {.repeats = 7, .seed = 3});
  EXPECT_LE(cd.best_seconds, start * 1.1);
  EXPECT_LE(ccd.best_seconds, start * 1.1);
  EXPECT_TRUE(cd.best.valid(app.g, machine));
  EXPECT_TRUE(ccd.best.valid(app.g, machine));
}

TEST(CoordinateDescent, CdSuggestsFewerThanCcd) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02});
  const SearchResult cd = run_cd(sim, {.repeats = 3, .seed = 5});
  const SearchResult ccd =
      run_ccd(sim, {.rotations = 5, .repeats = 3, .seed = 5});
  EXPECT_LT(cd.stats.suggested, ccd.stats.suggested);
  EXPECT_GT(cd.stats.suggested, 0u);
  // CCD must be at least as good as CD on the same seed.
  EXPECT_LE(ccd.best_seconds, cd.best_seconds * 1.05);
}

TEST(CoordinateDescent, SpendsNearlyAllTimeEvaluating) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02});
  const SearchResult ccd = run_ccd(sim, {.repeats = 3, .seed = 5});
  EXPECT_GT(ccd.stats.evaluation_fraction(), 0.95);  // paper: 99 %
}

TEST(CoordinateDescent, RespectsTimeBudget) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.0});
  const SearchResult full = run_ccd(sim, {.repeats = 3, .seed = 5});
  const SearchResult capped =
      run_ccd(sim, {.repeats = 3,
                    .time_budget_s = full.stats.search_time_s / 10.0,
                    .seed = 5});
  EXPECT_LT(capped.stats.suggested, full.stats.suggested);
}

TEST(EnsembleTuner, SuggestsOrdersOfMagnitudeMoreThanItEvaluates) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02});
  const SearchResult ot = run_ensemble_tuner(
      sim, {.repeats = 3, .time_budget_s = 30.0, .seed = 5},
      {.overhead_per_suggestion_s = 1e-3});
  EXPECT_GT(ot.stats.suggested, 4 * ot.stats.evaluated);
  EXPECT_GT(ot.stats.invalid, 0u);
  // OpenTuner wastes most of its time outside evaluation (paper: 13-45 %
  // evaluating).
  EXPECT_LT(ot.stats.evaluation_fraction(), 0.6);
  EXPECT_TRUE(ot.best.valid(app.graph, machine));
}

TEST(EnsembleTuner, TerminatesWithoutBudgetViaCaps) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const SearchResult ot = run_ensemble_tuner(
      sim, {.repeats = 2, .seed = 5},
      {.overhead_per_suggestion_s = 0.0, .max_suggestions = 500,
       .max_evaluations = 100});
  EXPECT_LE(ot.stats.suggested, 500u);
}

TEST(ProfilesDb, ExportImportRoundTrip) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});

  Evaluator first(sim, {.repeats = 3, .seed = 5});
  const Mapping a = search_starting_point(app.g, machine);
  Mapping b = a;
  b.at(app.consumer).proc = ProcKind::kCpu;
  b.set_primary_memory(app.consumer, 0, MemKind::kSystem);
  const double va = first.evaluate(a);
  const double vb = first.evaluate(b);

  // A fresh evaluator seeded with the export returns the cached means
  // without executing anything.
  SearchOptions seeded{.repeats = 3, .seed = 5};
  seeded.profiles_seed = first.view().export_profiles();
  Evaluator second(sim, seeded);
  EXPECT_DOUBLE_EQ(second.evaluate(a), va);
  EXPECT_DOUBLE_EQ(second.evaluate(b), vb);
  EXPECT_EQ(second.view().stats().evaluated, 0u);
  EXPECT_EQ(second.view().stats().evaluation_time_s, 0.0);
  EXPECT_EQ(second.view().best_seconds(), std::min(va, vb));
}

TEST(ProfilesDb, SeededSearchSkipsKnownCandidates) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const SearchResult first = run_ccd(sim, {.rotations = 2, .repeats = 3,
                                           .seed = 5});
  SearchOptions resumed{.rotations = 2, .repeats = 3, .seed = 5};
  resumed.profiles_seed = first.profiles_db;
  const SearchResult second = run_ccd(sim, resumed);
  // The resumed run proposes the same candidates but re-executes none of
  // them (only the finalist protocol runs).
  EXPECT_EQ(second.stats.evaluated, 0u);
  // The finalist protocol re-measures with fresh noise, so the reported
  // means agree only within the noise band.
  EXPECT_NEAR(second.best_seconds, first.best_seconds,
              0.05 * first.best_seconds);
}

TEST(ProfilesDb, RejectsMalformedText) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2});
  SearchOptions bad{.repeats = 2};
  bad.profiles_seed = "not a profiles db";
  EXPECT_THROW(Evaluator(sim, bad), Error);
  bad.profiles_seed = "profiles 1\nentry 0.5\ntask 0 dist GPU";  // truncated
  EXPECT_THROW(Evaluator(sim, bad), Error);
}

TEST(ProfilesDb, HeaderCountMustMatchTheEntries) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2});
  Evaluator source(sim, {.repeats = 2, .seed = 3});
  (void)source.evaluate(search_starting_point(app.g, machine));
  const std::string db = source.view().export_profiles();
  ASSERT_EQ(db.rfind("profiles 1\n", 0), 0u);

  SearchOptions options{.repeats = 2};
  options.profiles_seed = db;
  EXPECT_NO_THROW(Evaluator(sim, options));
  for (const char* count : {"profiles 0\n", "profiles 2\n"}) {
    options.profiles_seed = count + db.substr(db.find('\n') + 1);
    try {
      Evaluator eval(sim, options);
      ADD_FAILURE() << count << "was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u) << e.what();
    }
  }
}

/// Options JSON with one field beside the schema.
std::string options_with(const std::string& field) {
  return "{\"schema\":" + std::to_string(kSearchOptionsSchema) + "," +
         field + "}";
}

TEST(SearchOptionsJson, RejectsFractionalOutOfRangeAndNegativeIntegers) {
  EXPECT_EQ(search_options_from_json(options_with("\"repeats\":3")).repeats,
            3);
  EXPECT_THROW((void)search_options_from_json(options_with("\"repeats\":2.5")),
               Error);
  EXPECT_THROW((void)search_options_from_json(
                   options_with("\"rotations\":4294967297")),
               Error);
  EXPECT_THROW((void)search_options_from_json(options_with("\"seed\":-1")),
               Error);
  EXPECT_THROW(
      (void)search_options_from_json(options_with("\"seed\":\"-1\"")),
      Error);
  EXPECT_THROW(
      (void)search_options_from_json(options_with("\"frozen\":[0.5]")),
      Error);
}

TEST(SearchOptionsJson, NegativeFinalRepeatsIsOneErrorAtAnyThreadCount) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2});
  SearchOptions options =
      search_options_from_json(options_with("\"final_repeats\":-1"));
  options.rotations = 1;
  options.repeats = 2;
  const auto error_at = [&](int threads) -> std::string {
    options.threads = threads;
    try {
      (void)run_ccd(sim, options);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string serial = error_at(1);
  EXPECT_NE(serial.find("final_repeats must be positive"), std::string::npos)
      << serial;
  EXPECT_EQ(serial.find('\n'), std::string::npos);
  EXPECT_EQ(error_at(2), serial);
}

TEST(SearchResult, AlgorithmNamesAreStable) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  EXPECT_EQ(run_cd(sim, {.repeats = 2}).algorithm, "AM-CD");
  EXPECT_EQ(run_ccd(sim, {.rotations = 2, .repeats = 2}).algorithm,
            "AM-CCD");
}

}  // namespace
}  // namespace automap
