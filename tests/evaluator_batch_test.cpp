// Tests for the batch evaluation engine: the thread pool, the
// evaluate_batch fold semantics, and the bit-identical-across-thread-counts
// guarantee the derived-seed scheme provides (the SearchResult of every
// algorithm must not depend on SearchOptions::threads).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/search/algorithms.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/support/error.hpp"
#include "src/support/thread_pool.hpp"

namespace automap {
namespace {

// --- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.thread_count(), 8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleLaneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ClampsNonPositiveThreadCounts) {
  EXPECT_EQ(ThreadPool(0).thread_count(), 1);
  EXPECT_EQ(ThreadPool(-3).thread_count(), 1);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, PropagatesBodyExceptions) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          ++completed;
                        }),
      std::runtime_error);
  // The remaining indices still ran; the pool is reusable afterwards.
  EXPECT_EQ(completed.load(), 99);
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, EqualPriorityStreamsInterleaveDeficitRoundRobin) {
  // One worker drains the queue serially, so the pop order is observable.
  // A gate task blocks it while the stream queues build up: stream 1's
  // three tasks arrive strictly before stream 2's, so strict FIFO would
  // drain 1,1,1,2,2,2 — round robin must alternate them instead.
  // A higher-priority stream posted last still preempts both.
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool gate_open = false;
  std::vector<int> order;

  pool.post([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return gate_open; });
  });
  const auto record = [&](int tag) {
    return [&, tag] {
      const std::lock_guard<std::mutex> lock(m);
      order.push_back(tag);
      cv.notify_all();
    };
  };
  for (int i = 0; i < 3; ++i) pool.post(record(100 + i), 0, 1);
  for (int i = 0; i < 3; ++i) pool.post(record(200 + i), 0, 2);
  for (int i = 0; i < 2; ++i) pool.post(record(300 + i), 5, 9);
  {
    const std::lock_guard<std::mutex> lock(m);
    gate_open = true;
  }
  cv.notify_all();

  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return order.size() == 8; });
  EXPECT_EQ(order,
            (std::vector<int>{300, 301, 100, 200, 101, 201, 102, 202}));
}

TEST(ThreadPool, WorkerlessPoolRunsPostedTasksInline) {
  ThreadPool pool(1);
  int ran = 0;
  pool.post([&] { ++ran; }, 3, 42);
  EXPECT_EQ(ran, 1);
}

// --- evaluate_batch fold semantics -----------------------------------------

/// Tiny app with a non-trivial mapping space (GPU-friendly producer, a
/// CPU-only task, two collections).
struct MiniApp {
  TaskGraph g;
  CollectionId shared, other;
  TaskId producer, consumer, cpu_only;

  MiniApp() {
    const RegionId r = g.add_region("r", Rect::line(0, (1 << 21) - 1), 8);
    shared = g.add_collection(r, "shared", Rect::line(0, (1 << 20) - 1));
    other =
        g.add_collection(r, "other", Rect::line(1 << 20, (1 << 21) - 1));
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

/// Three structurally distinct valid candidates.
std::vector<Mapping> three_candidates(const MiniApp& app,
                                      const MachineModel& machine) {
  std::vector<Mapping> out;
  out.push_back(search_starting_point(app.g, machine));
  Mapping b = out[0];
  b.at(app.producer).proc = ProcKind::kCpu;
  b.at(app.producer).arg_memories.assign(2, {MemKind::kSystem});
  out.push_back(b);
  Mapping c = out[0];
  c.set_primary_memory(app.producer, 0, MemKind::kZeroCopy);
  out.push_back(c);
  return out;
}

TEST(EvaluateBatch, MatchesSerialEvaluateExactly) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  Evaluator serial(sim, {.repeats = 3, .seed = 11});
  std::vector<double> expected;
  for (const Mapping& m : candidates) expected.push_back(serial.evaluate(m));

  for (const int threads : {1, 2, 8}) {
    Evaluator batch(sim, {.repeats = 3, .seed = 11, .threads = threads});
    const std::vector<double> means = batch.evaluate_batch(candidates);
    ASSERT_EQ(means.size(), expected.size());
    for (std::size_t i = 0; i < means.size(); ++i)
      EXPECT_EQ(means[i], expected[i]) << "threads=" << threads;
    EXPECT_EQ(batch.view().stats().suggested,
              serial.view().stats().suggested);
    EXPECT_EQ(batch.view().stats().evaluated,
              serial.view().stats().evaluated);
    EXPECT_EQ(batch.view().stats().search_time_s,
              serial.view().stats().search_time_s);
    EXPECT_EQ(batch.view().export_profiles(),
              serial.view().export_profiles());
  }
}

TEST(EvaluateBatch, DuplicateInBatchHitsTheCache) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const Mapping m = search_starting_point(app.g, machine);
  const Mapping same = m;

  Evaluator eval(sim, {.repeats = 3, .seed = 1, .threads = 2});
  const std::vector<Mapping> batch = {m, same};
  const std::vector<double> means = eval.evaluate_batch(batch);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_EQ(means[0], means[1]);
  // The duplicate counts as suggested but is answered from the cache.
  EXPECT_EQ(eval.view().stats().suggested, 2u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
}

TEST(EvaluateBatch, InvalidCandidateFoldsToInfinityWithoutExecution) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2});
  Mapping bad = search_starting_point(app.g, machine);
  bad.set_primary_memory(app.cpu_only, 0, MemKind::kFrameBuffer);
  const Mapping good = search_starting_point(app.g, machine);

  Evaluator eval(sim, {.repeats = 3, .seed = 1, .threads = 2});
  const std::vector<Mapping> batch = {bad, good};
  const std::vector<double> means = eval.evaluate_batch(batch);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_TRUE(std::isinf(means[0]));
  EXPECT_FALSE(std::isinf(means[1]));
  EXPECT_EQ(eval.view().stats().invalid, 1u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
}

TEST(EvaluateBatch, BudgetExhaustionFoldsOnlyAPrefix) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  // The budget expires after the first evaluation, exactly as it would in
  // a serial proposal loop: the remaining candidates are never suggested.
  Evaluator eval(sim,
                 {.repeats = 2, .time_budget_s = 1e-9, .seed = 1,
                  .threads = 2});
  const std::vector<double> means = eval.evaluate_batch(candidates);
  EXPECT_EQ(means.size(), 1u);
  EXPECT_EQ(eval.view().stats().suggested, 1u);
  EXPECT_TRUE(eval.budget_exhausted());
}

TEST(EvaluateBatch, ConsumeFalseDiscardsTheUnfoldedTail) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  Evaluator eval(sim, {.repeats = 3, .seed = 5, .threads = 2});
  const std::size_t folded = eval.evaluate_batch(
      candidates, [](std::size_t, double) { return false; });
  EXPECT_EQ(folded, 1u);
  // The tail left no trace: not suggested, not cached, no clock charge.
  EXPECT_EQ(eval.view().stats().suggested, 1u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
  Evaluator fresh(sim, {.repeats = 3, .seed = 5});
  (void)fresh.evaluate(candidates[0]);
  EXPECT_EQ(eval.view().export_profiles(),
            fresh.view().export_profiles());
}

TEST(EvaluateBatch, MixedOutcomeBatchIsThreadCountInvariant) {
  // One 32 GiB collection: fits Zero-Copy (60 GiB) and System (64 GiB) but
  // not a 16 GiB Frame-Buffer, so placement alone decides between a valid
  // run and an OOM. GPU compute must reach the data over the slow Zero-Copy
  // affinity, so against a CPU+System incumbent it is censored. One batch
  // therefore folds all three outcome kinds — valid, OOM, censored — and
  // the folded statistics must not depend on the thread count.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (1 << 29) - 1), 64);
  const CollectionId big =
      g.add_collection(r, "big", Rect::line(0, (1 << 29) - 1));
  (void)g.add_task(
      "work", 8,
      {.cpu_seconds_per_point = 2e-3, .gpu_seconds_per_point = 4e-5},
      {{big, Privilege::kReadWrite, 0.01}});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 2, .noise_sigma = 0.02});

  const TaskId work = TaskId(0);
  Mapping fast = search_starting_point(g, machine);
  fast.at(work).proc = ProcKind::kCpu;
  fast.set_primary_memory(work, 0, MemKind::kSystem);
  Mapping oom = fast;
  oom.at(work).proc = ProcKind::kGpu;
  oom.set_primary_memory(work, 0, MemKind::kFrameBuffer);
  Mapping slow = fast;
  slow.at(work).proc = ProcKind::kGpu;
  slow.set_primary_memory(work, 0, MemKind::kZeroCopy);
  const std::vector<Mapping> batch = {oom, slow};

  std::vector<double> serial_means;
  SearchStats serial_stats;
  std::string serial_profiles;
  for (const int threads : {1, 8}) {
    Evaluator eval(sim,
                   {.repeats = 3, .seed = 7, .top_k = 1, .threads = threads});
    const double incumbent = eval.evaluate(fast);
    ASSERT_TRUE(std::isfinite(incumbent));
    const std::vector<double> means = eval.evaluate_batch(batch, incumbent);
    ASSERT_EQ(means.size(), batch.size());
    EXPECT_TRUE(std::isinf(means[0]));   // OOM folds to infinity
    EXPECT_EQ(means[1], incumbent);      // censored folds to the threshold

    const SearchStats& s = eval.view().stats();
    EXPECT_EQ(s.oom, 1u);
    EXPECT_EQ(s.censored, 1u);
    EXPECT_EQ(s.evaluated, 3u);
    if (threads == 1) {
      serial_means = means;
      serial_stats = s;
      serial_profiles = eval.view().export_profiles();
      continue;
    }
    EXPECT_EQ(means, serial_means);
    EXPECT_EQ(s.suggested, serial_stats.suggested);
    EXPECT_EQ(s.evaluated, serial_stats.evaluated);
    EXPECT_EQ(s.invalid, serial_stats.invalid);
    EXPECT_EQ(s.oom, serial_stats.oom);
    EXPECT_EQ(s.censored, serial_stats.censored);
    EXPECT_EQ(s.cache_hits, serial_stats.cache_hits);
    EXPECT_EQ(s.transient_failures, serial_stats.transient_failures);
    EXPECT_EQ(s.retries, serial_stats.retries);
    EXPECT_EQ(s.quarantined, serial_stats.quarantined);
    EXPECT_EQ(s.search_time_s, serial_stats.search_time_s);
    EXPECT_EQ(s.evaluation_time_s, serial_stats.evaluation_time_s);
    EXPECT_EQ(eval.view().export_profiles(), serial_profiles);
  }
}

// --- bit-identical results across thread counts -----------------------------

void expect_identical(const SearchResult& a, const SearchResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.best, b.best) << context;
  EXPECT_EQ(a.best_seconds, b.best_seconds) << context;
  EXPECT_EQ(a.stats.suggested, b.stats.suggested) << context;
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated) << context;
  EXPECT_EQ(a.stats.invalid, b.stats.invalid) << context;
  EXPECT_EQ(a.stats.oom, b.stats.oom) << context;
  EXPECT_EQ(a.stats.search_time_s, b.stats.search_time_s) << context;
  EXPECT_EQ(a.stats.evaluation_time_s, b.stats.evaluation_time_s) << context;
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << context;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].search_time_s, b.trajectory[i].search_time_s)
        << context;
    EXPECT_EQ(a.trajectory[i].best_exec_s, b.trajectory[i].best_exec_s)
        << context;
  }
  EXPECT_EQ(a.profiles_db, b.profiles_db) << context;
}

TEST(BatchDeterminism, CcdIsByteIdenticalAcrossThreadCounts) {
  const MachineModel machine = make_shepard(1);
  for (const bool circuit : {false, true}) {
    const BenchmarkApp app = circuit
                                 ? make_circuit(circuit_config_for(1, 0))
                                 : make_stencil(stencil_config_for(1, 0));
    Simulator sim(machine, app.graph,
                  {.iterations = 3, .noise_sigma = 0.02});
    SearchOptions options{.rotations = 3, .repeats = 3, .seed = 42};
    options.threads = 1;
    const SearchResult serial = run_ccd(sim, options);
    for (const int threads : {2, 8}) {
      options.threads = threads;
      expect_identical(run_ccd(sim, options), serial,
                       app.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(BatchDeterminism, EveryRegistryAlgorithmIsThreadCountInvariant) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02});

  for (const SearchAlgorithmInfo& info : search_algorithms()) {
    // A finite budget so the budget-free algorithms (random, annealing,
    // the tuner) terminate; generous enough for a couple of CCD passes.
    SearchOptions options{.rotations = 2, .repeats = 3,
                          .time_budget_s = 40.0, .seed = 9};
    options.threads = 1;
    const SearchResult serial = info.run(sim, options);
    options.threads = 4;
    expect_identical(info.run(sim, options), serial, info.name);
  }
}

}  // namespace
}  // namespace automap
