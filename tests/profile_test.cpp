// Tests for the execution observability layer (src/report/profile) and the
// accounting bugfixes that ride with it: per-resource utilization bounds,
// critical-path extraction, what the benchmark apps' mappings show in the
// profile (task ranking, pool rows, copy wait), the Chrome-trace JSON
// exporter, OOM observation time charging, the shared inter-node
// interconnect, and profiles-database import validation/dedupe.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/machine/machine.hpp"
#include "src/report/profile.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {
namespace {

// --- helpers ---------------------------------------------------------------

/// Three-stage chain (produce -> relax -> reduce) through one collection.
/// Small enough that every mapping fits; noise-free runs are deterministic.
struct ChainApp {
  TaskGraph g;
  CollectionId field;
  TaskId produce, relax, reduce;

  ChainApp() {
    const RegionId r = g.add_region("field", Rect::line(0, (1 << 20) - 1), 8);
    field = g.add_collection(r, "all", Rect::line(0, (1 << 20) - 1));
    produce = g.add_task(
        "produce", 4,
        {.cpu_seconds_per_point = 1e-3, .gpu_seconds_per_point = 5e-5},
        {{field, Privilege::kWriteOnly, 1.0}});
    relax = g.add_task(
        "relax", 4,
        {.cpu_seconds_per_point = 2e-3, .gpu_seconds_per_point = 8e-5},
        {{field, Privilege::kReadWrite, 1.0}});
    reduce = g.add_task(
        "reduce", 1,
        {.cpu_seconds_per_point = 5e-4, .gpu_seconds_per_point = 2e-5},
        {{field, Privilege::kReadOnly, 1.0}});
    g.add_dependence({.producer = produce,
                      .consumer = relax,
                      .producer_collection = field,
                      .consumer_collection = field,
                      .bytes = g.collection_bytes(field)});
    g.add_dependence({.producer = relax,
                      .consumer = reduce,
                      .producer_collection = field,
                      .consumer_collection = field,
                      .bytes = g.collection_bytes(field)});
  }
};

/// Minimal JSON syntax validator (objects, arrays, strings, numbers,
/// true/false/null). Returns true iff `text` is exactly one JSON value.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.skip_ws();
    if (!c.value()) return false;
    c.skip_ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    auto digits = [&] {
      const std::size_t d = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return pos_ > d;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digits()) return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++count;
  return count;
}

// --- profile: utilization and critical path --------------------------------

TEST(Profile, UtilizationBoundedByMakespan) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g,
                {.iterations = 3, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(Mapping(app.g), 1);
  ASSERT_TRUE(report.ok) << report.failure;

  const ExecutionProfile profile = compute_profile(app.g, report);
  EXPECT_EQ(profile.makespan_s, report.total_seconds);
  EXPECT_EQ(profile.iterations, 3);
  ASSERT_FALSE(profile.resources.empty());

  const double eps = 1e-9 * profile.makespan_s;
  for (const ResourceUsage& row : profile.resources) {
    // Each pool/channel is a serialized busy-until state: its events never
    // overlap, so total busy time cannot exceed the makespan.
    EXPECT_LE(row.busy_seconds, profile.makespan_s + eps) << row.resource;
    EXPECT_GE(row.utilization, 0.0) << row.resource;
    EXPECT_LE(row.utilization, 1.0 + 1e-9) << row.resource;
    EXPECT_GT(row.events, 0u) << row.resource;
    if (row.is_processor) {
      EXPECT_EQ(row.bytes, 0u) << row.resource;
    }
  }

  ASSERT_EQ(profile.tasks.size(), app.g.num_tasks());
  for (const TaskTimeBreakdown& t : profile.tasks) {
    EXPECT_GE(t.compute_seconds, 0.0);
    EXPECT_GE(t.launch_overhead_seconds, 0.0);
    EXPECT_GT(t.runtime_overhead_seconds, 0.0);
    EXPECT_LE(t.launch_overhead_seconds + t.runtime_overhead_seconds,
              t.busy_seconds + eps);
  }

  // Rendering is exercised for crash-freedom and headline content.
  const std::string text = render_profile(app.g, profile);
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
}

TEST(Profile, CriticalPathSpansTheMakespanOnAChain) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g,
                {.iterations = 2, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(Mapping(app.g), 7);
  ASSERT_TRUE(report.ok) << report.failure;

  const ExecutionProfile profile = compute_profile(app.g, report);
  ASSERT_FALSE(profile.critical_path.empty());

  // The chain is gap-free (every start = some predecessor's end) and the
  // graph is a serial dependence chain, so the extracted path must reach
  // back to t = 0 and span the whole run.
  const double tol = 1e-6 * profile.makespan_s;
  EXPECT_NEAR(profile.critical_path_s, profile.makespan_s, tol);
  EXPECT_NEAR(profile.critical_task_s + profile.critical_copy_s,
              profile.critical_path_s, tol);

  // Chronological, back-to-back steps.
  for (std::size_t i = 1; i < profile.critical_path.size(); ++i) {
    const CriticalPathStep& prev = profile.critical_path[i - 1];
    const CriticalPathStep& cur = profile.critical_path[i];
    EXPECT_NEAR(prev.start_s + prev.duration_s, cur.start_s, tol) << i;
  }
  const CriticalPathStep& last = profile.critical_path.back();
  EXPECT_NEAR(last.start_s + last.duration_s, profile.makespan_s, tol);
}

TEST(Profile, RequiresATracedSuccessfulRun) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator untraced(machine, app.g, {.iterations = 1, .noise_sigma = 0.0});
  const ExecutionReport report = untraced.run(Mapping(app.g), 1);
  ASSERT_TRUE(report.ok);
  EXPECT_THROW((void)compute_profile(app.g, report), Error);

  // A trace alone does not make a failed run profilable.
  Simulator traced(machine, app.g,
                   {.iterations = 1, .noise_sigma = 0.0, .record_trace = true});
  ExecutionReport failed = traced.run(Mapping(app.g), 1);
  ASSERT_TRUE(failed.ok);
  failed.ok = false;
  EXPECT_THROW((void)compute_profile(app.g, failed), Error);
}

// --- profile: what the benchmark apps' mappings show ------------------------

/// A noise-free traced HTR run on one Shepard node.
ExecutionProfile htr_profile(const BenchmarkApp& app,
                             const MachineModel& machine,
                             const Mapping& mapping) {
  Simulator sim(machine, app.graph,
                {.iterations = 3, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(mapping, 1);
  EXPECT_TRUE(report.ok) << report.failure;
  return compute_profile(app.graph, report);
}

TEST(Profile, HtrDefaultMappingRanksChemistryFirst) {
  const BenchmarkApp app = make_htr(htr_config_for(1, 1));
  const MachineModel machine = make_shepard(1);
  DefaultMapper dm;
  const ExecutionProfile profile =
      htr_profile(app, machine, dm.map_all(app.graph, machine));
  ASSERT_EQ(profile.tasks.size(), app.graph.num_tasks());
  for (std::size_t i = 1; i < profile.tasks.size(); ++i)
    EXPECT_GE(profile.tasks[i - 1].busy_seconds,
              profile.tasks[i].busy_seconds);
  EXPECT_EQ(app.graph.task(profile.tasks.front().task).name,
            "chemistry_source");
}

TEST(Profile, OnlyTheMappedKindsPoolIsBusy) {
  const BenchmarkApp app = make_htr(htr_config_for(1, 1));
  const MachineModel machine = make_shepard(1);
  for (const ProcKind kind : {ProcKind::kGpu, ProcKind::kCpu}) {
    Mapping uniform(app.graph);
    for (const GroupTask& t : app.graph.tasks()) {
      uniform.at(t.id).proc = kind;
      uniform.at(t.id).arg_memories.assign(t.args.size(),
                                           {machine.best_memory_for(kind)});
    }
    const std::string pool = std::string(to_string(kind)) + " pool";
    bool seen = false;
    for (const ResourceUsage& row : htr_profile(app, machine, uniform)
                                        .resources) {
      if (!row.is_processor) continue;
      if (row.resource == pool) {
        seen = true;
        EXPECT_GT(row.busy_seconds, 0.0) << pool;
      } else {
        EXPECT_EQ(row.busy_seconds, 0.0) << row.resource << " under " << pool;
      }
    }
    EXPECT_TRUE(seen) << pool;
  }
}

TEST(Profile, CopyWaitAppearsUnderMixedMappings) {
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 4));
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph,
                {.iterations = 3, .noise_sigma = 0.0, .record_trace = true});
  Mapping mixed(app.graph);
  mixed.at(TaskId(1)).proc = ProcKind::kCpu;
  mixed.at(TaskId(1)).arg_memories.assign(
      app.graph.task(TaskId(1)).args.size(), {MemKind::kSystem});
  const ExecutionReport report = sim.run(mixed, 1);
  ASSERT_TRUE(report.ok) << report.failure;
  const ExecutionProfile profile = compute_profile(app.graph, report);
  EXPECT_TRUE(std::any_of(profile.tasks.begin(), profile.tasks.end(),
                          [](const TaskTimeBreakdown& t) {
                            return t.copy_wait_seconds > 0.0;
                          }));
}

// --- Chrome-trace export ----------------------------------------------------

TEST(Profile, ChromeTraceIsValidJsonWithOneSlicePerEvent) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g,
                {.iterations = 2, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(Mapping(app.g), 1);
  ASSERT_TRUE(report.ok) << report.failure;
  ASSERT_FALSE(report.trace.empty());

  const std::string json = render_chrome_trace(report);
  EXPECT_TRUE(JsonChecker::valid(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // One complete ("X") slice per trace event; one metadata ("M") row-name
  // record per distinct resource.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), report.trace.size());
  std::vector<std::string> resources;
  for (const TraceEvent& e : report.trace) resources.push_back(e.resource);
  std::sort(resources.begin(), resources.end());
  resources.erase(std::unique(resources.begin(), resources.end()),
                  resources.end());
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), resources.size());
  // Copy slices carry their byte volume.
  const bool any_copy =
      std::any_of(report.trace.begin(), report.trace.end(),
                  [](const TraceEvent& e) {
                    return e.kind == TraceEvent::Kind::kCopy;
                  });
  EXPECT_EQ(json.find("\"bytes\":") != std::string::npos, any_copy);
}

// --- bugfix: OOM observations charge search time ----------------------------

/// One GPU task whose collection (32 GiB) exceeds a Shepard Frame Buffer
/// (16 GiB); the default mapping pins it there with no fallback, so every
/// evaluation fails with OOM.
struct OomApp {
  TaskGraph g;
  TaskId task;

  OomApp() {
    const RegionId r =
        g.add_region("huge", Rect::line(0, (1 << 28) - 1), 128);
    const CollectionId all =
        g.add_collection(r, "all", Rect::line(0, (1 << 28) - 1));
    task = g.add_task(
        "burn", 1,
        {.cpu_seconds_per_point = 1e-3, .gpu_seconds_per_point = 1e-4},
        {{all, Privilege::kReadWrite, 1.0}});
  }
};

TEST(OomAccounting, FailedEvaluationChargesObservationCost) {
  OomApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});

  Evaluator eval(sim, {.repeats = 3, .seed = 1});
  const double mean = eval.evaluate(Mapping(app.g));
  EXPECT_TRUE(std::isinf(mean));

  const SearchStats& stats = eval.view().stats();
  EXPECT_EQ(stats.oom, 1u);
  EXPECT_EQ(stats.evaluated, 1u);
  // The runtime performs dependence analysis and instance allocation for
  // every task before aborting: one runtime-overhead quantum per task.
  const double expected =
      machine.runtime_overhead() * static_cast<double>(app.g.num_tasks());
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(stats.search_time_s, expected);
  EXPECT_DOUBLE_EQ(stats.evaluation_time_s, expected);
}

TEST(OomAccounting, ChargeIsIdenticalAcrossThreadCounts) {
  OomApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});

  // A failing candidate next to a valid CPU/System one, folded as a batch.
  const Mapping oom(app.g);
  Mapping good(app.g);
  good.at(app.task).proc = ProcKind::kCpu;
  good.at(app.task).arg_memories.assign(1, {MemKind::kSystem});
  const std::vector<Mapping> batch = {oom, good};

  Evaluator serial(sim, {.repeats = 3, .seed = 11, .threads = 1});
  const std::vector<double> expected = serial.evaluate_batch(batch);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_TRUE(std::isinf(expected[0]));
  EXPECT_FALSE(std::isinf(expected[1]));

  for (const int threads : {2, 8}) {
    Evaluator parallel(sim, {.repeats = 3, .seed = 11, .threads = threads});
    const std::vector<double> means = parallel.evaluate_batch(batch);
    ASSERT_EQ(means.size(), expected.size());
    for (std::size_t i = 0; i < means.size(); ++i)
      EXPECT_EQ(means[i], expected[i]) << "threads=" << threads;
    EXPECT_EQ(parallel.view().stats().oom, serial.view().stats().oom);
    EXPECT_EQ(parallel.view().stats().search_time_s,
              serial.view().stats().search_time_s)
        << "threads=" << threads;
    EXPECT_EQ(parallel.view().stats().evaluation_time_s,
              serial.view().stats().evaluation_time_s)
        << "threads=" << threads;
  }
}

// --- bugfix: inter-node copies share one interconnect -----------------------

TEST(SharedInterconnect, InterNodeCopiesNeverOverlapAcrossKindPairs) {
  // Two independent producer->consumer pairs on a 2-node machine: one pair
  // on CPU/System, one on GPU/FrameBuffer. Their halo edges cross the node
  // boundary in full, so each iteration queues a System->System and a
  // FrameBuffer->FrameBuffer network transfer at nearly the same moment.
  // The machine has one NIC: the transfers must serialize even though the
  // two kind pairs have distinct channel entries.
  TaskGraph g;
  const std::int64_t n = (1 << 27) - 1;  // 1 GiB per collection
  const RegionId ra = g.add_region("a", Rect::line(0, n), 8);
  const RegionId rb = g.add_region("b", Rect::line(0, n), 8);
  const CollectionId ca = g.add_collection(ra, "a", Rect::line(0, n));
  const CollectionId cb = g.add_collection(rb, "b", Rect::line(0, n));
  const TaskId pa =
      g.add_task("cpu_produce", 2, {.cpu_seconds_per_point = 1e-4},
                 {{ca, Privilege::kWriteOnly, 1.0}});
  const TaskId qa =
      g.add_task("cpu_consume", 2, {.cpu_seconds_per_point = 1e-4},
                 {{ca, Privilege::kReadOnly, 1.0}});
  const TaskId pb = g.add_task(
      "gpu_produce", 2,
      {.cpu_seconds_per_point = 1e-3, .gpu_seconds_per_point = 1e-4},
      {{cb, Privilege::kWriteOnly, 1.0}});
  const TaskId qb = g.add_task(
      "gpu_consume", 2,
      {.cpu_seconds_per_point = 1e-3, .gpu_seconds_per_point = 1e-4},
      {{cb, Privilege::kReadOnly, 1.0}});
  g.add_dependence({.producer = pa,
                    .consumer = qa,
                    .producer_collection = ca,
                    .consumer_collection = ca,
                    .bytes = g.collection_bytes(ca),
                    .internode_fraction = 1.0});
  g.add_dependence({.producer = pb,
                    .consumer = qb,
                    .producer_collection = cb,
                    .consumer_collection = cb,
                    .bytes = g.collection_bytes(cb),
                    .internode_fraction = 1.0});

  const MachineModel machine = make_shepard(2);
  Mapping mapping(g);  // default: GPU / FrameBuffer, distributed
  for (const TaskId t : {pa, qa}) {
    mapping.at(t).proc = ProcKind::kCpu;
    mapping.at(t).arg_memories.assign(1, {MemKind::kSystem});
  }

  Simulator sim(machine, g,
                {.iterations = 2, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(mapping, 3);
  ASSERT_TRUE(report.ok) << report.failure;

  std::vector<const TraceEvent*> network;
  for (const TraceEvent& e : report.trace)
    if (e.resource == "network") network.push_back(&e);
  ASSERT_GE(network.size(), 4u);  // two kind pairs x two iterations

  // Both kind pairs landed on the shared row...
  const bool has_sys = std::any_of(
      network.begin(), network.end(),
      [](const TraceEvent* e) { return e->name.rfind("System->", 0) == 0; });
  const bool has_fb =
      std::any_of(network.begin(), network.end(), [](const TraceEvent* e) {
        return e->name.rfind("FrameBuffer->", 0) == 0;
      });
  EXPECT_TRUE(has_sys);
  EXPECT_TRUE(has_fb);

  // ...and never overlap: one NIC serializes them.
  std::sort(network.begin(), network.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return a->start_s < b->start_s;
            });
  const double eps = 1e-9 * report.total_seconds;
  for (std::size_t i = 1; i < network.size(); ++i) {
    EXPECT_GE(network[i]->start_s,
              network[i - 1]->start_s + network[i - 1]->duration_s - eps)
        << "network transfers " << i - 1 << " and " << i << " overlap";
  }
}

// --- bugfix: profiles-database import validation and dedupe -----------------

TEST(ProfilesImport, MalformedMeanRaisesErrorNotStdException) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 1, .noise_sigma = 0.0});
  Evaluator eval(sim, {.repeats = 1, .seed = 1});
  // Bare std::stod would throw std::invalid_argument here; the importer
  // must produce the library's own diagnostic instead.
  EXPECT_THROW(eval.import_profiles("profiles 1\nentry abc\n"), Error);
  EXPECT_THROW(eval.import_profiles("profiles 1\nentry 1.5 trailing\n"),
               Error);
  EXPECT_THROW(eval.import_profiles("profiles 1\nentry \n"), Error);
}

TEST(ProfilesImport, RejectsRepeatedKindsInAPriorityList) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 1, .noise_sigma = 0.0});
  Evaluator source(sim, {.repeats = 1, .seed = 1});
  (void)source.evaluate(Mapping(app.g));
  const std::string db = source.view().export_profiles();
  ASSERT_NE(db.find("task 1 dist GPU FrameBuffer\n"), std::string::npos);

  // The text with task 1's list replaced by `list`, and the prefix an
  // error on that line carries.
  const auto mutate = [](std::string text, const std::string& list) {
    const std::string line = "task 1 dist GPU FrameBuffer\n";
    const std::size_t at = text.find(line);
    text.replace(at, line.size(), "task 1 dist GPU " + list + "\n");
    const auto n = std::count(text.begin(), text.begin() + at, '\n') + 1;
    return std::make_pair(text, "line " + std::to_string(n) + ": ");
  };
  for (const std::string list :
       {"FrameBuffer,FB", "FrameBuffer,ZeroCopy,System,ZeroCopy"}) {
    const auto [text, prefix] = mutate(db, list);
    Evaluator eval(sim, {.repeats = 1, .seed = 1});
    try {
      eval.import_profiles(text);
      ADD_FAILURE() << list << " accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(prefix + "memory priority list '" + list, 0), 0u)
          << what;
    }
  }
}

TEST(ProfilesImport, DuplicateImportDoesNotStackFinalists) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});

  // Measure two candidates and export the database.
  Evaluator source(sim, {.repeats = 2, .seed = 3});
  Mapping cpu(app.g);
  for (const TaskId t : {app.produce, app.relax, app.reduce}) {
    cpu.at(t).proc = ProcKind::kCpu;
    cpu.at(t).arg_memories.assign(1, {MemKind::kSystem});
  }
  (void)source.evaluate(Mapping(app.g));
  (void)source.evaluate(cpu);
  const std::string db = source.view().export_profiles();

  // Importing once vs twice must leave identical finalist state: the
  // finalize pass re-runs each finalist, so stacked duplicates would both
  // waste reruns and skew the search clock.
  Evaluator once(sim, {.repeats = 2, .seed = 3});
  once.import_profiles(db);
  Evaluator twice(sim, {.repeats = 2, .seed = 3});
  twice.import_profiles(db);
  twice.import_profiles(db);

  const SearchResult a = once.finalize("import-once");
  const SearchResult b = twice.finalize("import-twice");
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_seconds, b.best_seconds);
  EXPECT_EQ(a.stats.search_time_s, b.stats.search_time_s);
  EXPECT_EQ(a.stats.evaluation_time_s, b.stats.evaluation_time_s);
}

// --- telemetry --------------------------------------------------------------

TEST(Telemetry, RotationsRecordImprovementsAndCacheHitsAreCounted) {
  ChainApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});

  Evaluator eval(sim, {.repeats = 2, .seed = 5});
  const Mapping start(app.g);
  const double first = eval.evaluate(start);
  eval.note_rotation(0, std::numeric_limits<double>::infinity());
  (void)eval.evaluate(start);  // answered from the profiles cache
  eval.note_rotation(1, first);

  const SearchStats& stats = eval.view().stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
  ASSERT_EQ(stats.rotations.size(), 2u);
  EXPECT_EQ(stats.rotations[0].rotation, 0);
  EXPECT_TRUE(std::isinf(stats.rotations[0].best_before_s));
  EXPECT_EQ(stats.rotations[0].best_after_s, first);
  // An infinite starting point reports no finite improvement.
  EXPECT_EQ(stats.rotations[0].improvement_s(), 0.0);
  EXPECT_EQ(stats.rotations[1].best_before_s, first);
  EXPECT_EQ(stats.rotations[1].improvement_s(), 0.0);

  const SearchResult result = eval.finalize("telemetry-test");
  EXPECT_EQ(result.stats.cache_hits, 1u);
  EXPECT_EQ(result.stats.rotations.size(), 2u);
  EXPECT_GE(result.stats.wall_time_s, 0.0);
}

}  // namespace
}  // namespace automap
