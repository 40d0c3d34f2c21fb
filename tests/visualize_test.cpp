// Tests for the mapping/trace visualization (Fig. 2/3-style rendering, DOT
// export, Chrome tracing export).

#include <gtest/gtest.h>

#include "src/apps/circuit.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {
namespace {

class VisualizeFixture : public ::testing::Test {
 protected:
  VisualizeFixture()
      : app(make_circuit(circuit_config_for(1, 1))),
        machine(make_shepard(1)) {
    DefaultMapper dm;
    mapping = dm.map_all(app.graph, machine);
    mapping.at(TaskId(1)).proc = ProcKind::kCpu;
    mapping.at(TaskId(1)).arg_memories.assign(
        app.graph.task(TaskId(1)).args.size(), {MemKind::kZeroCopy});
  }

  BenchmarkApp app;
  MachineModel machine;
  Mapping mapping;
};

TEST_F(VisualizeFixture, TextRenderingShowsEveryTaskAndMemoryLetter) {
  const std::string text = render_mapping(app.graph, mapping);
  for (const GroupTask& t : app.graph.tasks())
    EXPECT_NE(text.find(t.name), std::string::npos) << t.name;
  EXPECT_NE(text.find("[F]"), std::string::npos);  // FrameBuffer args
  EXPECT_NE(text.find("[Z]"), std::string::npos);  // the ZeroCopy demotions
  EXPECT_NE(text.find("[GPU]"), std::string::npos);
  EXPECT_NE(text.find("[CPU]"), std::string::npos);
  // Relative-size bars present.
  EXPECT_NE(text.find("|#"), std::string::npos);
}

TEST_F(VisualizeFixture, DotOutputIsWellFormed) {
  const std::string dot = render_mapping_dot(app.graph, mapping);
  EXPECT_EQ(dot.find("digraph mapping {"), 0u);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  for (const GroupTask& t : app.graph.tasks())
    EXPECT_NE(dot.find("t" + std::to_string(t.id.value()) + " ["),
              std::string::npos);
  // Data edges rendered with byte labels; braces balanced.
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST_F(VisualizeFixture, ChromeTraceContainsAllEvents) {
  Simulator sim(machine, app.graph,
                {.iterations = 2, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok);
  ASSERT_FALSE(report.trace.empty());

  // Every task executes once per iteration.
  std::size_t task_events = 0;
  for (const auto& e : report.trace)
    if (e.kind == TraceEvent::Kind::kTask) ++task_events;
  EXPECT_EQ(task_events, app.graph.num_tasks() * 2);

  const std::string json = render_chrome_trace(report);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("GPU pool"), std::string::npos);
  // Events are time-consistent: starts non-negative, durations positive.
  for (const auto& e : report.trace) {
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_GT(e.duration_s, 0.0);
  }
}

TEST_F(VisualizeFixture, TraceDisabledByDefault) {
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.trace.empty());
}

TEST_F(VisualizeFixture, TraceOfFailedRunIsRejected) {
  ExecutionReport failed;
  failed.ok = false;
  EXPECT_THROW((void)render_chrome_trace(failed), Error);
}

TEST_F(VisualizeFixture, CopyEventsAppearWhenMemoriesMismatch) {
  Simulator sim(machine, app.graph,
                {.iterations = 2, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok);
  bool copy_found = false;
  for (const auto& e : report.trace)
    if (e.kind == TraceEvent::Kind::kCopy) copy_found = true;
  // The mixed GPU/CPU mapping moves data between FrameBuffer and ZeroCopy.
  EXPECT_TRUE(copy_found);
}

TEST_F(VisualizeFixture, ChromeTraceEscapesControlBytesInTaskNames) {
  // The graph reader accepts any non-blank byte in a task name, so a name
  // may carry control bytes, quotes and backslashes; JSON allows none of
  // them raw inside a string.
  const std::string plain = app.graph.task(TaskId(0)).name;
  const std::string odd = plain + "\x01\"q\\\x1f";
  std::string text = task_graph_to_string(app.graph);
  const std::size_t at = text.find("\ntask " + plain + " ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at + 6, plain.size(), odd);
  const TaskGraph graph = task_graph_from_string(text);
  ASSERT_EQ(graph.task(TaskId(0)).name, odd);

  Simulator sim(machine, graph,
                {.iterations = 1, .noise_sigma = 0.0, .record_trace = true});
  const ExecutionReport report = sim.run(mapping, 1);
  ASSERT_TRUE(report.ok);
  const std::string json = render_chrome_trace(report);
  // Only the trailing newline may be a raw control byte.
  ASSERT_EQ(json.back(), '\n');
  for (std::size_t i = 0; i + 1 < json.size(); ++i)
    EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20) << "byte " << i;
  EXPECT_NE(json.find("\\u0001\\\"q\\\\\\u001f"), std::string::npos);

  const JsonValue parsed = parse_json(json);
  bool found = false;
  for (const JsonValue& event : parsed.find("traceEvents")->array)
    found |= event.str_or("name", "") == odd;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace automap
