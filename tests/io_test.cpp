// Tests for the text serialization of machine models and task graphs
// (the §3.3 search-space/machine files).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/apps/circuit.hpp"
#include "src/apps/pennant.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

TEST(MachineIo, RoundTripPreservesEverything) {
  for (const MachineModel& original : {make_shepard(2), make_lassen(4)}) {
    const MachineModel parsed =
        machine_from_string(machine_to_string(original));
    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.num_nodes(), original.num_nodes());
    EXPECT_EQ(parsed.runtime_overhead(), original.runtime_overhead());
    for (const ProcKind k : original.proc_kinds()) {
      EXPECT_EQ(parsed.procs_per_node(k), original.procs_per_node(k));
      EXPECT_EQ(parsed.proc_group(k).speed, original.proc_group(k).speed);
      EXPECT_EQ(parsed.proc_group(k).launch_overhead_s,
                original.proc_group(k).launch_overhead_s);
      EXPECT_EQ(parsed.proc_group(k).watts_busy,
                original.proc_group(k).watts_busy);
    }
    for (const MemKind k : original.mem_kinds()) {
      EXPECT_EQ(parsed.mem_capacity(k), original.mem_capacity(k));
      EXPECT_EQ(parsed.mems_per_node(k), original.mems_per_node(k));
      for (const ProcKind p : original.proc_kinds()) {
        ASSERT_EQ(parsed.addressable(p, k), original.addressable(p, k));
        if (!original.addressable(p, k)) continue;
        EXPECT_EQ(parsed.affinity(p, k).bandwidth_bytes_per_s,
                  original.affinity(p, k).bandwidth_bytes_per_s);
      }
      for (const MemKind other : original.mem_kinds()) {
        for (const bool inter : {false, true}) {
          if (original.num_nodes() == 1 && inter) continue;
          EXPECT_EQ(parsed.channel(k, other, inter).bandwidth_bytes_per_s,
                    original.channel(k, other, inter).bandwidth_bytes_per_s);
        }
      }
    }
  }
}

TEST(MachineIo, SingleNodeMachineRoundTrips) {
  const MachineModel parsed =
      machine_from_string(machine_to_string(make_shepard(1)));
  EXPECT_EQ(parsed.num_nodes(), 1);
}

TEST(MachineIo, ParseErrorsCarryLineNumbers) {
  try {
    (void)machine_from_string(
        "machine broken nodes 1\nproc CPU count oops\n");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(MachineIo, RejectsMalformedInput) {
  EXPECT_THROW((void)machine_from_string(""), Error);
  EXPECT_THROW((void)machine_from_string("nonsense header"), Error);
  EXPECT_THROW((void)machine_from_string("machine m nodes 1\nbogus x\n"),
               Error);
  // Structurally valid text that fails machine validation (no channels).
  EXPECT_THROW((void)machine_from_string(
                   "machine m nodes 1\n"
                   "proc CPU count 4 speed 1 launch_overhead 0\n"
                   "mem System count 1 capacity 1024\n"),
               Error);
}

TEST(MachineIo, CommentsAndBlankLinesAreIgnored)
{
  const std::string text =
      "# a machine\n\nmachine m nodes 1\n"
      "proc CPU count 4 speed 1 launch_overhead 0  # cores\n"
      "mem System count 1 capacity 1024\n"
      "affinity CPU System bandwidth 1e9 latency 0\n"
      "channel System System intra bandwidth 1e9 latency 0\n";
  const MachineModel m = machine_from_string(text);
  EXPECT_EQ(m.procs_per_node(ProcKind::kCpu), 4);
}

/// `text` with the first `from` replaced by `to`.
std::string with(std::string text, const std::string& from,
                 const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// The Error message parsing `text` as a machine raises; empty when it
/// parses.
std::string machine_error(const std::string& text) {
  try {
    (void)machine_from_string(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(MachineIo, NarrowingAndNonFiniteFieldsNameTheLineAndField) {
  const std::string text = machine_to_string(make_shepard(2));
  ASSERT_EQ(machine_error(text), "");
  // Each of these used to be narrowed or accepted: 4294967298 nodes became
  // 2, 4294967344 CPUs became 48, inf speed was searched, and 4000000000
  // nodes was refused as "needs at least one node".
  EXPECT_EQ(machine_error(with(text, "nodes 2", "nodes 4294967298")),
            "line 1: nodes: expected an integer in [1, 2147483647], got "
            "'4294967298'");
  EXPECT_EQ(machine_error(with(text, "nodes 2", "nodes 4000000000")),
            "line 1: nodes: expected an integer in [1, 2147483647], got "
            "'4000000000'");
  EXPECT_EQ(machine_error(with(text, "count 48", "count 4294967344")),
            "line 4: count: expected an integer in [1, 2147483647], got "
            "'4294967344'");
  EXPECT_EQ(machine_error(with(text, "count 48 speed 1", "count 48 speed inf")),
            "line 4: speed: expected a finite number, got 'inf'");
  EXPECT_EQ(machine_error(with(text, "speed 1", "speed 1x")),
            "line 4: speed: expected a finite number, got '1x'");
  EXPECT_EQ(machine_error(with(text, "capacity 68719476736", "capacity -1")),
            "line 6: capacity: expected an integer in [1, "
            "18446744073709551615], got '-1'");
}

TEST(TaskGraphIo, RoundTripPreservesStructure) {
  const TaskGraph original = make_pennant(pennant_config_for(2, 1)).graph;
  const TaskGraph parsed =
      task_graph_from_string(task_graph_to_string(original));

  ASSERT_EQ(parsed.num_tasks(), original.num_tasks());
  ASSERT_EQ(parsed.num_collections(), original.num_collections());
  ASSERT_EQ(parsed.num_edges(), original.num_edges());
  EXPECT_EQ(parsed.num_collection_args(), original.num_collection_args());

  for (std::size_t i = 0; i < original.num_tasks(); ++i) {
    const GroupTask& a = original.task(TaskId(i));
    const GroupTask& b = parsed.task(TaskId(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_points, b.num_points);
    EXPECT_EQ(a.cost.cpu_seconds_per_point, b.cost.cpu_seconds_per_point);
    EXPECT_EQ(a.cost.gpu_seconds_per_point, b.cost.gpu_seconds_per_point);
    ASSERT_EQ(a.args.size(), b.args.size());
    for (std::size_t j = 0; j < a.args.size(); ++j) {
      EXPECT_EQ(a.args[j].collection, b.args[j].collection);
      EXPECT_EQ(a.args[j].privilege, b.args[j].privilege);
      EXPECT_EQ(a.args[j].access_fraction, b.args[j].access_fraction);
    }
  }
  for (std::size_t i = 0; i < original.num_collections(); ++i) {
    EXPECT_EQ(original.collection_bytes(CollectionId(i)),
              parsed.collection_bytes(CollectionId(i)));
  }
  for (std::size_t i = 0; i < original.num_edges(); ++i) {
    const DependenceEdge& a = original.edges()[i];
    const DependenceEdge& b = parsed.edges()[i];
    EXPECT_EQ(a.producer, b.producer);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.cross_iteration, b.cross_iteration);
    EXPECT_EQ(a.carries_data, b.carries_data);
    EXPECT_EQ(a.internode_fraction, b.internode_fraction);
  }
  // The overlap structure — what CCD consumes — survives the round trip.
  EXPECT_EQ(parsed.build_overlap_graph().size(),
            original.build_overlap_graph().size());
}

TEST(TaskGraphIo, RejectsMalformedInput) {
  EXPECT_THROW((void)task_graph_from_string(""), Error);
  EXPECT_THROW((void)task_graph_from_string("region before header"), Error);
  EXPECT_THROW(
      (void)task_graph_from_string("taskgraph x\narg 0 RO 1.0\n"), Error);
  EXPECT_THROW(
      (void)task_graph_from_string("taskgraph x\nunknown directive\n"),
      Error);
}

TEST(TaskGraphIo, HeaderCountsMustMatchTheRecords) {
  const std::string text =
      task_graph_to_string(make_pennant(pennant_config_for(1, 0)).graph);
  const std::size_t edges_at = text.find(" edges ") + 7;
  const std::string edges =
      text.substr(edges_at, text.find('\n') - edges_at);
  // The ROADMAP reproducer: this header used to become 43 edges silently.
  const std::string wrong = with(text, " edges " + edges, " edges 4294967339");
  try {
    (void)task_graph_from_string(wrong);
    FAIL() << "a header count past the records was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "line 1: edges: header promises 4294967339, the file has " +
                  edges);
  }
}

TEST(FileIo, SaveLoadRoundTrip) {
  const std::string machine_path = "/tmp/automap_io_test.machine";
  const std::string graph_path = "/tmp/automap_io_test.graph";
  save_machine(machine_path, make_shepard(2));
  save_task_graph(graph_path, make_circuit(circuit_config_for(1, 1)).graph);
  EXPECT_EQ(load_machine(machine_path).num_nodes(), 2);
  EXPECT_EQ(load_task_graph(graph_path).num_tasks(), 3u);
  std::remove(machine_path.c_str());
  std::remove(graph_path.c_str());
}

TEST(FileIo, MissingFilesThrow) {
  EXPECT_THROW((void)load_machine("/nonexistent/path.machine"), Error);
  EXPECT_THROW(save_text("/nonexistent/dir/file.txt", "x"), Error);
}

}  // namespace
}  // namespace automap
