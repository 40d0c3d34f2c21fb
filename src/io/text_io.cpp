#include "src/io/text_io.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/line_reader.hpp"

namespace automap {

namespace {

/// Rect coordinates stay within +-2^61 so `hi - lo + 1` cannot overflow.
constexpr std::int64_t kMaxCoord = std::int64_t{1} << 61;
constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

Privilege parse_privilege(std::string_view s) {
  for (const Privilege p : {Privilege::kReadOnly, Privilege::kWriteOnly,
                            Privilege::kReadWrite, Privilege::kReduce})
    if (s == to_string(p)) return p;
  throw Error("unknown privilege '" + std::string(s) + "'");
}

void write_rect(std::ostream& os, const Rect& r) {
  os << r.dims;
  for (int d = 0; d < r.dims; ++d) os << " " << r.lo[d] << " " << r.hi[d];
}

/// Reads `dims lo0 hi0 ...` from token `cursor` to the end of the line.
Rect read_rect(const LineReader& reader, std::size_t cursor) {
  Rect r;
  r.dims = to_int(reader[cursor++], 1, Rect::kMaxDims, "rect dims");
  if (reader.size() != cursor + 2 * static_cast<std::size_t>(r.dims))
    throw Error("rect needs one lo/hi pair per dimension");
  for (int d = 0; d < r.dims; ++d) {
    r.lo[d] = to_int(reader[cursor++], -kMaxCoord, kMaxCoord, "rect lo");
    r.hi[d] = to_int(reader[cursor++], -kMaxCoord, kMaxCoord, "rect hi");
  }
  return r;
}

}  // namespace

// --- machine --------------------------------------------------------------

namespace {
/// Round-trip-exact double formatting; restores stream precision on exit.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(std::ostream& os)
      : os_(os), saved_(os.precision(17)) {}
  ~PrecisionGuard() { os_.precision(saved_); }
  PrecisionGuard(const PrecisionGuard&) = delete;
  PrecisionGuard& operator=(const PrecisionGuard&) = delete;

 private:
  std::ostream& os_;
  std::streamsize saved_;
};
}  // namespace

void write_machine(std::ostream& os, const MachineModel& machine) {
  const PrecisionGuard guard(os);
  os << "machine " << machine.name() << " nodes " << machine.num_nodes()
     << "\n";
  os << "runtime_overhead " << machine.runtime_overhead() << "\n";
  if (machine.restart_overhead() > 0.0)
    os << "restart_overhead " << machine.restart_overhead() << "\n";
  for (const ProcKind k : machine.proc_kinds()) {
    const ProcGroup& g = machine.proc_group(k);
    os << "proc " << to_string(k) << " count " << g.count_per_node
       << " speed " << g.speed << " launch_overhead " << g.launch_overhead_s
       << " watts " << g.watts_busy << "\n";
  }
  for (const MemKind k : machine.mem_kinds()) {
    const MemGroup& g = machine.mem_group(k);
    os << "mem " << to_string(k) << " count " << g.count_per_node
       << " capacity " << g.capacity_bytes << "\n";
  }
  for (const ProcKind p : machine.proc_kinds()) {
    for (const MemKind m : machine.mem_kinds()) {
      if (!machine.addressable(p, m)) continue;
      const Affinity a = machine.affinity(p, m);
      os << "affinity " << to_string(p) << " " << to_string(m)
         << " bandwidth " << a.bandwidth_bytes_per_s << " latency "
         << a.latency_s << "\n";
    }
  }
  const auto mems = machine.mem_kinds();
  for (std::size_t i = 0; i < mems.size(); ++i) {
    for (std::size_t j = i; j < mems.size(); ++j) {
      for (const bool inter : {false, true}) {
        if (machine.num_nodes() == 1 && inter) continue;
        const Channel c = machine.channel(mems[i], mems[j], inter);
        os << "channel " << to_string(mems[i]) << " " << to_string(mems[j])
           << " " << (inter ? "inter" : "intra") << " bandwidth "
           << c.bandwidth_bytes_per_s << " latency " << c.latency_s << "\n";
      }
    }
  }
  if (machine.mems_per_node(MemKind::kSystem) > 1) {
    const Channel c = machine.cross_socket_channel();
    os << "cross_socket bandwidth " << c.bandwidth_bytes_per_s << " latency "
       << c.latency_s << "\n";
  }
}

MachineModel machine_from_string(const std::string& text) {
  LineReader reader(text);
  MachineModel machine = reader.at_line([&reader] {
    reader.next_line("machine <name> nodes <count>");
    MachineModel m(std::string(reader[1]),
                   to_int(reader[3], 1, kMaxInt, "nodes"));
    const auto link = [&reader](std::size_t bandwidth) -> Channel {
      return {to_double(reader[bandwidth], "bandwidth"),
              to_double(reader[bandwidth + 2], "latency")};
    };
    while (reader.next()) {
      const std::string_view tag = reader[0];
      if (tag == "runtime_overhead") {
        reader.expect_line("runtime_overhead <seconds>");
        m.set_runtime_overhead(to_double(reader[1], "runtime_overhead"));
      } else if (tag == "restart_overhead") {
        // Optional (absent in machine files written before the fault layer).
        reader.expect_line("restart_overhead <seconds>");
        m.set_restart_overhead(to_double(reader[1], "restart_overhead"));
      } else if (tag == "proc") {
        const bool watts = reader.size() > 8;
        reader.expect_line(watts ? "proc <kind> count <n> speed <s> "
                                   "launch_overhead <s> watts <w>"
                                 : "proc <kind> count <n> speed <s> "
                                   "launch_overhead <s>");
        m.add_proc_group(
            {.kind = parse_proc_kind(reader[1]),
             .count_per_node = to_int(reader[3], 1, kMaxInt, "count"),
             .speed = to_double(reader[5], "speed"),
             .launch_overhead_s = to_double(reader[7], "launch_overhead"),
             .watts_busy = watts ? to_double(reader[9], "watts") : 0.0});
      } else if (tag == "mem") {
        reader.expect_line("mem <kind> count <n> capacity <bytes>");
        m.add_mem_group(
            {.kind = parse_mem_kind(reader[1]),
             .count_per_node = to_int(reader[3], 1, kMaxInt, "count"),
             .capacity_bytes =
                 to_int(reader[5], std::uint64_t{1}, kMaxU64, "capacity")});
      } else if (tag == "affinity") {
        reader.expect_line("affinity <proc> <mem> bandwidth <b> latency <l>");
        const Channel c = link(4);
        m.set_affinity(parse_proc_kind(reader[1]), parse_mem_kind(reader[2]),
                       {c.bandwidth_bytes_per_s, c.latency_s});
      } else if (tag == "channel") {
        reader.expect_line(
            "channel <mem> <mem> <intra|inter> bandwidth <b> latency <l>");
        if (reader[3] != "intra" && reader[3] != "inter")
          throw Error("channel scope must be intra or inter");
        m.set_channel(parse_mem_kind(reader[1]), parse_mem_kind(reader[2]),
                      reader[3] == "inter", link(5));
      } else if (tag == "cross_socket") {
        reader.expect_line("cross_socket bandwidth <b> latency <l>");
        m.set_cross_socket_channel(link(2));
      } else {
        throw Error("unknown machine directive: " + std::string(tag));
      }
    }
    return m;
  });
  machine.validate();
  return machine;
}

// --- task graph -------------------------------------------------------------

void write_task_graph(std::ostream& os, const TaskGraph& graph) {
  const PrecisionGuard guard(os);
  os << "taskgraph regions " << graph.num_regions() << " collections "
     << graph.num_collections() << " tasks " << graph.num_tasks()
     << " edges " << graph.num_edges() << "\n";
  for (const Region& r : graph.regions()) {
    os << "region " << r.name << " elem_bytes " << r.bytes_per_element
       << " bounds ";
    write_rect(os, r.bounds);
    os << "\n";
  }
  for (const Collection& c : graph.collections()) {
    os << "collection " << c.name << " region " << c.region.value()
       << " rect ";
    write_rect(os, c.rect);
    os << "\n";
  }
  for (const GroupTask& task : graph.tasks()) {
    os << "task " << task.name << " points " << task.num_points << " cpu "
       << task.cost.cpu_seconds_per_point << " gpu "
       << task.cost.gpu_seconds_per_point << "\n";
    for (const CollectionUse& use : task.args) {
      os << "  arg " << use.collection.value() << " "
         << to_string(use.privilege) << " " << use.access_fraction
         << "\n";
    }
  }
  for (const DependenceEdge& e : graph.edges()) {
    os << "edge " << e.producer.value() << " " << e.consumer.value() << " "
       << e.producer_collection.value() << " " << e.consumer_collection.value()
       << " bytes " << e.bytes << " cross " << (e.cross_iteration ? 1 : 0)
       << " fraction " << e.internode_fraction << " data "
       << (e.carries_data ? 1 : 0) << "\n";
  }
}

TaskGraph task_graph_from_string(const std::string& text) {
  LineReader reader(text);
  constexpr const char* kKinds[] = {"regions", "collections", "tasks",
                                    "edges"};
  std::size_t promised[4] = {};
  int header_line = 0;
  TaskGraph graph = reader.at_line([&] {
    reader.next_line(
        "taskgraph regions <n> collections <n> tasks <n> edges <n>");
    header_line = reader.line_number();
    for (std::size_t i = 0; i < 4; ++i)
      promised[i] = to_int<std::size_t>(reader[2 + 2 * i], kKinds[i]);
    // An index into the `count` items of one kind declared so far.
    const auto index = [](std::string_view token, std::size_t count,
                          std::string_view field) {
      if (count == 0) throw Error(std::string(field) + ": none declared yet");
      return to_int(token, std::size_t{0}, count - 1, field);
    };
    TaskGraph g;
    std::optional<TaskId> current_task;
    while (reader.next()) {
      const std::string_view tag = reader[0];
      if (tag == "region") {
        reader.expect_line("region <name> elem_bytes <n> bounds <dims>",
                           /*more=*/true);
        const std::uint64_t elem_bytes =
            to_int(reader[3], std::uint64_t{1}, kMaxU64, "elem_bytes");
        g.add_region(std::string(reader[1]), read_rect(reader, 5),
                     elem_bytes);
      } else if (tag == "collection") {
        reader.expect_line("collection <name> region <id> rect <dims>",
                           /*more=*/true);
        const RegionId region(index(reader[3], g.num_regions(), "region"));
        g.add_collection(region, std::string(reader[1]),
                         read_rect(reader, 5));
      } else if (tag == "task") {
        reader.expect_line("task <name> points <n> cpu <s> gpu <s>");
        current_task = g.add_task(
            std::string(reader[1]), to_int(reader[3], 1, kMaxInt, "points"),
            {.cpu_seconds_per_point = to_double(reader[5], "cpu"),
             .gpu_seconds_per_point = to_double(reader[7], "gpu")},
            {});
      } else if (tag == "arg") {
        if (!current_task) throw Error("arg before any task");
        reader.expect_line("arg <collection> <priv> <fraction>");
        g.append_task_arg(
            *current_task,
            {CollectionId(index(reader[1], g.num_collections(), "collection")),
             parse_privilege(reader[2]), to_double(reader[3], "fraction")});
      } else if (tag == "edge") {
        reader.expect_line(
            "edge <p> <c> <pcol> <ccol> bytes <n> cross <0|1> fraction <f> "
            "data <0|1>");
        const std::size_t tasks = g.num_tasks();
        const std::size_t cols = g.num_collections();
        g.add_dependence(
            {.producer = TaskId(index(reader[1], tasks, "producer")),
             .consumer = TaskId(index(reader[2], tasks, "consumer")),
             .producer_collection =
                 CollectionId(index(reader[3], cols, "pcol")),
             .consumer_collection =
                 CollectionId(index(reader[4], cols, "ccol")),
             .bytes = to_int<std::uint64_t>(reader[6], "bytes"),
             .cross_iteration = to_int(reader[8], 0, 1, "cross") == 1,
             .internode_fraction = to_double(reader[10], "fraction"),
             .carries_data = to_int(reader[12], 0, 1, "data") == 1});
      } else {
        throw Error("unknown task graph directive: " + std::string(tag));
      }
    }
    return g;
  });
  const std::size_t found[] = {graph.num_regions(), graph.num_collections(),
                               graph.num_tasks(), graph.num_edges()};
  for (std::size_t i = 0; i < 4; ++i)
    if (found[i] != promised[i])
      throw Error("line " + std::to_string(header_line) + ": " +
                  std::string(kKinds[i]) + ": header promises " +
                  std::to_string(promised[i]) + ", the file has " +
                  std::to_string(found[i]));
  graph.validate();
  return graph;
}

// --- string/file helpers -----------------------------------------------------

std::string machine_to_string(const MachineModel& machine) {
  std::ostringstream os;
  write_machine(os, machine);
  return os.str();
}

std::string task_graph_to_string(const TaskGraph& graph) {
  std::ostringstream os;
  write_task_graph(os, graph);
  return os.str();
}

void save_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  AM_REQUIRE(os.good(), "cannot open for writing: " + path);
  os << text;
  AM_REQUIRE(os.good(), "write failed: " + path);
}

std::string load_text(const std::string& path) {
  std::ifstream is(path);
  AM_REQUIRE(is.good(), "cannot open for reading: " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void require_writable_path(const std::string& path) {
  AM_REQUIRE(!path.empty(), "output path is empty");
  // Append mode probes writability without truncating an existing file.
  const bool existed = static_cast<bool>(std::ifstream(path));
  {
    std::ofstream os(path, std::ios::app);
    AM_REQUIRE(os.good(), "cannot write output file: " + path +
                              " (missing directory or no permission?)");
  }
  if (!existed) std::remove(path.c_str());
}

void save_machine(const std::string& path, const MachineModel& machine) {
  save_text(path, machine_to_string(machine));
}

MachineModel load_machine(const std::string& path) {
  return machine_from_string(load_text(path));
}

void save_task_graph(const std::string& path, const TaskGraph& graph) {
  save_text(path, task_graph_to_string(graph));
}

TaskGraph load_task_graph(const std::string& path) {
  return task_graph_from_string(load_text(path));
}

}  // namespace automap
