#include "src/mapping/mapping.hpp"

#include <sstream>

#include "src/support/error.hpp"
#include "src/support/line_reader.hpp"
#include "src/support/rng.hpp"

namespace automap {

Mapping::Mapping(const TaskGraph& graph) : tasks_(graph.num_tasks()) {
  const MemPriority frame_buffer{MemKind::kFrameBuffer};
  for (const auto& t : graph.tasks())
    tasks_[t.id.index()].arg_memories.assign(t.args.size(), frame_buffer);
}

MemKind Mapping::primary_memory(TaskId id, std::size_t arg) const {
  const TaskMapping& tm = at(id);
  AM_REQUIRE(arg < tm.arg_memories.size(), "argument index out of range");
  AM_REQUIRE(!tm.arg_memories[arg].empty(), "empty memory priority list");
  return tm.arg_memories[arg].front();
}

void Mapping::set_primary_memory(TaskId id, std::size_t arg, MemKind kind) {
  TaskMapping& tm = at(id);
  AM_REQUIRE(arg < tm.arg_memories.size(), "argument index out of range");
  tm.arg_memories[arg].set_front(kind);
}

std::vector<std::string> Mapping::violations(
    const TaskGraph& graph, const MachineModel& machine) const {
  std::vector<std::string> out;
  AM_REQUIRE(tasks_.size() == graph.num_tasks(),
             "mapping shape does not match graph");
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& tm = tasks_[i];
    if (tm.arg_memories.size() != task.args.size()) {
      out.push_back("task " + task.name + ": argument count mismatch");
      continue;
    }
    if (!machine.has_proc_kind(tm.proc)) {
      out.push_back("task " + task.name + ": machine lacks " +
                    std::string(to_string(tm.proc)));
      continue;
    }
    if (tm.proc == ProcKind::kGpu && !task.cost.has_gpu_variant()) {
      out.push_back("task " + task.name + ": no GPU variant");
    }
    for (std::size_t a = 0; a < tm.arg_memories.size(); ++a) {
      if (tm.arg_memories[a].empty()) {
        out.push_back("task " + task.name + " arg " + std::to_string(a) +
                      ": empty memory priority list");
        continue;
      }
      for (const MemKind m : tm.arg_memories[a]) {
        if (!machine.addressable(tm.proc, m)) {
          out.push_back("task " + task.name + " arg " + std::to_string(a) +
                        ": " + std::string(to_string(m)) +
                        " not addressable from " +
                        std::string(to_string(tm.proc)));
        }
      }
    }
  }
  return out;
}

bool Mapping::valid(const TaskGraph& graph, const MachineModel& machine) const {
  // Same predicate as violations().empty(), without building the
  // human-readable strings: the search layer validates every proposed
  // candidate, most of which are invalid mutations.
  if (tasks_.size() != graph.num_tasks()) return false;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& tm = tasks_[i];
    if (tm.arg_memories.size() != task.args.size()) return false;
    if (!machine.has_proc_kind(tm.proc)) return false;
    if (tm.proc == ProcKind::kGpu && !task.cost.has_gpu_variant())
      return false;
    for (const auto& mems : tm.arg_memories) {
      if (mems.empty()) return false;
      for (const MemKind m : mems)
        if (!machine.addressable(tm.proc, m)) return false;
    }
  }
  return true;
}

std::uint64_t Mapping::hash() const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto absorb = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  for (const auto& tm : tasks_) {
    absorb(tm.distribute ? 1 : 2);
    absorb((tm.distribute && tm.blocked) ? 3 : 4);
    absorb(static_cast<std::uint64_t>(index_of(tm.proc)) + 10);
    for (const auto& mems : tm.arg_memories) {
      absorb(0xabcdULL);
      for (const MemKind m : mems)
        absorb(static_cast<std::uint64_t>(index_of(m)) + 100);
    }
  }
  return h;
}

std::string Mapping::serialize() const {
  std::string out;
  out.reserve(serialized_size_bound());
  serialize_to(out);
  return out;
}

std::size_t Mapping::serialized_size_bound() const {
  // A task line without its lists, "task <index> blocked CPU\n", is at most
  // 38 bytes; each memory kind in a list adds at most 12, a separator and
  // "FrameBuffer".
  std::size_t bound = 0;
  for (const TaskMapping& tm : tasks_) {
    bound += 38;
    for (const MemPriority& priority : tm.arg_memories)
      bound += 12 * priority.size();
  }
  return bound;
}

void Mapping::serialize_to(std::string& out) const {
  // Plain string appends: the profiles-database export serializes every
  // measured mapping, which can be tens of thousands per search.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskMapping& tm = tasks_[i];
    out += "task ";
    out += std::to_string(i);
    out += ' ';
    out += tm.distribute ? (tm.blocked ? "blocked" : "dist") : "leader";
    out += ' ';
    out += to_string(tm.proc);
    for (const auto& mems : tm.arg_memories) {
      out += ' ';
      for (std::size_t m = 0; m < mems.size(); ++m) {
        if (m > 0) out += ',';
        out += to_string(mems[m]);
      }
    }
    out += '\n';
  }
}

Mapping Mapping::parse(const std::string& text, const TaskGraph& graph) {
  LineReader reader(text);
  return reader.at_line([&] {
    Mapping mapping = read(reader, graph);
    if (reader.next()) throw Error("text continues after the last task line");
    return mapping;
  });
}

Mapping Mapping::read(LineReader& reader, const TaskGraph& graph) {
  Mapping mapping(graph);
  const std::size_t n = graph.num_tasks();
  std::vector<bool> seen(n, false);
  for (std::size_t line = 0; line < n; ++line) {
    // expect_line's check, inlined: this runs once per task line of every
    // profiles entry, and re-splitting the usage text there shows up in
    // profiles imports.
    reader.next();
    if (reader.size() < 4 || reader[0] != "task")
      throw Error("expected: task <index> <dist|leader|blocked> <proc> ...");
    const std::size_t index =
        to_int(reader[1], std::size_t{0}, n - 1, "task index");
    if (seen[index])
      throw Error("task " + std::to_string(index) + " appears more than once");
    seen[index] = true;
    TaskMapping& tm = mapping.tasks_[index];
    const std::string_view dist = reader[2];
    if (dist != "dist" && dist != "leader" && dist != "blocked")
      throw Error("unknown distribution '" + std::string(dist) + "'");
    tm.distribute = dist != "leader";
    tm.blocked = dist == "blocked";
    tm.proc = parse_proc_kind(reader[3]);
    if (reader.size() != 4 + tm.arg_memories.size())
      throw Error("task " + std::to_string(index) + " needs " +
                  std::to_string(tm.arg_memories.size()) + " memory entries");
    for (std::size_t a = 0; a < tm.arg_memories.size(); ++a) {
      // A comma-separated priority list; every entry must name a kind, and
      // no kind twice (so a list holds at most kNumMemKinds entries).
      const std::string_view list = reader[4 + a];
      MemPriority& priority = tm.arg_memories[a];
      priority.clear();
      for (std::size_t start = 0; start <= list.size();) {
        const std::size_t comma = std::min(list.find(',', start), list.size());
        const MemKind kind = parse_mem_kind(list.substr(start, comma - start));
        if (priority.contains(kind))
          throw Error("memory priority list '" + std::string(list) +
                      "' names " + std::string(to_string(kind)) + " twice");
        priority.push_back(kind);
        start = comma + 1;
      }
    }
  }
  return mapping;
}

std::string Mapping::describe(const TaskGraph& graph) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& tm = tasks_[i];
    os << task.name << ": " << (tm.distribute ? "distributed" : "leader-only")
       << " on " << to_string(tm.proc) << "\n";
    for (std::size_t a = 0; a < tm.arg_memories.size(); ++a) {
      os << "  " << graph.collection(task.args[a].collection).name << " -> ";
      for (std::size_t m = 0; m < tm.arg_memories[a].size(); ++m) {
        if (m > 0) os << " | ";
        os << to_string(tm.arg_memories[a][m]);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::vector<std::string> Mapping::diff(const Mapping& other,
                                       const TaskGraph& graph) const {
  AM_REQUIRE(tasks_.size() == other.tasks_.size(),
             "diff requires equal-shaped mappings");
  std::vector<std::string> out;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& a = tasks_[i];
    const TaskMapping& b = other.tasks_[i];
    if (a.distribute != b.distribute) {
      out.push_back(task.name + ": distribution " +
                    (a.distribute ? "dist" : "leader") + " -> " +
                    (b.distribute ? "dist" : "leader"));
    }
    if (a.proc != b.proc) {
      out.push_back(task.name + ": proc " + std::string(to_string(a.proc)) +
                    " -> " + std::string(to_string(b.proc)));
    }
    const std::size_t args =
        std::min(a.arg_memories.size(), b.arg_memories.size());
    for (std::size_t arg = 0; arg < args; ++arg) {
      if (a.arg_memories[arg] != b.arg_memories[arg]) {
        out.push_back(task.name + "/" +
                      graph.collection(task.args[arg].collection).name +
                      ": memory changed");
      }
    }
  }
  return out;
}

}  // namespace automap
