#pragma once

// Mapping representation (paper §2, §3.1, §3.2).
//
// After AutoMap's factorization, a mapping assigns to every group task t a
// distribution flag d and a processor kind k_p, and to every collection
// argument c of t a memory kind k_m:  f(t, c) = (d, k_p, k_m).  Following
// the §3.1 generalization, each argument actually carries a *priority list*
// of memory kinds; the first kind whose concrete memory can hold the data is
// used, which is how the memory-constrained experiments avoid hard failures.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/support/error.hpp"
#include "src/support/id.hpp"
#include "src/support/small_vector.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

class LineReader;

/// Memory priority list for one collection argument: distinct kinds, most
/// preferred first. Usually size one; the memory-constrained mode appends
/// fallbacks. A kind appears at most once, so the list is stored inline in
/// kNumMemKinds slots. With the per-task argument lists also inline, copying
/// a mapping — which the search does for thousands of candidates — costs
/// one allocation.
class MemPriority {
 public:
  MemPriority() = default;
  MemPriority(std::initializer_list<MemKind> kinds) {
    for (const MemKind k : kinds) push_back(k);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] MemKind operator[](std::size_t i) const { return kinds_[i]; }
  [[nodiscard]] MemKind front() const { return kinds_[0]; }
  [[nodiscard]] const MemKind* begin() const { return kinds_.data(); }
  [[nodiscard]] const MemKind* end() const { return kinds_.data() + size_; }
  [[nodiscard]] bool contains(MemKind k) const {
    return std::find(begin(), end(), k) != end();
  }

  void push_back(MemKind k) {
    AM_REQUIRE(size_ < kinds_.size() && !contains(k),
               "memory priority list is full or repeats a kind");
    kinds_[size_++] = k;
  }
  /// Replaces the list with `n` copies of `k`; n is 0 or 1, as the kinds
  /// must stay distinct.
  void assign(std::size_t n, MemKind k) {
    clear();
    for (std::size_t i = 0; i < n; ++i) push_back(k);
  }
  void clear() { size_ = 0; }
  /// Makes `k` the first choice: replaces the current first kind (or
  /// starts an empty list) and drops a later occurrence of `k`.
  void set_front(MemKind k) {
    if (empty()) return push_back(k);
    size_ = static_cast<std::uint8_t>(
        std::remove(kinds_.begin() + 1, kinds_.begin() + size_, k) -
        kinds_.begin());
    kinds_[0] = k;
  }

  friend bool operator==(const MemPriority& a, const MemPriority& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<MemKind, kNumMemKinds> kinds_{};
  std::uint8_t size_ = 0;
};

/// Kind-level mapping of one group task and all of its collection arguments.
struct TaskMapping {
  /// True: points are distributed across all nodes; false: the whole group
  /// runs on the initial leader node (§3.1).
  bool distribute = true;
  /// Point-to-node placement when distributed. AutoMap's runtime logic uses
  /// round-robin (false) and never searches this dimension; hand-written
  /// mappers may use a blocked decomposition (true), which keeps neighbor
  /// exchanges local — the advantage the paper credits Circuit's custom
  /// mapper with (§5 "Results"). Meaningless (and normalized away by
  /// serialization and hashing) when `distribute` is false.
  bool blocked = false;
  ProcKind proc = ProcKind::kGpu;
  /// One priority list per collection argument, aligned with GroupTask::args.
  /// Stored inline up to seven arguments, the widest task of the five
  /// applications (stencil's), so copying a mapping allocates once.
  SmallVector<MemPriority, 7> arg_memories;

  bool operator==(const TaskMapping&) const = default;
};

/// A complete mapping for a task graph.
class Mapping {
 public:
  Mapping() = default;
  /// Creates a mapping shaped after the graph: every task gets a default
  /// TaskMapping with one empty-initialized slot per collection argument
  /// (proc = GPU, memory = FrameBuffer, distributed).
  explicit Mapping(const TaskGraph& graph);

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  // Defined inline: the simulator event loop reads task mappings millions
  // of times per search.
  [[nodiscard]] TaskMapping& at(TaskId id) {
    AM_REQUIRE(id.index() < tasks_.size(), "task id out of range");
    return tasks_[id.index()];
  }
  [[nodiscard]] const TaskMapping& at(TaskId id) const {
    AM_REQUIRE(id.index() < tasks_.size(), "task id out of range");
    return tasks_[id.index()];
  }

  /// Primary (first-priority) memory kind of argument `arg` of task `id`.
  [[nodiscard]] MemKind primary_memory(TaskId id, std::size_t arg) const;
  void set_primary_memory(TaskId id, std::size_t arg, MemKind kind);

  /// Constraint 1 (§4.2): every argument's primary memory kind must be
  /// addressable by the task's processor kind, and the task must have a
  /// variant for that processor kind. Returns human-readable violations;
  /// empty means valid.
  [[nodiscard]] std::vector<std::string> violations(
      const TaskGraph& graph, const MachineModel& machine) const;
  [[nodiscard]] bool valid(const TaskGraph& graph,
                           const MachineModel& machine) const;

  /// Structural hash for the profiles database (collision-checked by
  /// equality there). Only kind-level decisions participate.
  [[nodiscard]] std::uint64_t hash() const;

  bool operator==(const Mapping&) const = default;

  /// Serializes to a line-oriented text form:
  ///   task <index> <dist|leader> <CPU|GPU> <mem[,mem...]> ...
  [[nodiscard]] std::string serialize() const;
  /// Parses the output of serialize(), each task index exactly once. Throws
  /// Error naming the line on malformed input or when the shape does not
  /// match `graph`.
  [[nodiscard]] static Mapping parse(const std::string& text,
                                     const TaskGraph& graph);
  /// Reads one mapping from the next graph.num_tasks() lines of `reader`,
  /// for the formats that embed mappings; the caller's at_line adds the
  /// line to errors.
  [[nodiscard]] static Mapping read(LineReader& reader,
                                    const TaskGraph& graph);

  /// Human-readable mapping dump with task/collection names.
  [[nodiscard]] std::string describe(const TaskGraph& graph) const;

  /// Lists the decisions on which two equal-shaped mappings differ.
  [[nodiscard]] std::vector<std::string> diff(const Mapping& other,
                                              const TaskGraph& graph) const;

 private:
  std::vector<TaskMapping> tasks_;
};

}  // namespace automap
