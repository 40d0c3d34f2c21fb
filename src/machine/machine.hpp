#pragma once

// Machine model (paper §2): a graph whose nodes are processors and memories.
//
// Processor–memory edges carry access bandwidth/latency ("affinities" in
// Legion terminology); memory–memory edges carry copy bandwidth/latency
// ("channels"). Because AutoMap's search operates over *kinds* (§3.2), the
// model is expressed per kind and per node, and concrete instances (cores,
// GPUs, per-socket system allocations) are described by per-node counts that
// the execution simulator expands.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/machine/kinds.hpp"
#include "src/support/error.hpp"
#include "src/support/small_vector.hpp"

namespace automap {

/// Processor-to-memory access edge.
///
/// `bandwidth_bytes_per_s` is the aggregate streaming bandwidth of the whole
/// pool of this processor kind on one node into one allocation of the memory
/// kind; cores of a socket share the memory controller, so per-core figures
/// would badly overstate CPU pools. For FrameBuffer the figure is per GPU —
/// the simulator engages as many allocations as the group occupies GPUs.
struct Affinity {
  double bandwidth_bytes_per_s = 0.0;
  double latency_s = 0.0;
};

/// Memory-to-memory copy edge. Inter-node channels already fold in the
/// network bottleneck, so effective inter-node bandwidth is typically far
/// below the intra-node figure.
struct Channel {
  double bandwidth_bytes_per_s = 0.0;
  double latency_s = 0.0;
};

/// One kind of processor on every node of the machine.
struct ProcGroup {
  ProcKind kind = ProcKind::kCpu;
  /// Application-usable instances per node (cores already reserved for the
  /// runtime, as the paper reserves 8 per node for Legion, are excluded).
  int count_per_node = 0;
  /// Relative compute speed: multiplies the per-point work throughput that
  /// application cost profiles declare for a *reference* processor of this
  /// kind. 1.0 means reference speed.
  double speed = 1.0;
  /// Fixed per-task-launch overhead (kernel launch / task startup), seconds.
  /// This is what makes small weak-scaled inputs favour CPU mappings.
  double launch_overhead_s = 0.0;
  /// Busy power draw of one instance (one core / one GPU), watts. Drives
  /// the optional energy objective (§3.3: "AutoMap is suitable for
  /// minimizing other metrics (e.g., power consumption)").
  double watts_busy = 0.0;
};

/// One kind of memory on every node of the machine.
struct MemGroup {
  MemKind kind = MemKind::kSystem;
  /// Independent allocations per node (System: one per socket; FrameBuffer:
  /// one per GPU; ZeroCopy: one shared allocation).
  int count_per_node = 0;
  /// Capacity of each allocation in bytes.
  std::uint64_t capacity_bytes = 0;
};

/// A full machine: N identical nodes, kind-level affinities and channels.
class MachineModel {
 public:
  MachineModel(std::string name, int num_nodes);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int num_nodes() const { return num_nodes_; }

  // --- construction -------------------------------------------------------

  void add_proc_group(const ProcGroup& group);
  void add_mem_group(const MemGroup& group);
  void set_affinity(ProcKind p, MemKind m, Affinity a);
  void set_channel(MemKind src, MemKind dst, bool inter_node, Channel c);
  /// Cross-socket System<->System transfer channel (NUMA); only meaningful
  /// when the System memory group has count_per_node > 1.
  void set_cross_socket_channel(Channel c);
  /// Mapping-independent runtime cost per group-task launch (dependence
  /// analysis, mapper queries, instance binding — paid on the runtime's
  /// reserved cores whichever processor kind executes the task). This floor
  /// is what keeps the paper's small-input speedups moderate.
  void set_runtime_overhead(double seconds);
  /// Simulated cost of restarting a failed application run on this machine
  /// (process respawn, runtime re-initialization, instance re-binding) —
  /// what a fault-tolerant driver pays per retry on top of the work the
  /// fault itself destroyed. Used as the default retry backoff quantum by
  /// the search layer's resilience policy.
  void set_restart_overhead(double seconds);

  /// Verifies internal consistency (every declared proc kind can address at
  /// least one memory kind, channels exist between co-addressable memories,
  /// counts and capacities are positive). Throws Error when malformed.
  void validate() const;

  // --- kind-level queries (used by the search) ----------------------------

  [[nodiscard]] bool has_proc_kind(ProcKind k) const;
  [[nodiscard]] bool has_mem_kind(MemKind k) const;
  /// Kinds in declaration order, held inline (a machine has one group per
  /// kind), so the search's per-task queries allocate nothing.
  [[nodiscard]] SmallVector<ProcKind, kNumProcKinds> proc_kinds() const;
  [[nodiscard]] SmallVector<MemKind, kNumMemKinds> mem_kinds() const;

  /// True when a processor of kind p can directly address memory kind m.
  [[nodiscard]] bool addressable(ProcKind p, MemKind m) const;
  /// Memory kinds addressable by processor kind p, in declaration order.
  [[nodiscard]] SmallVector<MemKind, kNumMemKinds> memories_addressable_by(
      ProcKind p) const;
  /// The addressable memory kind with the highest access bandwidth from p —
  /// the "closest" memory the default mapper heuristic picks.
  [[nodiscard]] MemKind best_memory_for(ProcKind p) const;

  [[nodiscard]] Affinity affinity(ProcKind p, MemKind m) const;
  /// True when a copy channel between the two kinds is configured.
  [[nodiscard]] bool has_channel(MemKind src, MemKind dst,
                                 bool inter_node) const;
  [[nodiscard]] Channel channel(MemKind src, MemKind dst,
                                bool inter_node) const;
  [[nodiscard]] Channel cross_socket_channel() const;
  [[nodiscard]] double runtime_overhead() const { return runtime_overhead_; }
  [[nodiscard]] double restart_overhead() const { return restart_overhead_; }

  // --- instance-level queries (used by the simulator) ---------------------

  [[nodiscard]] const ProcGroup& proc_group(ProcKind k) const;
  [[nodiscard]] const MemGroup& mem_group(MemKind k) const;
  [[nodiscard]] int procs_per_node(ProcKind k) const;
  [[nodiscard]] int mems_per_node(MemKind k) const;
  [[nodiscard]] std::uint64_t mem_capacity(MemKind k) const;

  /// Human-readable multi-line description.
  [[nodiscard]] std::string describe() const;

 private:
  std::string name_;
  int num_nodes_;
  std::vector<ProcGroup> proc_groups_;
  std::vector<MemGroup> mem_groups_;
  std::optional<Affinity> affinities_[kNumProcKinds][kNumMemKinds];
  std::optional<Channel> channels_[kNumMemKinds][kNumMemKinds][2];
  std::optional<Channel> cross_socket_;
  double runtime_overhead_ = 0.0;
  double restart_overhead_ = 0.0;
};

/// Machine presets modeled on the paper's experimental clusters (§5).
///
/// Shepard: 2×28-core Xeon 8276, 196 GB RAM, 1×P100 (16 GB FB) per node;
/// 8 cores reserved for the runtime; 60 GB Zero-Copy reservation.
[[nodiscard]] MachineModel make_shepard(int num_nodes);

/// Lassen: 2×22-core Power9 (20 usable), 256 GB RAM, 4×V100 (16 GB FB each)
/// with NVLink 2.0 per node; 8 cores reserved; 80 GB Zero-Copy reservation
/// (sized above the 64 GB aggregate Frame-Buffer, see DESIGN.md).
[[nodiscard]] MachineModel make_lassen(int num_nodes);

/// A GPU-less dual-socket cluster (for machine-sensitivity studies): the
/// same CPUs and network as Shepard but no accelerators — System and
/// Zero-Copy memory only.
[[nodiscard]] MachineModel make_cpu_cluster(int num_nodes);

}  // namespace automap
