// Pinned Mapping::hash() values. The structural hash keys the profiles
// database and seeds every simulated run of a candidate, so a change to how
// a mapping is stored must leave it bit-identical. The values below were
// recorded once, for the §4.1 starting mapping and one mixed mapping of
// each of the five applications, and must never change. The same mappings
// also round-trip through copy, equality, serialize and parse.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/apps/registry.hpp"
#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"

namespace automap {
namespace {

/// A mapping exercising every decision the hash absorbs: all tasks on CPU,
/// distribution cycling through leader/dist/blocked, arguments alternating
/// between System and ZeroCopy, and every third argument carrying a
/// two-entry priority list.
Mapping mixed_mapping(const TaskGraph& graph) {
  Mapping m(graph);
  for (const GroupTask& task : graph.tasks()) {
    TaskMapping& tm = m.at(task.id);
    const std::size_t i = task.id.index();
    tm.proc = ProcKind::kCpu;
    tm.distribute = i % 3 != 0;
    tm.blocked = i % 3 == 2;
    for (std::size_t a = 0; a < tm.arg_memories.size(); ++a) {
      const MemKind first =
          (i + a) % 2 == 0 ? MemKind::kSystem : MemKind::kZeroCopy;
      const MemKind second =
          first == MemKind::kSystem ? MemKind::kZeroCopy : MemKind::kSystem;
      if ((i + a) % 3 == 0) {
        tm.arg_memories[a] = {first, second};
      } else {
        tm.arg_memories[a] = {first};
      }
    }
  }
  return m;
}

struct Pinned {
  const char* app;
  std::uint64_t start;  // search_starting_point on shepard(2)
  std::uint64_t mixed;  // mixed_mapping
};

constexpr Pinned kPinned[] = {
    {"circuit", 0x53e0aa3f2c1a5064ULL, 0xf97befffcd03164dULL},
    {"stencil", 0x5e1b168d5c0e8e25ULL, 0x57e07fcdacc3a78aULL},
    {"pennant", 0x8d2c182d5506a28aULL, 0x66d228e668096e73ULL},
    {"htr", 0xd5e3fa676570e5d4ULL, 0xea7b1d800154744cULL},
    {"maestro", 0x2e4fdecbc3a64007ULL, 0x73c20941e673a6c1ULL},
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(MappingHash, PinnedForEveryApp) {
  const MachineModel machine = make_shepard(2);
  for (const Pinned& p : kPinned) {
    const BenchmarkApp app = make_app_by_name(p.app, 2, 0);
    const Mapping start = search_starting_point(app.graph, machine);
    const Mapping mixed = mixed_mapping(app.graph);
    EXPECT_EQ(hex(start.hash()), hex(p.start)) << p.app << " start";
    EXPECT_EQ(hex(mixed.hash()), hex(p.mixed)) << p.app << " mixed";
  }
}

TEST(MappingHash, CopyEqualityAndTextRoundTrip) {
  const MachineModel machine = make_shepard(2);
  for (const Pinned& p : kPinned) {
    const BenchmarkApp app = make_app_by_name(p.app, 2, 0);
    for (const Mapping& m : {search_starting_point(app.graph, machine),
                             mixed_mapping(app.graph)}) {
      Mapping copy = m;
      EXPECT_EQ(copy, m) << p.app;
      EXPECT_EQ(copy.hash(), m.hash()) << p.app;
      const Mapping parsed = Mapping::parse(m.serialize(), app.graph);
      EXPECT_EQ(parsed, m) << p.app;
      EXPECT_EQ(parsed.hash(), m.hash()) << p.app;
      EXPECT_EQ(parsed.serialize(), m.serialize()) << p.app;
      // A copy is independent of its source.
      copy.at(TaskId(0)).arg_memories[0] = {
          MemKind::kZeroCopy, MemKind::kFrameBuffer, MemKind::kSystem};
      EXPECT_NE(copy, m) << p.app;
      EXPECT_NE(copy.hash(), m.hash()) << p.app;
      EXPECT_EQ(Mapping::parse(m.serialize(), app.graph), m) << p.app;
    }
  }
}

}  // namespace
}  // namespace automap
