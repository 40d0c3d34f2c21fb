// Seeded mutation test over every line-oriented text format: machine,
// task graph, mapping, profiles database, and a checkpoint resumed through
// SearchOptions::resume_state. Each mutant is either rejected with an
// automap::Error or accepted; nothing else may escape the parsers (no
// std::invalid_argument, std::out_of_range, std::length_error, no crash).
// Every accepted machine, graph, mapping and profiles text must be a fixed
// point of serialize(parse(.)) after one round. Runs under the sanitizer
// build like the rest of the suite, which catches undefined conversions.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/evaluator.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/rng.hpp"

namespace automap {
namespace {

/// Replacement tokens aimed at the number and keyword rules: range edges
/// of every integer type the formats use, non-finite and malformed
/// doubles, signs, other bases, separators and kind names.
constexpr std::array<const char*, 30> kNastyTokens = {
    "0", "1", "-1", "2", "2147483647", "2147483648", "4294967296",
    "4294967298", "9223372036854775808", "18446744073709551616", "-0",
    "1.5", "1e300", "1e-320", "inf", "-inf", "nan", "+3", "0x10", "1e",
    "abc", "#", "task", "entry", "GPU", "FrameBuffer,ZeroCopy", ",", "dist",
    "censored", "RW"};

/// One seeded mutation of `text`: a token replaced, dropped or
/// duplicated; a byte flipped, inserted or deleted; a line dropped,
/// duplicated or swapped; or the text truncated.
std::string mutate(const std::string& text, Rng& rng) {
  if (text.empty()) return "x";
  std::string out = text;
  switch (rng.uniform_index(8)) {
    case 0:
    case 1:
    case 2: {  // token-level: a random token starts at a non-space
      std::size_t at = rng.uniform_index(out.size());
      while (at > 0 && out[at - 1] != ' ' && out[at - 1] != '\n') --at;
      std::size_t end = out.find_first_of(" \n", at);
      if (end == std::string::npos) end = out.size();
      const std::string token = out.substr(at, end - at);
      switch (rng.uniform_index(3)) {
        case 0:
          return out.replace(at, end - at,
                             kNastyTokens[rng.uniform_index(
                                 kNastyTokens.size())]);
        case 1:
          return out.erase(at, end - at);
        default:
          return out.insert(at, token + " ");
      }
    }
    case 3: {  // byte flip
      constexpr std::array<char, 10> kBytes = {'0', '9', '-', '.', 'e',
                                               ' ', '\n', '#', '\0', ','};
      out[rng.uniform_index(out.size())] =
          rng.bernoulli(0.5) ? kBytes[rng.uniform_index(kBytes.size())]
                             : static_cast<char>(rng.uniform_index(256));
      return out;
    }
    case 4:  // byte insert / delete
      if (rng.bernoulli(0.5))
        return out.insert(rng.uniform_index(out.size() + 1), 1,
                          static_cast<char>(rng.uniform_index(256)));
      return out.erase(rng.uniform_index(out.size()), 1);
    case 5:  // truncation
      return out.substr(0, rng.uniform_index(out.size()));
    default: {  // line-level
      std::vector<std::string> lines;
      std::size_t start = 0;
      while (start < out.size()) {
        std::size_t end = out.find('\n', start);
        if (end == std::string::npos) end = out.size();
        lines.push_back(out.substr(start, end - start));
        start = end + 1;
      }
      const std::size_t i = rng.uniform_index(lines.size());
      const std::size_t j = rng.uniform_index(lines.size());
      switch (rng.uniform_index(3)) {
        case 0:
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                       lines[j]);
          break;
        default:
          std::swap(lines[i], lines[j]);
      }
      std::string joined;
      for (const std::string& line : lines) joined += line + "\n";
      return joined;
    }
  }
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Feeds `count` mutants of `seed_text` to `round_trip` (parse, then
/// serialize). With `fixed_point`, every accepted mutant's serialization
/// must survive a second round unchanged.
Tally fuzz(const std::string& seed_text, std::uint64_t seed, int count,
           const std::function<std::string(const std::string&)>& round_trip,
           bool fixed_point = true) {
  Tally tally;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    std::string text = mutate(seed_text, rng);
    if (rng.bernoulli(0.3)) text = mutate(text, rng);
    try {
      const std::string once = round_trip(text);
      ++tally.accepted;
      if (fixed_point) {
        EXPECT_EQ(round_trip(once), once) << "mutant " << i << ":\n" << text;
      }
    } catch (const Error&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << typeid(e).name() << " escaped: " << e.what()
                    << "\nmutant " << i << ":\n"
                    << text;
    }
  }
  return tally;
}

/// Both outcomes must occur, or the mutator is not probing the reader.
void expect_both_outcomes(const Tally& tally) {
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

/// A three-task graph: small enough that a resumed search per accepted
/// checkpoint mutant stays cheap.
TaskGraph tiny_graph() {
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (1 << 16) - 1), 8);
  const CollectionId a = g.add_collection(r, "a", Rect::line(0, 40000));
  const CollectionId b =
      g.add_collection(r, "b", Rect::line(30000, (1 << 16) - 1));
  const TaskId produce = g.add_task(
      "produce", 4,
      {.cpu_seconds_per_point = 2e-3, .gpu_seconds_per_point = 4e-5},
      {{a, Privilege::kWriteOnly, 1.0}, {b, Privilege::kReadOnly, 0.5}});
  const TaskId consume =
      g.add_task("consume", 4,
                 {.cpu_seconds_per_point = 1e-4, .gpu_seconds_per_point = 1e-5},
                 {{a, Privilege::kReadOnly, 1.0}});
  (void)g.add_task("host", 2, {.cpu_seconds_per_point = 5e-5},
                   {{b, Privilege::kReadWrite, 1.0}});
  g.add_dependence({.producer = produce,
                    .consumer = consume,
                    .producer_collection = a,
                    .consumer_collection = a,
                    .bytes = g.overlap_bytes(a, a)});
  return g;
}

TEST(TextMutation, MachineFiles) {
  for (const MachineModel& machine : {make_shepard(2), make_lassen(1)}) {
    const Tally tally =
        fuzz(machine_to_string(machine), 11, 1500, [](const std::string& t) {
          return machine_to_string(machine_from_string(t));
        });
    expect_both_outcomes(tally);
  }
}

TEST(TextMutation, TaskGraphFiles) {
  const TaskGraph graphs[] = {make_app_by_name("stencil", 2, 0).graph,
                              tiny_graph()};
  for (const TaskGraph& graph : graphs) {
    const Tally tally =
        fuzz(task_graph_to_string(graph), 12, 1500, [](const std::string& t) {
          return task_graph_to_string(task_graph_from_string(t));
        });
    expect_both_outcomes(tally);
  }
}

TEST(TextMutation, Mappings) {
  const TaskGraph graph = make_app_by_name("stencil", 2, 0).graph;
  Mapping mapping(graph);
  mapping.at(TaskId(0)).arg_memories[0] = {MemKind::kFrameBuffer,
                                           MemKind::kZeroCopy};
  mapping.at(TaskId(0)).blocked = true;
  const Tally tally =
      fuzz(mapping.serialize(), 13, 20000, [&graph](const std::string& t) {
        return Mapping::parse(t, graph).serialize();
      });
  expect_both_outcomes(tally);
}

/// A finished tiny search: its profiles database and, through a budget cut
/// mid-search, a mid-rotation checkpoint.
struct TinySearch {
  TaskGraph graph = tiny_graph();
  MachineModel machine = make_shepard(1);
  Simulator sim{machine, graph, {.iterations = 2, .noise_sigma = 0.02}};
  SearchOptions options{.rotations = 2, .repeats = 2, .seed = 5,
                        .top_k = 2, .final_repeats = 2};
};

TEST(TextMutation, ProfilesDatabases) {
  TinySearch s;
  const SearchResult result = run_ccd(s.sim, s.options);
  ASSERT_NE(result.profiles_db.find("entry inf"), std::string::npos)
      << "the seed database should hold a failed candidate";
  const Tally tally =
      fuzz(result.profiles_db, 14, 1500, [&s](const std::string& t) {
        SearchOptions options = s.options;
        options.profiles_seed = t;
        const Evaluator eval(s.sim, options);
        return eval.view().export_profiles();
      });
  expect_both_outcomes(tally);
}

TEST(TextMutation, CheckpointsResumedThroughResumeState) {
  TinySearch s;
  const SearchResult reference = run_ccd(s.sim, s.options);
  const std::string path =
      ::testing::TempDir() + "automap_text_mutation_checkpoint.txt";
  SearchOptions cut = s.options;
  cut.checkpoint_path = path;
  cut.time_budget_s = reference.stats.search_time_s * 0.5;
  (void)run_ccd(s.sim, cut);
  const DurableLoad checkpoint = load_checksummed(path);
  std::remove(path.c_str());
  ASSERT_EQ(checkpoint.status, DurableLoad::Status::kOk);

  const auto resume = [&s](const std::string& t) {
    SearchOptions options = s.options;
    options.resume_state = t;
    return run_ccd(s.sim, options).best.serialize();
  };
  // The unmutated checkpoint resumes to the uninterrupted answer.
  EXPECT_EQ(resume(checkpoint.payload), reference.best.serialize());
  const Tally tally =
      fuzz(checkpoint.payload, 15, 1500, resume, /*fixed_point=*/false);
  expect_both_outcomes(tally);
}

}  // namespace
}  // namespace automap
