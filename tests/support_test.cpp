// Unit tests for src/support: rng, stats, format, table, ids, line reader,
// small vectors.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/id.hpp"
#include "src/support/line_reader.hpp"
#include "src/support/rng.hpp"
#include "src/support/small_vector.hpp"
#include "src/support/stats.hpp"
#include "src/support/table.hpp"

namespace automap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, LognormalFactorHasMedianOne) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.lognormal_factor(0.1));
  EXPECT_NEAR(percentile(xs, 50.0), 1.0, 0.01);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, LognormalSigmaZeroIsIdentity) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.lognormal_factor(0.0), 1.0);
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
  EXPECT_THROW(rng.lognormal_factor(-0.5), Error);
}

TEST(OnlineStats, MeanAndVarianceMatchClosedForm) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all, left, right;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.count(), all.count());
}

TEST(OnlineStats, Ci95ShrinksWithSamples) {
  OnlineStats small, large;
  Rng rng(29);
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
  const std::vector<double> bad = {1.0, -1.0};
  EXPECT_THROW((void)geometric_mean(bad), Error);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(17), "17 B");
  EXPECT_EQ(format_bytes(1024), "1.0 KiB");
  EXPECT_EQ(format_bytes(16ull << 30), "16.0 GiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
  EXPECT_EQ(format_seconds(0.0123), "12.30 ms");
  EXPECT_EQ(format_seconds(45e-6), "45.0 us");
}

TEST(Format, FixedAndSpeedup) {
  EXPECT_EQ(format_fixed(1.005, 2), "1.00");
  EXPECT_EQ(format_speedup(2.414), "2.41x");
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"app", "speedup"});
  t.add_row({"circuit", "2.41x"});
  t.add_row({"stencil", "1.85x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| app     |"), std::string::npos);
  EXPECT_NE(out.find("2.41x"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Id, StrongTyping) {
  const TaskId t(3);
  EXPECT_EQ(t.value(), 3u);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(TaskId().valid());
  EXPECT_LT(TaskId(1), TaskId(2));
}

TEST(Id, HashIsUsable) {
  std::hash<TaskId> h;
  EXPECT_NE(h(TaskId(1)), h(TaskId(2)));
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
}

/// The tokens of the reader's current line, joined by '|'.
std::string joined(const LineReader& r) {
  std::string out;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (i > 0) out += '|';
    out += r[i];
  }
  return out;
}

TEST(LineReader, SplitsOnEveryBlankCharacter) {
  LineReader r(
      "a\tb  c\r\n"           // tab and a CRLF line end
      "\vd\fe \t\n"          // vertical tab, form feed
      "# only a comment\n"
      "  \t\r\n"              // blank after trimming
      "f#glued\n"             // '#' glued to a token ends it
      "g\t#x y\n"
      "#\n"
      "h");                   // last line without a newline
  ASSERT_TRUE(r.next());
  EXPECT_EQ(joined(r), "a|b|c");
  EXPECT_EQ(r.line_number(), 1);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(joined(r), "d|e");
  EXPECT_EQ(r.line_number(), 2);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(joined(r), "f");
  EXPECT_EQ(r.line_number(), 5);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(joined(r), "g");
  ASSERT_TRUE(r.next());
  EXPECT_EQ(joined(r), "h");
  EXPECT_EQ(r.line_number(), 8);
  EXPECT_FALSE(r.next());
  EXPECT_EQ(r.size(), 0u);
}

TEST(LineReader, KeepsNonBlankBytesInsideTokens) {
  // Only space, \t, \r, \v and \f separate; other control and high
  // bytes belong to the token.
  LineReader r(std::string_view("x\001y \xe9z,w\0v", 10));
  ASSERT_TRUE(r.next());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "x\001y");
  EXPECT_EQ(r[1], std::string_view("\xe9z,w\0v", 6));
  EXPECT_FALSE(LineReader("").next());
  EXPECT_FALSE(LineReader("\n\r\n \n#\n").next());
}

TEST(LineReader, PinsTokensAndLineNumbersOfEveryLine) {
  LineReader r(
      "\ta\t\tb\t\n"        // 1: tabs around and between tokens
      "\n"                  // 2: empty
      "c\r\vd\fe\r\n"       // 3: \r, \v and \f inside the line and at its end
      "   \t\r\v\f\n"       // 4: blank characters only
      "# comment only\n"    // 5
      "  # indented comment\n"  // 6
      "ab#cd ef\n"          // 7: '#' inside a token ends the line there
      "gh\t#\n"             // 8: '#' after a tab
      "#a b\n"              // 9
      "i j k\r\n"           // 10
      "\r\n"                // 11
      "last \tone");        // 12: no newline at the end
  const std::vector<std::pair<int, std::string>> want = {
      {1, "a|b"}, {3, "c|d|e"}, {7, "ab"}, {8, "gh"}, {10, "i|j|k"},
      {12, "last|one"}};
  for (const auto& [line, tokens] : want) {
    ASSERT_TRUE(r.next()) << "line " << line;
    EXPECT_EQ(r.line_number(), line);
    EXPECT_EQ(joined(r), tokens) << "line " << line;
  }
  EXPECT_FALSE(r.next());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.line_number(), 12);

  // A final newline opens no further line; trailing blank and comment lines
  // are counted before the end is reported.
  LineReader trailing("x\n\n# tail\n \n");
  ASSERT_TRUE(trailing.next());
  EXPECT_EQ(trailing.line_number(), 1);
  EXPECT_FALSE(trailing.next());
  EXPECT_EQ(trailing.line_number(), 4);
}

using Small = SmallVector<int, 3>;

std::vector<int> items(const Small& v) { return {v.begin(), v.end()}; }

TEST(SmallVector, GrowsPastItsInlineCapacity) {
  Small v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 10; ++i) {
    v.push_back(i);
    ASSERT_EQ(v.size(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(items(v), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  v[4] = 40;
  EXPECT_EQ(v[4], 40);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.assign(2, 7);
  EXPECT_EQ(items(v), (std::vector<int>{7, 7}));
  v.assign(5, 8);
  EXPECT_EQ(items(v), (std::vector<int>(5, 8)));
}

TEST(SmallVector, PushingItsOwnElementWhileGrowing) {
  for (const int n : {3, 4}) {  // full inline, full heap block
    Small v;
    for (int i = 0; i < n; ++i) v.push_back(i + 1);
    v.push_back(v[0]);
    EXPECT_EQ(v.size(), static_cast<std::size_t>(n + 1));
    EXPECT_EQ(v[static_cast<std::size_t>(n)], 1);
    v.assign(9, v[1]);
    EXPECT_EQ(items(v), (std::vector<int>(9, 2)));
  }
}

TEST(SmallVector, CopiesAndMovesInlineAndHeapContents) {
  for (const std::size_t n : {0u, 2u, 3u, 4u, 9u}) {
    Small v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<int>(i * i));
    const std::vector<int> want = items(v);

    Small copy = v;
    EXPECT_EQ(copy, v);
    if (n > 0) {
      copy[0] = -1;
      EXPECT_NE(copy, v);  // independent storage
    }
    Small assigned{5, 6, 7, 8};
    assigned = v;
    EXPECT_EQ(items(assigned), want);
    const Small& self = assigned;
    assigned = self;
    EXPECT_EQ(items(assigned), want);

    Small moved = std::move(copy);
    copy = Small{1};  // a moved-from vector is reusable
    EXPECT_EQ(items(copy), (std::vector<int>{1}));
    Small target{1, 2, 3, 4, 5};
    target = std::move(v);
    EXPECT_EQ(items(target), want);
    EXPECT_TRUE(v.empty());
    (void)moved;
  }
}

TEST(SmallVector, EqualityComparesElementsOnly) {
  Small a{1, 2, 3, 4};  // on the heap
  Small b{1, 2};        // inline
  EXPECT_NE(a, b);
  b.push_back(3);
  b.push_back(4);
  EXPECT_EQ(a, b);
  a.clear();
  b.clear();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, Small{});
}

}  // namespace
}  // namespace automap
