// Tests for the metrics registry (src/support/metrics.hpp) and the
// deterministic JSON helpers (src/support/json.hpp) the journal rides on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

TEST(Metrics, CountersGaugesAndHistogramsHoldValues) {
  MetricsRegistry registry;
  Counter* c = registry.counter("automap_test_total", "a counter");
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);

  Gauge* g = registry.gauge("automap_test_gauge", "a gauge");
  g->set(2.5);
  EXPECT_EQ(g->value(), 2.5);

  Histogram* h = registry.histogram("automap_test_seconds", "a histogram",
                                    {0.1, 1.0, 10.0});
  h->observe(0.05);
  h->observe(0.5);
  h->observe(5.0);
  h->observe(50.0);  // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 55.55);
  EXPECT_EQ(h->cumulative(0), 1u);   // <= 0.1
  EXPECT_EQ(h->cumulative(1), 2u);   // <= 1.0
  EXPECT_EQ(h->cumulative(2), 3u);   // <= 10.0
  EXPECT_EQ(h->cumulative(3), 4u);   // +Inf
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry registry;
  Counter* a = registry.counter("automap_dup_total", "first");
  Counter* b = registry.counter("automap_dup_total", "second");
  EXPECT_EQ(a, b);  // same entry, not a duplicate
  EXPECT_THROW(registry.gauge("automap_dup_total", "kind clash"), Error);
  EXPECT_THROW(registry.histogram("automap_bad", "unsorted", {2.0, 1.0}),
               Error);
}

TEST(Metrics, ExposeRendersPrometheusText) {
  MetricsRegistry registry;
  registry.counter("automap_runs_total", "Runs")->inc(3);
  registry.gauge("automap_best_seconds", "Best")->set(0.25);
  Histogram* h =
      registry.histogram("automap_lat_seconds", "Latency", {0.5, 1.0});
  h->observe(0.2);
  h->observe(2.0);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("# HELP automap_runs_total Runs"), std::string::npos);
  EXPECT_NE(text.find("# TYPE automap_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("automap_runs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE automap_best_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("automap_lat_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("automap_lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("automap_lat_seconds_count 2"), std::string::npos);
  // Insertion order is preserved: counters registered first render first.
  EXPECT_LT(text.find("automap_runs_total"),
            text.find("automap_best_seconds"));
}

TEST(Metrics, SnapshotJsonSkipsNonDeterministicSeries) {
  MetricsRegistry registry;
  registry.counter("automap_det_total", "deterministic")->inc(7);
  registry
      .counter("automap_pool_total", "thread-dependent",
               /*deterministic=*/false)
      ->inc(9);
  registry.gauge("automap_level", "level")->set(1.5);
  registry.histogram("automap_h_seconds", "histogram", {1.0})->observe(0.5);
  const std::string snapshot = registry.snapshot_json();
  const JsonValue parsed = parse_json(snapshot);
  EXPECT_EQ(parsed.num_or("automap_det_total", -1), 7.0);
  EXPECT_EQ(parsed.num_or("automap_level", -1), 1.5);
  EXPECT_FALSE(parsed.has("automap_pool_total"));  // deterministic=false
  EXPECT_FALSE(parsed.has("automap_h_seconds"));   // histograms excluded
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Metrics, QuantileInterpolatesWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  // 4 observations in (0,1], 4 in (1,2], 2 in (2,4]: every rank below is
  // hand-computable against the linear-within-bucket model.
  for (int i = 0; i < 4; ++i) h.observe(0.5);
  for (int i = 0; i < 4; ++i) h.observe(1.5);
  for (int i = 0; i < 2; ++i) h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);   // first bucket's lower edge
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.25);  // rank 5: 1/4 into (1,2]
  EXPECT_DOUBLE_EQ(h.quantile(0.8), 2.0);   // rank 8: exactly a bucket edge
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 3.5);  // rank 9.5: 3/4 into (2,4]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);   // top of the last bucket
  EXPECT_THROW({ (void)h.quantile(-0.1); }, Error);
  EXPECT_THROW({ (void)h.quantile(1.5); }, Error);
}

TEST(Metrics, QuantileEdgeCases) {
  Histogram empty({1.0});
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));

  // Everything in the +Inf overflow bucket clamps to the highest finite
  // bound — the honest "beyond what the buckets resolve" answer.
  Histogram overflow({1.0, 2.0});
  overflow.observe(5.0);
  overflow.observe(6.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 2.0);

  // A bound-less histogram has no shape to interpolate: the mean stands in.
  Histogram boundless{std::vector<double>{}};
  boundless.observe(2.0);
  boundless.observe(4.0);
  EXPECT_DOUBLE_EQ(boundless.quantile(0.5), 3.0);
}

TEST(Metrics, ExposeRendersLabeledFamilies) {
  MetricsRegistry registry;
  registry.counter("automap_op_errors_total{op=\"submit\"}", "Errors")
      ->inc(2);
  registry.counter("automap_op_errors_total{op=\"cancel\"}", "Errors")
      ->inc(1);
  Histogram* h = registry.histogram("automap_handle_seconds{op=\"submit\"}",
                                    "Handle latency", {0.5});
  h->observe(0.1);
  h->observe(0.7);
  const std::string text = registry.expose();

  // One # HELP / # TYPE block per family, shared by the labeled series.
  EXPECT_EQ(occurrences(text, "# TYPE automap_op_errors_total counter"), 1u);
  EXPECT_EQ(occurrences(text, "# HELP automap_op_errors_total"), 1u);
  EXPECT_NE(text.find("automap_op_errors_total{op=\"submit\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("automap_op_errors_total{op=\"cancel\"} 1"),
            std::string::npos);
  // Histogram suffixes splice before the label set, `le` inside the same
  // braces as the instrument's own labels.
  EXPECT_NE(
      text.find("automap_handle_seconds_bucket{op=\"submit\",le=\"0.5\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("automap_handle_seconds_bucket{op=\"submit\",le=\"+Inf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("automap_handle_seconds_count{op=\"submit\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("automap_handle_seconds_sum{op=\"submit\"} "),
            std::string::npos);
}

TEST(Metrics, QuantilesJsonListsNonEmptyHistograms) {
  MetricsRegistry registry;
  registry.histogram("automap_idle_seconds", "never observed", {1.0});
  Histogram* h = registry.histogram("automap_busy_seconds", "observed",
                                    {1.0, 2.0}, /*deterministic=*/false);
  h->observe(0.5);
  h->observe(0.5);
  h->observe(1.5);
  h->observe(1.5);
  const JsonValue parsed = parse_json(registry.quantiles_json());
  EXPECT_FALSE(parsed.has("automap_idle_seconds"));
  const JsonValue* busy = parsed.find("automap_busy_seconds");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->num_or("count", -1), 4.0);
  EXPECT_DOUBLE_EQ(busy->num_or("p50", -1), 1.0);
  EXPECT_NEAR(busy->num_or("p95", -1), 1.9, 1e-9);
  EXPECT_NEAR(busy->num_or("p99", -1), 1.98, 1e-9);
}

TEST(Json, ParseRoundTripsJournalShapes) {
  const JsonValue v = parse_json(
      R"({"n":3,"type":"move","ok":true,"mean":0.125,"tags":[1,2],"nested":{"x":null}})");
  EXPECT_EQ(static_cast<int>(v.num_or("n", -1)), 3);
  EXPECT_EQ(v.str_or("type", ""), "move");
  EXPECT_TRUE(v.bool_or("ok", false));
  EXPECT_EQ(v.num_or("mean", 0), 0.125);
  ASSERT_NE(v.find("tags"), nullptr);
  EXPECT_EQ(v.find("tags")->array.size(), 2u);
  ASSERT_NE(v.find("nested"), nullptr);
  EXPECT_TRUE(v.find("nested")->has("x"));
}

TEST(Json, WideNumReadsQuotedNonFinite) {
  const JsonValue v =
      parse_json(R"({"budget":"inf","bad":"-inf","nan":"nan","x":2})");
  EXPECT_TRUE(std::isinf(v.wide_num_or("budget", 0)));
  EXPECT_LT(v.wide_num_or("bad", 0), 0);
  EXPECT_TRUE(std::isnan(v.wide_num_or("nan", 0)));
  EXPECT_EQ(v.wide_num_or("x", 0), 2.0);
  EXPECT_EQ(v.wide_num_or("absent", 9), 9.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{} trailing"), Error);
  EXPECT_THROW(parse_json("{\"a\":}"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
}

TEST(Json, DeterministicRendering) {
  EXPECT_EQ(json_double(0.5), "0.5");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
  EXPECT_EQ(json_double(std::nan("")), "\"nan\"");
  EXPECT_EQ(hex_u64(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(json_escape("a\"b\\c\td"), "a\\\"b\\\\c\\td");
  // Round trip through the parser, control characters included.
  const std::string tricky = "line1\nline2\x01end";
  const JsonValue v =
      parse_json("{\"s\":\"" + json_escape(tricky) + "\"}");
  EXPECT_EQ(v.str_or("s", ""), tricky);
}

}  // namespace
}  // namespace automap
