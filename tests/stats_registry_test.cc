#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.h"
#include "sim/sim_env.h"
#include "sim/trace.h"

namespace lfstx {
namespace {

// ------------------------------------------------------------ registry --

TEST(MetricsRegistryTest, CounterRegistrationAndSharing) {
  MetricsRegistry reg;
  MetricCounter* c = reg.GetCounter("disk.seeks", "count", "head movements");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);

  // Idempotent: a second caller shares the same instance.
  MetricCounter* again = reg.GetCounter("disk.seeks", "count", "ignored");
  EXPECT_EQ(again, c);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.UnitOf("disk.seeks"), "count");
}

TEST(MetricsRegistryTest, GaugeFirstWinsAndDropOwner) {
  MetricsRegistry reg;
  int a = 0, b = 0;
  reg.AddGauge(&a, "txn.active", "count", "live txns",
               [] { return 1.0; });
  // Second registration of the same name is a no-op (fig5 runs two txn
  // stacks on one machine).
  reg.AddGauge(&b, "txn.active", "count", "live txns",
               [] { return 2.0; });
  EXPECT_EQ(reg.size(), 1u);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"active\": 1"), std::string::npos);

  // Dropping the loser's owner must not remove the winner's gauge.
  reg.DropOwner(&b);
  EXPECT_EQ(reg.size(), 1u);
  reg.DropOwner(&a);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistryTest, HistogramPercentiles) {
  MetricsRegistry reg;
  MetricHistogram* h =
      reg.GetHistogram("disk.request_latency_us", "us", "request latency");
  for (uint64_t i = 1; i <= 1000; i++) h->Add(i);
  EXPECT_EQ(h->count(), 1000u);
  EXPECT_NEAR(h->mean(), 500.5, 0.1);
  EXPECT_GT(h->Percentile(99), 500.0);
  EXPECT_LT(h->Percentile(10), 300.0);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_GE(h->max(), 1000u);
}

// ---------------------------------------------------- HDR histogram core --

TEST(HdrHistogramTest, BucketGeometryIsExactBelowThresholdLogAbove) {
  // Values below kSubBuckets each get their own bucket: exact.
  for (uint64_t v = 0; v < HdrHistogram::kSubBuckets; v++) {
    size_t idx = HdrHistogram::BucketIndex(v);
    EXPECT_EQ(HdrHistogram::BucketLow(idx), v);
    EXPECT_EQ(HdrHistogram::BucketWidth(idx), 1u);
  }
  // Every value lands in a bucket that contains it, and the bucket width
  // honours the relative-error bound.
  for (uint64_t v = HdrHistogram::kSubBuckets; v < (1ull << 40);
       v = v * 3 + 1) {
    size_t idx = HdrHistogram::BucketIndex(v);
    uint64_t low = HdrHistogram::BucketLow(idx);
    uint64_t width = HdrHistogram::BucketWidth(idx);
    EXPECT_LE(low, v);
    EXPECT_LT(v, low + width) << "value " << v << " outside bucket " << idx;
    EXPECT_LE(static_cast<double>(width),
              HdrHistogram::kMaxRelativeError * static_cast<double>(v) +
                  1e-9)
        << "bucket " << idx << " too wide for value " << v;
    // Buckets tile the axis: the next bucket starts where this one ends.
    EXPECT_EQ(HdrHistogram::BucketLow(idx + 1), low + width);
  }
}

TEST(HdrHistogramTest, CountSumMinMaxAreExact) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  uint64_t n = 0;
  double sum = 0;
  uint64_t last = 0;
  for (uint64_t v = 1; v < (1ull << 30); v = v * 2 + 3) {
    h.Add(v);
    n++;
    sum += static_cast<double>(v);
    last = v;
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), last);
}

TEST(HdrHistogramTest, PercentilesBoundedRelativeErrorAndMonotone) {
  HdrHistogram h;
  // Log-uniform sweep over six decades: the stress case a linear-bucket
  // histogram fails.
  std::vector<uint64_t> values;
  for (uint64_t v = 1; v <= 1000000; v = v + 1 + v / 7) {
    values.push_back(v);
    h.Add(v);
  }
  for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    double est = h.Percentile(p);
    // Reference: the estimate must land within one bucket's relative error
    // of the values adjacent to the p-rank (rank conventions differ by at
    // most one position, so bracket by the neighbours).
    size_t rank = static_cast<size_t>(p / 100.0 *
                                      static_cast<double>(values.size()));
    if (rank >= values.size()) rank = values.size() - 1;
    double lo = static_cast<double>(values[rank == 0 ? 0 : rank - 1]);
    double hi = static_cast<double>(
        values[std::min(rank + 1, values.size() - 1)]);
    EXPECT_GE(est, lo * (1 - HdrHistogram::kMaxRelativeError) - 1)
        << "p" << p;
    EXPECT_LE(est, hi * (1 + HdrHistogram::kMaxRelativeError) + 1)
        << "p" << p;
  }
  // Non-decreasing in p, clamped to [min, max].
  double prev = 0;
  for (double p = 0; p <= 100.0; p += 0.5) {
    double q = h.Percentile(p);
    EXPECT_GE(q, prev);
    EXPECT_GE(q, static_cast<double>(h.min()));
    EXPECT_LE(q, static_cast<double>(h.max()));
    prev = q;
  }
}

TEST(HdrHistogramTest, TailResolutionSeparatesP99FromP999) {
  HdrHistogram h;
  // 10,000 fast requests and 10 straggler outliers: p99 must stay near the
  // bulk while p99.9 climbs into the stragglers.
  for (int i = 0; i < 10000; i++) h.Add(100 + (i % 7));
  for (int i = 0; i < 10; i++) h.Add(500000);
  EXPECT_LT(h.Percentile(99), 200.0);
  EXPECT_GT(h.Percentile(99.95), 400000.0);
}

TEST(MetricsRegistryTest, HistogramJsonCarriesTailPercentiles) {
  MetricsRegistry reg;
  MetricHistogram* h = reg.GetHistogram("txn.latency_us", "us", "latency");
  for (uint64_t i = 1; i <= 1000; i++) h->Add(i);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  // Serialized percentiles respect ordering: p95 <= p99 <= p999 <= max.
  EXPECT_LE(h->Percentile(95), h->Percentile(99));
  EXPECT_LE(h->Percentile(99), h->Percentile(99.9));
  EXPECT_LE(h->Percentile(99.9), static_cast<double>(h->max()));
}

TEST(MetricsRegistryTest, JsonSnapshotRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("disk.seeks", "count", "head movements")->Inc(17);
  reg.GetCounter("cache.hits", "count", "buffer cache hits")->Inc(3);
  double util = 0.75;
  reg.AddGauge(&util, "lfs.utilization", "fraction", "live/capacity",
               [&util] { return util; });
  reg.GetHistogram("txn.group_commit_batch", "txns", "batch size")->Add(4);

  std::string json = reg.ToJson();
  // Sections nest by the first dot component.
  EXPECT_NE(json.find("\"disk\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"lfs\""), std::string::npos);
  EXPECT_NE(json.find("\"txn\""), std::string::npos);
  // Integral values print exactly; gauges keep their fraction.
  EXPECT_NE(json.find("\"seeks\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("0.75"), std::string::npos);
  // Histograms serialize the documented summary object.
  EXPECT_NE(json.find("\"group_commit_batch\": {"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Valid JSON shape: balanced braces, no trailing comma before a brace.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.find(",}"), std::string::npos);
  EXPECT_EQ(json.find(",\n}"), std::string::npos);

  // Names() lists everything, sorted.
  std::vector<std::string> names = reg.Names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  reg.DropOwner(&util);
}

// ------------------------------------------------------ measured window --

TEST(MetricsRegistryTest, DeltaCoversOnlyTheWindowSinceMark) {
  MetricsRegistry reg;
  MetricCounter* c = reg.GetCounter("disk.seeks", "count", "head movements");
  MetricHistogram* h = reg.GetHistogram("disk.request_latency_us", "us", "");
  double depth = 3;
  reg.AddGauge(&depth, "disk.queue_depth", "requests", "queued now",
               [&depth] { return depth; });
  c->Inc(10);
  h->Add(100);
  h->Add(200);

  MetricValues mark = reg.Mark();
  EXPECT_EQ(mark.at("disk.seeks"), 10);
  EXPECT_EQ(mark.at("disk.request_latency_us.count"), 2);
  EXPECT_EQ(mark.at("disk.request_latency_us.sum"), 300);

  c->Inc(7);
  h->Add(40);
  depth = 5;
  MetricValues d = reg.Delta(mark);
  EXPECT_EQ(d.at("disk.seeks"), 7);
  EXPECT_EQ(d.at("disk.queue_depth"), 2);
  EXPECT_EQ(d.at("disk.request_latency_us.count"), 1);
  EXPECT_EQ(d.at("disk.request_latency_us.sum"), 40);
  EXPECT_EQ(d.size(), mark.size());
  reg.DropOwner(&depth);
}

TEST(MetricsRegistryTest, MetricRegisteredAfterMarkCountsFromZero) {
  MetricsRegistry reg;
  reg.GetCounter("disk.seeks", "count", "head movements")->Inc(4);
  MetricValues mark = reg.Mark();

  reg.GetCounter("cleaner.rounds", "count", "passes")->Inc(3);
  reg.GetHistogram("blame.disk.cleaner_us", "us", "")->Add(250);
  MetricValues d = reg.Delta(mark);
  EXPECT_EQ(mark.count("cleaner.rounds"), 0u);
  EXPECT_EQ(d.at("cleaner.rounds"), 3);
  EXPECT_EQ(d.at("blame.disk.cleaner_us.count"), 1);
  EXPECT_EQ(d.at("blame.disk.cleaner_us.sum"), 250);
}

TEST(MetricsRegistryTest, UnchangedMetricReadsZero) {
  MetricsRegistry reg;
  reg.GetCounter("disk.seeks", "count", "head movements")->Inc(9);
  reg.GetHistogram("disk.request_latency_us", "us", "")->Add(70);
  double level = 0.5;
  reg.AddGauge(&level, "lfs.utilization", "ratio", "",
               [&level] { return level; });
  MetricValues mark = reg.Mark();
  for (const auto& [name, v] : reg.Delta(mark)) {
    EXPECT_EQ(v, 0) << name;
  }
  reg.DropOwner(&level);
}

// -------------------------------------------------------------- tracer --

TEST(TracerTest, DisabledCategoriesEmitNothing) {
  SimTime now = 0;
  Tracer tracer(&now);
  std::string sink;
  tracer.SetCapture(&sink);

  // Nothing enabled: the macro must not evaluate fields or emit.
  int evaluations = 0;
  auto count_side_effect = [&evaluations] {
    evaluations++;
    return uint64_t{1};
  };
  LFSTX_TRACE(&tracer, TraceCat::kDisk, "io_begin",
              {"block", count_side_effect()});
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(tracer.events_emitted(), 0u);
  EXPECT_TRUE(sink.empty());

  // A null tracer is also safe.
  Tracer* null_tracer = nullptr;
  LFSTX_TRACE(null_tracer, TraceCat::kDisk, "io_begin", {"block", 1});
}

TEST(TracerTest, EnabledCategoryEmitsTimestampedJsonl) {
  SimTime now = 41780;
  Tracer tracer(&now);
  std::string sink;
  tracer.SetCapture(&sink);
  tracer.Enable(TraceCat::kDisk);

  LFSTX_TRACE(&tracer, TraceCat::kDisk, "io_end", {"op", "read"},
              {"block", uint64_t{512}}, {"latency_us", 930.5},
              {"ok", true});
  // Only the enabled category fires.
  LFSTX_TRACE(&tracer, TraceCat::kTxn, "txn_begin", {"txn", uint64_t{7}});

  EXPECT_EQ(tracer.events_emitted(), 1u);
  EXPECT_EQ(sink,
            "{\"t\":41780,\"cat\":\"disk\",\"ev\":\"io_end\","
            "\"op\":\"read\",\"block\":512,\"latency_us\":930.5,"
            "\"ok\":1}\n");

  // The clock is read at emit time.
  now = 99000;
  LFSTX_TRACE(&tracer, TraceCat::kDisk, "io_begin", {"block", uint64_t{8}});
  EXPECT_NE(sink.find("{\"t\":99000,"), std::string::npos);
}

TEST(TracerTest, EnableSpecParsesCategoryLists) {
  SimTime now = 0;
  Tracer tracer(&now);

  ASSERT_TRUE(tracer.EnableSpec("disk,txn,lock").ok());
  EXPECT_TRUE(tracer.enabled(TraceCat::kDisk));
  EXPECT_TRUE(tracer.enabled(TraceCat::kTxn));
  EXPECT_TRUE(tracer.enabled(TraceCat::kLock));
  EXPECT_FALSE(tracer.enabled(TraceCat::kCleaner));

  tracer.DisableAll();
  ASSERT_TRUE(tracer.EnableSpec("all").ok());
  EXPECT_EQ(tracer.mask(), kTraceAll);

  EXPECT_FALSE(tracer.EnableSpec("no_such_category").ok());
}

TEST(TracerTest, StringFieldsAreEscaped) {
  SimTime now = 0;
  Tracer tracer(&now);
  std::string sink;
  tracer.SetCapture(&sink);
  tracer.Enable(TraceCat::kTxn);
  LFSTX_TRACE(&tracer, TraceCat::kTxn, "note", {"msg", "a\"b\\c\n"});
  // Quote and backslash get a backslash; control chars become \u00XX.
  EXPECT_NE(sink.find("a\\\"b\\\\c\\u000a"), std::string::npos);
}

// ------------------------------------------------------ env integration --

TEST(MetricsRegistryTest, SimEnvRegistersBaseMetrics) {
  SimEnv env;
  ASSERT_NE(env.metrics(), nullptr);
  ASSERT_NE(env.tracer(), nullptr);
  std::vector<std::string> names = env.metrics()->Names();
  auto has = [&names](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("sim.now_us"));
  EXPECT_TRUE(has("sim.context_switches"));
  EXPECT_TRUE(has("sim.syscalls"));
  // Tracing defaults to off: the hot-path gate reports disabled.
  EXPECT_FALSE(env.tracer()->enabled(TraceCat::kDisk));
}

}  // namespace
}  // namespace lfstx
