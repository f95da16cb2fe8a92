// Tests of the benchmark's own helpers (order statistics, span self
// time, the report) and a smoke run of every workload at tiny sizes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({5.0}, 0.99), 5.0);
  // 1000 samples: p99 is the 990th smallest, with 10 samples beyond it.
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  EXPECT_EQ(percentile(w, 0.99), 990.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(SelfSeconds, SubtractsTheUnionOfChildren) {
  // root [0,10] with children [1,3] and [2,5] (overlapping: cover 4)
  // and a grandchild inside [1,3] that must not count twice.
  const std::vector<Span> spans = {{"root", -1, 0.0, 10.0},
                                   {"a", 0, 1.0, 3.0},
                                   {"b", 0, 2.0, 5.0},
                                   {"a.x", 1, 1.5, 2.5}};
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 6.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 1), 1.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 2), 3.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 3), 1.0);
}

TEST(SelfSeconds, ClipsChildrenToTheParent) {
  const std::vector<Span> spans = {{"root", -1, 1.0, 4.0},
                                   {"late", 0, 3.0, 6.0}};
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 2.0);
}

TEST(Tracer, NestsScopesAndSumsByName) {
  Tracer tr(true);
  {
    auto outer = tr.scope("outer");
    { auto a = tr.scope("step"); }
    { auto b = tr.scope("step"); }
  }
  ASSERT_EQ(tr.spans().size(), 3u);
  EXPECT_EQ(tr.spans()[0].parent, -1);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[2].parent, 0);
  EXPECT_DOUBLE_EQ(tr.total("step"),
                   tr.spans()[1].seconds() + tr.spans()[2].seconds());
  EXPECT_NEAR(tr.self_total("outer") + tr.total("step"), tr.total("outer"),
              1e-12);
  { auto after = tr.scope("next"); }
  EXPECT_EQ(tr.spans().back().parent, -1);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tr(false);
  {
    auto s = tr.scope("x");
  }
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_EQ(tr.total("x"), 0.0);
}

TEST(Report, BoundChecksFailWithoutClearingCorrect) {
  Report r;
  r.metrics.push_back({"latency_ms", 0.0, "ms"});
  r.check(true, "fine", true);
  r.check(false, "balance", false);
  EXPECT_TRUE(r.correct);
  r.check(false, "labels", true);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.attempted, 3);
  EXPECT_EQ(r.failed, 2);
  r.set("latency_ms", 1.25);
  EXPECT_THROW(r.set("other", 1.0), std::logic_error);
  EXPECT_EQ(r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 2, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
}

TEST(Report, RepeatedChecksCountOnce) {
  Report r;
  for (int rep = 0; rep < 3; ++rep) {
    r.check(true, "consistent", true);
    r.check(rep != 1, "labels", true);
    r.check(false, "balance", false);
  }
  EXPECT_EQ(r.attempted, 3);
  EXPECT_EQ(r.failed, 2);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.failures, (std::vector<std::string>{"balance", "labels"}));
}

class Smoke : public ::testing::TestWithParam<bool> {};

TEST_P(Smoke, EveryWorkloadRunsAndChecksItsOutputs) {
  const bool trace = GetParam();
  std::set<std::string> names;
  for (const WorkloadShape& w : workloads()) {
    if (w.ranks * w.threads > available_cpus()) {
      Options opt;
      opt.workload = w.name;
      opt.smoke = true;
      EXPECT_THROW(run_workload(opt), std::runtime_error) << w.name;
      continue;
    }
    Options opt;
    opt.workload = w.name;
    opt.seed = 3;
    opt.seconds = 0.0;
    opt.trace = trace;
    opt.smoke = true;
    const Report r = run_workload(opt);
    EXPECT_TRUE(r.correct) << w.name;
    EXPECT_GT(r.attempted, 0) << w.name;
    std::set<std::string> these;
    for (const Metric& m : r.metrics) {
      these.insert(m.name);
      // End-to-end metrics are never 0 on any workload.
      if (!trace) {
        EXPECT_GT(m.value, 0.0) << w.name << " " << m.name;
      }
    }
    // Every workload reports the same metric names.
    if (names.empty()) names = these;
    EXPECT_EQ(these, names) << w.name;
  }
}

INSTANTIATE_TEST_SUITE_P(TraceOffOn, Smoke, ::testing::Bool());

TEST(Workloads, UnknownNameIsRefused) {
  Options opt;
  opt.workload = "no_such_workload";
  EXPECT_THROW(run_workload(opt), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
