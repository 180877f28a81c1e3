// Tests for the benchmark's own metric code (perfbench/src/metrics.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bench_util.hpp"
#include "host_reference.hpp"
#include "metrics.hpp"

namespace perfbench {
namespace {

namespace bench = pimlib::bench;

// The benchmark's percentiles are bench::percentile's; these pin down the
// convention its reporting rule relies on.
TEST(Percentile, LowerIndexOnASortedCopy) {
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(bench::percentile(v, 0.5), 3.0);
    EXPECT_EQ(bench::percentile(v, 1.0), 5.0);
    EXPECT_EQ(bench::percentile(v, 0.0), 1.0);
    EXPECT_EQ(bench::percentile({7.5}, 0.9), 7.5);
    EXPECT_TRUE(std::isnan(bench::percentile({}, 0.5)));
}

TEST(Percentile, NinetiethOfAHundredHasTenBeyond) {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    EXPECT_EQ(bench::percentile(v, 0.9), 90.0);
    EXPECT_EQ(samples_beyond(100, 0.9), 10u);
}

TEST(Percentile, TenSamplesBeyondRuleForP90) {
    EXPECT_EQ(samples_beyond(92, 0.9), 10u);
    EXPECT_EQ(samples_beyond(91, 0.9), 9u);
    EXPECT_EQ(samples_beyond(0, 0.9), 0u);
    EXPECT_EQ(samples_beyond(10, 1.5), 0u);
    EXPECT_EQ(min_samples_for(0.9), 92u);
    EXPECT_EQ(min_samples_for(0.5), 20u);
    EXPECT_EQ(min_samples_for(1.0), SIZE_MAX);
    for (std::size_t n = 1; n < min_samples_for(0.9); ++n) {
        EXPECT_LT(samples_beyond(n, 0.9), kMinSamplesBeyond) << n;
    }
}

TEST(Percentile, SamplesBeyondCountsWhatBenchPercentileLeavesAbove) {
    for (const double q : {0.5, 0.9, 0.99}) {
        std::vector<double> v;
        for (std::size_t n = 1; n <= 400; ++n) {
            v.push_back(static_cast<double>(n)); // distinct, already sorted
            const double pick = bench::percentile(v, q);
            const auto above = static_cast<std::size_t>(
                std::count_if(v.begin(), v.end(), [pick](double x) { return x > pick; }));
            EXPECT_EQ(samples_beyond(n, q), above) << "n=" << n << " q=" << q;
        }
    }
}

TEST(SliceLog, AccountsCpuAndWorkAcrossSlices) {
    SliceLog log;
    EXPECT_EQ(log.work_per_cpu_second(), 0.0);
    log.add(0.050, 1.0);  // one simulated second in 50 ms
    log.add(0.100, 1.0);  // one in 100 ms
    log.add(0.150, 5.0);  // five replays in 150 ms
    EXPECT_EQ(log.count(), 3u);
    EXPECT_DOUBLE_EQ(log.cpu_seconds(), 0.3);
    EXPECT_DOUBLE_EQ(log.work_units(), 7.0);
    EXPECT_DOUBLE_EQ(log.work_per_cpu_second(), 7.0 / 0.3);
    ASSERT_EQ(log.ms_per_unit().size(), 3u);
    EXPECT_DOUBLE_EQ(log.ms_per_unit()[0], 50.0);
    EXPECT_DOUBLE_EQ(log.ms_per_unit()[1], 100.0);
    EXPECT_DOUBLE_EQ(log.ms_per_unit()[2], 30.0); // per replay, not per call
}

TEST(ScaleToNominal, ReadsEachSliceAgainstItsNeighboursReference) {
    // A host at half speed (reference 4 ms against a nominal 2 ms) doubles
    // what a slice costs; scaled, the slices read the same as at full speed.
    const std::vector<double> cost = {10, 10, 20, 20, 20};
    const std::vector<double> ref = {2, 2, 4, 4, 4};
    const std::vector<double> scaled = scale_to_nominal(cost, ref, 0, 2.0);
    ASSERT_EQ(scaled.size(), 5u);
    for (const double v : scaled) EXPECT_DOUBLE_EQ(v, 10.0);
    // With radius 1, slice 1 is read against the lower median of {2, 2, 4}.
    EXPECT_DOUBLE_EQ(scale_to_nominal(cost, ref, 1, 2.0)[1], 10.0);
    // One disturbed batch does not move its slice once the radius covers it.
    const std::vector<double> spike = {2, 2, 9, 2, 2};
    EXPECT_DOUBLE_EQ(scale_to_nominal(cost, spike, 2, 2.0)[2], 20.0);
    EXPECT_TRUE(scale_to_nominal(cost, {2, 2}, 1, 2.0).empty());
    EXPECT_TRUE(scale_to_nominal({}, {}, 3, 2.0).empty());
}

TEST(HostReference, DoesTheSameWorkEveryRun) {
    HostReference a, b;
    for (int i = 0; i < 3; ++i) {
        EXPECT_GT(a.run_ms(), 0.0);
        EXPECT_GT(b.run_ms(), 0.0);
    }
    EXPECT_EQ(a.checksum(), b.checksum());
    EXPECT_NE(a.checksum(), 0u);
}

TEST(FailedShare, IsFailedOverAttempted) {
    EXPECT_EQ(failed_share(0, 10), 0.0);
    EXPECT_EQ(failed_share(3, 12), 0.25);
    EXPECT_EQ(failed_share(5, 5), 1.0);
    EXPECT_FALSE(failed_share(0, 0).has_value());
}

TEST(MetricNames, OnlyTheAllowedAlphabet) {
    EXPECT_TRUE(valid_metric_name("setup_s"));
    EXPECT_TRUE(valid_metric_name("zone.sim.dispatch.excl_ms"));
    EXPECT_TRUE(valid_metric_name("pim.codec.encode_ns"));
    EXPECT_TRUE(valid_metric_name("9-lives"));
    EXPECT_FALSE(valid_metric_name(""));
    EXPECT_FALSE(valid_metric_name(".hidden"));
    EXPECT_FALSE(valid_metric_name("_x"));
    EXPECT_FALSE(valid_metric_name("a b"));
    EXPECT_FALSE(valid_metric_name("a/b"));
    EXPECT_FALSE(valid_metric_name("quote\""));
    EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
    EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
    EXPECT_TRUE(valid_unit("1/s"));
    EXPECT_TRUE(valid_unit("%"));
    EXPECT_TRUE(valid_unit("sim_ms"));
    EXPECT_FALSE(valid_unit(""));
    EXPECT_FALSE(valid_unit("per second"));
}

TEST(ExploreEnd, BudgetEndingIsDistinguishedFromMaxRuns) {
    EXPECT_EQ(classify_explore_end(5, 5, false), ExploreEnd::kMaxRuns);
    EXPECT_EQ(classify_explore_end(5, 5, true), ExploreEnd::kMaxRuns);
    EXPECT_EQ(classify_explore_end(3, 5, true), ExploreEnd::kFrontier);
    // Fewer runs than asked for with branches left: the wall-clock budget
    // cut the search, so the run must fail.
    EXPECT_EQ(classify_explore_end(3, 5, false), ExploreEnd::kBudget);
    EXPECT_STREQ(to_string(ExploreEnd::kBudget), "time_budget");
}

TEST(ResultLine, PrintsEveryDigitAndTheResultKeys) {
    const auto line = result_line(true, 1000, 0,
                                  {{"latency_ms", 1.2034567891234567, "ms"},
                                   {"setup_s", 0.8127, "s"}});
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line,
              "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"
              "\"latency_ms\":{\"value\":1.2034567891234567,\"unit\":\"ms\"},"
              "\"setup_s\":{\"value\":0.81269999999999998,\"unit\":\"s\"}}}");
}

TEST(ResultLine, RefusesMalformedMetrics) {
    EXPECT_FALSE(result_line(true, 1, 0, {{"bad name", 1, "ms"}}).has_value());
    EXPECT_FALSE(result_line(true, 1, 0, {{"x", 1, "bad unit"}}).has_value());
    EXPECT_FALSE(result_line(true, 1, 0, {{"x", 1, "ms"}, {"x", 2, "ms"}}).has_value());
    EXPECT_FALSE(result_line(true, 1, 0, {{"x", 0.0 / 0.0, "ms"}}).has_value());
    EXPECT_TRUE(result_line(false, 3, 3, {}).has_value());
}

} // namespace
} // namespace perfbench
