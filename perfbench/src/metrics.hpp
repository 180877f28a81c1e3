// The benchmark's own metric arithmetic, kept free of any pimlib type so the
// unit tests in perfbench/tests can pin it down: the rule for which
// percentiles a sample may report, slice accounting, the failed share, the
// result-line format, and the classification of how a check::explore call
// ended.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// How many samples of an n-sample set lie strictly beyond its q-quantile
/// as bench::percentile (bench/bench_util.hpp) picks it: the value at index
/// floor(q * (n - 1)) of the sorted sample. 0 for q outside [0, 1].
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// A timing percentile is reported only when at least ten samples lie
/// beyond it; otherwise its tail is one or two outliers, not a statistic.
constexpr std::size_t kMinSamplesBeyond = 10;

/// Fewest samples for which the q-quantile is reportable (92 for p90);
/// SIZE_MAX for q outside [0, 1).
[[nodiscard]] std::size_t min_samples_for(double q);

/// The measured window as a series of slices: each slice is one unit of
/// simulated work (one simulated second, or one check::explore call) with
/// the thread CPU time it took and the work units it completed (simulated
/// seconds, or replays).
class SliceLog {
public:
    void add(double cpu_seconds, double work_units);

    [[nodiscard]] std::size_t count() const { return cpu_ms_.size(); }
    [[nodiscard]] double cpu_seconds() const { return cpu_s_; }
    [[nodiscard]] double work_units() const { return work_; }
    /// Work units per CPU second over the whole window; 0 when empty.
    [[nodiscard]] double work_per_cpu_second() const;
    /// CPU milliseconds per work unit, one entry per slice.
    [[nodiscard]] const std::vector<double>& ms_per_unit() const { return cpu_ms_; }

private:
    std::vector<double> cpu_ms_;
    double cpu_s_ = 0;
    double work_ = 0;
};

/// Slice costs as they would read on the nominal host: slice i's cost ×
/// nominal_ms ÷ the median of reference_ms[i - radius .. i + radius]
/// (clipped at the ends), where reference_ms[i] is the reference kernel's
/// CPU time measured right after slice i. The median over neighbouring
/// slices keeps one disturbed batch from moving a slice. Empty when the
/// two lists differ in length.
[[nodiscard]] std::vector<double> scale_to_nominal(const std::vector<double>& cost,
                                                   const std::vector<double>& reference_ms,
                                                   std::size_t radius, double nominal_ms);

/// failed / attempted; nullopt when nothing was attempted (a run that did
/// no work has no failure rate and must not read as a perfect one).
[[nodiscard]] std::optional<double> failed_share(std::uint64_t failed,
                                                 std::uint64_t attempted);

/// Metric names: a letter or digit first, then at most 63 more of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(const std::string& unit);

/// Why a check::explore call returned.
enum class ExploreEnd {
    kMaxRuns,  // ran exactly the requested number of replays
    kFrontier, // ran out of branches first
    kBudget,   // stopped by the wall-clock budget: work done depends on host speed
};

[[nodiscard]] ExploreEnd classify_explore_end(std::size_t runs, std::size_t max_runs,
                                              bool frontier_exhausted);
[[nodiscard]] const char* to_string(ExploreEnd end);

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// The final stdout line:
///   {"correct":true,"attempted":N,"failed":M,"metrics":{"name":{"value":V,"unit":"U"},...}}
/// Values are printed with 17 significant digits. Returns nullopt when a
/// name or unit is invalid, a name repeats, or a value is not finite, so a
/// malformed line is never printed.
[[nodiscard]] std::optional<std::string> result_line(bool correct, std::uint64_t attempted,
                                                     std::uint64_t failed,
                                                     const std::vector<Metric>& metrics);

} // namespace perfbench
