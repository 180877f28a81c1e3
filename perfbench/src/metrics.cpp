#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>

namespace perfbench {
namespace {

bool name_char(char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
}

} // namespace

std::size_t samples_beyond(std::size_t n, double q) {
    if (n == 0 || q < 0.0 || q > 1.0) return 0;
    // The index expression of bench::percentile, so the two agree exactly.
    const auto index = static_cast<std::size_t>(q * (static_cast<double>(n) - 1.0));
    return n - 1 - index;
}

std::size_t min_samples_for(double q) {
    if (!(q >= 0.0 && q < 1.0)) return SIZE_MAX; // no sample has ten beyond its maximum
    std::size_t n = kMinSamplesBeyond;
    while (samples_beyond(n, q) < kMinSamplesBeyond) ++n;
    return n;
}

void SliceLog::add(double cpu_seconds, double work_units) {
    cpu_s_ += cpu_seconds;
    work_ += work_units;
    cpu_ms_.push_back(work_units > 0 ? cpu_seconds * 1e3 / work_units : 0.0);
}

double SliceLog::work_per_cpu_second() const { return cpu_s_ > 0 ? work_ / cpu_s_ : 0.0; }

std::vector<double> scale_to_nominal(const std::vector<double>& cost,
                                     const std::vector<double>& reference_ms,
                                     std::size_t radius, double nominal_ms) {
    if (cost.size() != reference_ms.size()) return {};
    std::vector<double> scaled;
    std::vector<double> near;
    for (std::size_t i = 0; i < cost.size(); ++i) {
        const std::size_t lo = i > radius ? i - radius : 0;
        const std::size_t hi = std::min(cost.size(), i + radius + 1);
        near.assign(reference_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                    reference_ms.begin() + static_cast<std::ptrdiff_t>(hi));
        // The lower median, as bench::percentile(near, 0.5) picks it.
        const auto mid = near.begin() + static_cast<std::ptrdiff_t>((near.size() - 1) / 2);
        std::nth_element(near.begin(), mid, near.end());
        scaled.push_back(*mid > 0 ? cost[i] * nominal_ms / *mid : cost[i]);
    }
    return scaled;
}

std::optional<double> failed_share(std::uint64_t failed, std::uint64_t attempted) {
    if (attempted == 0) return std::nullopt;
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

bool valid_metric_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    const char first = name.front();
    if (!((first >= 'A' && first <= 'Z') || (first >= 'a' && first <= 'z') ||
          (first >= '0' && first <= '9'))) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
    if (unit.empty() || unit.size() > 16) return false;
    return std::all_of(unit.begin(), unit.end(),
                       [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

ExploreEnd classify_explore_end(std::size_t runs, std::size_t max_runs,
                                bool frontier_exhausted) {
    if (runs >= max_runs) return ExploreEnd::kMaxRuns;
    if (frontier_exhausted) return ExploreEnd::kFrontier;
    return ExploreEnd::kBudget;
}

const char* to_string(ExploreEnd end) {
    switch (end) {
    case ExploreEnd::kMaxRuns: return "max_runs";
    case ExploreEnd::kFrontier: return "frontier";
    case ExploreEnd::kBudget: return "time_budget";
    }
    return "?";
}

std::optional<std::string> result_line(bool correct, std::uint64_t attempted,
                                       std::uint64_t failed,
                                       const std::vector<Metric>& metrics) {
    std::set<std::string> seen;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
                  correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    std::string out = buf;
    out += "\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (!valid_metric_name(m.name) || !valid_unit(m.unit) || !std::isfinite(m.value) ||
            !seen.insert(m.name).second) {
            return std::nullopt;
        }
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        if (i > 0) out += ',';
        out += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
