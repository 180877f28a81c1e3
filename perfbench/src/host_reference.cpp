#include "host_reference.hpp"

#include <time.h>

#include <algorithm>
#include <numeric>

namespace perfbench {
namespace {

// A batch: dependent loads through a ring four times the size of a core's
// L2, then ordered-map churn, each about half of the batch's ~2 ms.
constexpr std::size_t kRingBytes = 8u << 20;
constexpr int kChaseSteps = 6000;
constexpr int kMapEntries = 60000;
constexpr int kMapOps = 600;
constexpr std::uint64_t kKeySpace = 1000000;

double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

} // namespace

HostReference::HostReference() : rng_(1994), map_(&pool_) {
    // One random cycle through every slot, so each load depends on the one
    // before and lands on an unpredictable line.
    const std::size_t n = kRingBytes / sizeof(std::uint32_t);
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), rng_);
    ring_.resize(n);
    for (std::size_t i = 0; i < n; ++i) ring_[order[i]] = order[(i + 1) % n];
    for (int i = 0; i < kMapEntries; ++i) map_[rng_() % kKeySpace] = static_cast<std::uint64_t>(i);
}

double HostReference::run_ms() {
    const double t0 = thread_cpu_ms();
    auto p = static_cast<std::uint32_t>(sink_ % ring_.size());
    for (int i = 0; i < kChaseSteps; ++i) p = ring_[p];
    sink_ += p;
    for (int i = 0; i < kMapOps; ++i) {
        const auto it = map_.lower_bound(rng_() % kKeySpace);
        if (it != map_.end()) map_.erase(it);
        map_[rng_() % kKeySpace] = sink_;
    }
    sink_ += map_.size();
    return thread_cpu_ms() - t0;
}

} // namespace perfbench
