// A fixed reference kernel the benchmark times after every window slice, so
// each slice's CPU time can be read against how fast this host ran at that
// moment.
//
// On a shared host the CPU cost of the same work drifts by 20-50% over
// minutes as other tenants contend for the caches and memory system
// (NOTES.md, steadiness record). The kernel below does the kinds of memory
// access that make the workloads sensitive to that contention: dependent
// loads through an 8 MB ring and an ordered map's insert/erase. It is the
// benchmark's own code, built without pimlib and allocating from its own
// pool after construction, so no change to the program can change what it
// costs; only the host can.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <random>
#include <vector>

namespace perfbench {

class HostReference {
public:
    HostReference();

    /// Runs one fixed batch of the kernel; returns its thread CPU time in ms.
    double run_ms();

    /// A value derived from every batch's results, so the work cannot be
    /// optimised away; the same batches give the same checksum.
    [[nodiscard]] std::uint64_t checksum() const { return sink_; }

private:
    std::mt19937_64 rng_;
    std::vector<std::uint32_t> ring_;
    std::pmr::unsynchronized_pool_resource pool_;
    std::pmr::map<std::uint64_t, std::uint64_t> map_;
    std::uint64_t sink_ = 0;
};

/// A batch's CPU time, in ms, on the nominal host: the 4-vCPU VM of
/// NOTES.md in a quiet stretch. Host time is reported as it would read
/// there: raw × nominal ÷ the reference measured alongside it.
constexpr double kReferenceNominalMs = 2.5;

} // namespace perfbench
