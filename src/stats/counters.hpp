// Measurement plumbing shared by the whole simulation: per-link packet
// accounting, control-message accounting per router, and simple summary
// statistics. The paper's efficiency metric is "state, control
// message processing, and data packet processing required across the entire
// network" (§1) — these counters make that measurable.
//
// NetworkStats is now a facade over telemetry::Registry: every count lands
// in a named, labeled instrument (pimlib_data_*, pimlib_control_*), so the
// same numbers the legacy query API returns also flow out of the JSON /
// Prometheus / CSV exporters. The facade keeps resolved Counter* handles —
// per-segment ones in vectors indexed by segment id — so the per-packet
// cost is an indexed load and an increment.
//
// Per-segment flow concentration (Fig. 2(b)) is not counted per packet:
// graph::FlowLoad computes it offline and telemetry::TreeMonitor publishes
// it live as pimlib_tree_* gauges.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "telemetry/metrics.hpp"

namespace pimlib::stats {

/// Mean / min / max / stddev over a sample set.
struct Summary {
    double mean = 0;
    double stddev = 0;
    double min = 0;
    double max = 0;
    std::size_t count = 0;
};

Summary summarize(const std::vector<double>& samples);

/// Global counters for one simulation scenario. Owned by topo::Network;
/// every segment and router reports into it.
///
/// Reset semantics (multi-phase scenarios: warm up, reset, measure): the
/// query API reads since-the-last-reset values for everything *except*
/// per-protocol control totals, which stay cumulative — control traffic is
/// a whole-run protocol cost, not a phase artifact. Lifetime values remain
/// available through the registry (Counter::lifetime()).
class NetworkStats {
public:
    explicit NetworkStats(telemetry::Registry& registry);

    // ---- data plane ----
    void count_data_packet(int segment_id) { segment_data(segment_id).inc(); }
    void count_data_delivered() { data_delivered_->inc(); }
    void count_data_dropped_iif() { dropped_iif_->inc(); }
    void count_data_dropped_ttl() { dropped_ttl_->inc(); }
    void count_data_dropped_no_route() { dropped_no_route_->inc(); }
    /// A frame (data or control) destroyed by injected segment loss.
    void count_dropped_loss() { dropped_loss_->inc(); }

    // ---- control plane ----
    void count_control_message(const std::string& protocol);
    void count_control_on_segment(int segment_id) { segment_control(segment_id).inc(); }

    // ---- queries ----
    [[nodiscard]] std::uint64_t data_packets_on(int segment_id) const;
    [[nodiscard]] std::uint64_t total_data_packets() const;
    [[nodiscard]] std::uint64_t data_delivered() const { return data_delivered_->value(); }
    [[nodiscard]] std::uint64_t data_dropped_iif() const { return dropped_iif_->value(); }
    [[nodiscard]] std::uint64_t data_dropped_ttl() const { return dropped_ttl_->value(); }
    [[nodiscard]] std::uint64_t data_dropped_no_route() const { return dropped_no_route_->value(); }
    [[nodiscard]] std::uint64_t dropped_loss() const { return dropped_loss_->value(); }
    [[nodiscard]] std::size_t segments_carrying_data() const;
    [[nodiscard]] std::uint64_t control_messages(const std::string& protocol) const;
    [[nodiscard]] std::uint64_t total_control_messages() const;

    /// Starts a new measurement phase: zeroes (via counter epochs) all data
    /// counters, loss drops and per-segment control counts.
    /// Historically per-segment control counters and loss drops leaked
    /// across resets; they no longer do. Per-protocol control totals are
    /// deliberately cumulative (see class comment).
    void reset_data_counters();

private:
    /// Resolves a per-segment counter handle: a vector index once the
    /// segment has been seen, a registry lookup (in first-use order, so
    /// exporter output is stable) the first time.
    telemetry::Counter& segment_data(int segment_id) {
        const auto i = static_cast<std::size_t>(segment_id);
        if (i < data_by_segment_.size() && data_by_segment_[i] != nullptr) {
            return *data_by_segment_[i];
        }
        return register_segment(data_by_segment_, segment_id,
                                "pimlib_data_segment_packets_total",
                                "Data packets carried, per segment");
    }
    telemetry::Counter& segment_control(int segment_id) {
        const auto i = static_cast<std::size_t>(segment_id);
        if (i < control_by_segment_.size() && control_by_segment_[i] != nullptr) {
            return *control_by_segment_[i];
        }
        return register_segment(control_by_segment_, segment_id,
                                "pimlib_control_segment_messages_total",
                                "Control messages carried, per segment");
    }
    telemetry::Counter& register_segment(std::vector<telemetry::Counter*>& handles,
                                         int segment_id, const char* name,
                                         const char* help);

    telemetry::Registry* registry_;
    telemetry::Counter* data_delivered_;
    telemetry::Counter* dropped_iif_;
    telemetry::Counter* dropped_ttl_;
    telemetry::Counter* dropped_no_route_;
    telemetry::Counter* dropped_loss_;
    // Indexed by segment id; nullptr until the segment's first count.
    std::vector<telemetry::Counter*> data_by_segment_;
    std::vector<telemetry::Counter*> control_by_segment_;
    std::map<std::string, telemetry::Counter*> control_by_protocol_;
};

} // namespace pimlib::stats
