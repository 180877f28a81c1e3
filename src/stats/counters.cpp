#include "stats/counters.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pimlib::stats {

Summary summarize(const std::vector<double>& samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    double sum = 0;
    s.min = samples.front();
    s.max = samples.front();
    for (double v : samples) {
        sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
    }
    s.mean = sum / static_cast<double>(samples.size());
    double var = 0;
    for (double v : samples) var += (v - s.mean) * (v - s.mean);
    s.stddev = samples.size() > 1
                   ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                   : 0.0;
    return s;
}

NetworkStats::NetworkStats(telemetry::Registry& registry)
    : registry_(&registry),
      data_delivered_(&registry.counter("pimlib_data_delivered_total", {},
                                        "Data packets delivered to member hosts")),
      dropped_iif_(&registry.counter("pimlib_data_dropped_total",
                                     {{"reason", "iif"}},
                                     "Data packets dropped, by reason")),
      dropped_ttl_(&registry.counter("pimlib_data_dropped_total",
                                     {{"reason", "ttl"}})),
      dropped_no_route_(&registry.counter("pimlib_data_dropped_total",
                                          {{"reason", "no_route"}})),
      dropped_loss_(&registry.counter("pimlib_data_dropped_total",
                                      {{"reason", "loss"}})) {}

telemetry::Counter& NetworkStats::register_segment(
    std::vector<telemetry::Counter*>& handles, int segment_id, const char* name,
    const char* help) {
    if (segment_id < 0) throw std::invalid_argument("negative segment id");
    const auto i = static_cast<std::size_t>(segment_id);
    if (i >= handles.size()) handles.resize(i + 1, nullptr);
    handles[i] = &registry_->counter(name, {{"segment", std::to_string(segment_id)}}, help);
    return *handles[i];
}

void NetworkStats::count_control_message(const std::string& protocol) {
    auto it = control_by_protocol_.find(protocol);
    if (it == control_by_protocol_.end()) {
        it = control_by_protocol_
                 .emplace(protocol, &registry_->counter(
                                        "pimlib_control_messages_total",
                                        {{"protocol", protocol}},
                                        "Control messages processed, per protocol"))
                 .first;
    }
    it->second->inc();
}

std::uint64_t NetworkStats::data_packets_on(int segment_id) const {
    const auto i = static_cast<std::size_t>(segment_id);
    if (i >= data_by_segment_.size() || data_by_segment_[i] == nullptr) return 0;
    return data_by_segment_[i]->value();
}

std::uint64_t NetworkStats::total_data_packets() const {
    std::uint64_t total = 0;
    for (const telemetry::Counter* counter : data_by_segment_) {
        if (counter != nullptr) total += counter->value();
    }
    return total;
}

std::size_t NetworkStats::segments_carrying_data() const {
    std::size_t n = 0;
    for (const telemetry::Counter* counter : data_by_segment_) {
        if (counter != nullptr && counter->value() > 0) ++n;
    }
    return n;
}

std::uint64_t NetworkStats::control_messages(const std::string& protocol) const {
    auto it = control_by_protocol_.find(protocol);
    return it == control_by_protocol_.end() ? 0 : it->second->value();
}

std::uint64_t NetworkStats::total_control_messages() const {
    std::uint64_t total = 0;
    for (const auto& [proto, counter] : control_by_protocol_) {
        total += counter->value();
    }
    return total;
}

void NetworkStats::reset_data_counters() {
    data_delivered_->begin_epoch();
    dropped_iif_->begin_epoch();
    dropped_ttl_->begin_epoch();
    dropped_no_route_->begin_epoch();
    dropped_loss_->begin_epoch();
    for (telemetry::Counter* counter : data_by_segment_) {
        if (counter != nullptr) counter->begin_epoch();
    }
    for (telemetry::Counter* counter : control_by_segment_) {
        if (counter != nullptr) counter->begin_epoch();
    }
    // Per-protocol control totals intentionally survive (class comment).
}

} // namespace pimlib::stats
