#include "topo/segment.hpp"

#include "provenance/provenance.hpp"
#include "topo/network.hpp"
#include "topo/node.hpp"

namespace pimlib::topo {
namespace {

/// Both loss paths (checker-forced and injected) destroy the frame on the
/// wire: record the drop against the sender, naming the segment.
void record_segment_loss(Network& network, const Node& sender, int segment_id,
                         const net::Packet& packet) {
    provenance::Recorder* rec = network.provenance();
    if (rec == nullptr || !rec->enabled() || packet.pid == 0) return;
    provenance::HopRecord hop;
    hop.pid = packet.pid;
    hop.at = network.simulator().now();
    hop.node = sender.id();
    hop.segment = segment_id;
    hop.src = packet.src;
    hop.group = packet.dst;
    hop.seq = packet.seq;
    hop.drop = provenance::DropReason::kSegmentLoss;
    hop.ttl = packet.ttl;
    rec->append(hop);
}

} // namespace

Segment::Segment(Network& network, int id, net::Prefix prefix, sim::Time delay, int metric)
    : network_(&network), id_(id), prefix_(prefix), delay_(delay), metric_(metric),
      loss_rng_(network.derived_seed(
          static_cast<std::uint32_t>(id),
          Network::kSegmentStreamTag + static_cast<std::uint64_t>(id))) {}

void Segment::add_attachment(Node& node, int ifindex) {
    attachments_.push_back(Attachment{&node, ifindex});
}

std::vector<Node*> Segment::peers_of(const Node& node) const {
    std::vector<Node*> out;
    for (const Attachment& att : attachments_) {
        if (att.node != &node) out.push_back(att.node);
    }
    return out;
}

void Segment::set_up(bool up) {
    if (up_ == up) return;
    up_ = up;
    network_->notify_topology_changed();
}

void Segment::set_loss_rate(double rate) {
    loss_rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
}

void Segment::transmit(const Node& sender, const net::Frame& frame) {
    if (!up_) return;

    if (network_->has_packet_taps()) network_->dispatch_packet_taps(*this, frame);

    // Account the transmission once per segment crossing (a LAN multicast
    // counts once no matter how many stations hear it, like a real wire).
    if (frame.packet.proto == net::IpProto::kUdp) {
        network_->stats().count_data_packet(id_);
    } else {
        network_->stats().count_control_on_segment(id_);
    }

    // Checker-driven loss: with a choice source installed, every
    // transmission is a decision point — alternative 0 delivers, alternative
    // 1 vanishes on the wire. The checker bounds how many drop branches it
    // actually explores; without a source this path is never taken.
    if (sim::ChoiceSource* choices = network_->simulator().choice_source()) {
        if (choices->choose(
                2, sim::ChoicePoint{sim::ChoicePoint::Kind::kFrameLoss, id_,
                                    frame.packet.proto != net::IpProto::kUdp}) ==
            1) {
            ++frames_lost_;
            network_->stats().count_dropped_loss();
            record_segment_loss(*network_, sender, id_, frame.packet);
            return;
        }
    }

    // Injected loss: the transmission happened (and was accounted and
    // tapped), but no station hears it.
    if (loss_rate_ > 0.0) {
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        if (coin(loss_rng_) < loss_rate_) {
            ++frames_lost_;
            network_->stats().count_dropped_loss();
            record_segment_loss(*network_, sender, id_, frame.packet);
            return;
        }
    }

    DeliveryPool* pool = &network_->deliveries();
    for (std::uint32_t i = 0; i < attachments_.size(); ++i) {
        const Attachment& att = attachments_[i];
        if (att.node == &sender) continue;
        if (frame.link_dst.has_value() &&
            att.node->interface(att.ifindex).address != *frame.link_dst) {
            continue;
        }
        const std::uint32_t slot = pool->park(*this, i, frame.packet);
        network_->simulator().schedule(delay_, [pool, slot] { pool->fire(slot); });
    }
}

void Segment::arrive(std::uint32_t attachment, const net::Packet& packet) {
    if (!up_) return;
    const Attachment& to = attachments_[attachment];
    if (!to.node->interface(to.ifindex).up) return;
    to.node->receive(to.ifindex, packet);
}

std::uint32_t DeliveryPool::park(Segment& segment, std::uint32_t attachment,
                                 const net::Packet& packet) {
    if (free_.empty()) {
        slots_.push_back(InFlight{&segment, attachment, packet});
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = InFlight{&segment, attachment, packet};
    return slot;
}

void DeliveryPool::fire(std::uint32_t slot) {
    // Move the packet out and free the slot before arrive(): the receiver
    // may transmit again, and parking a new delivery can grow slots_.
    InFlight& parked = slots_[slot];
    Segment* segment = parked.segment;
    const std::uint32_t attachment = parked.attachment;
    const net::Packet packet = std::move(parked.packet);
    free_.push_back(slot);
    segment->arrive(attachment, packet);
}

} // namespace pimlib::topo
