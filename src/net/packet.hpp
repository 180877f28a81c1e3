// Network-layer packets and link-layer frames as exchanged over simulated
// segments. Payloads are opaque, immutable wire bytes produced by the
// per-protocol codecs (see pim/messages.hpp etc.) and shared by every copy
// of a packet.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"

namespace pimlib::net {

/// IP protocol numbers used in the simulation. IGMP carries PIM and DVMRP
/// control traffic, matching the 1994-era encapsulation; the unicast routing
/// protocols get private numbers for simplicity (the real ones ride on UDP
/// which we do not model).
enum class IpProto : std::uint8_t {
    kIgmp = 2,        // IGMP, PIM v1 messages, DVMRP messages
    kCbt = 7,         // CBT control
    kUdp = 17,        // application data payloads
    kOspf = 89,       // link-state unicast routing
    kRip = 200,       // distance-vector unicast routing (private number)
};

/// Immutable, reference-counted packet bytes (the sk_buff data/header
/// split): copying a Payload shares the buffer, so replicating a packet to
/// every oif and every station on a LAN copies no bytes. Nothing can change
/// the bytes once built; per-hop header fields (ttl, seq, pid) live in
/// Packet by value. An empty payload holds no buffer at all.
class Payload {
public:
    Payload() = default;
    /// Implicit so codec output (`msg.encode()`) assigns straight in.
    Payload(std::vector<std::uint8_t> bytes);
    Payload(std::initializer_list<std::uint8_t> bytes)
        : Payload(std::vector<std::uint8_t>(bytes)) {}

    [[nodiscard]] bool empty() const { return bytes_ == nullptr; }
    [[nodiscard]] std::size_t size() const { return empty() ? 0 : bytes_->size(); }
    [[nodiscard]] const std::uint8_t* data() const {
        return empty() ? nullptr : bytes_->data();
    }
    [[nodiscard]] std::uint8_t front() const { return bytes_->front(); }
    // Contiguous range: converts implicitly to std::span<const uint8_t>,
    // which is what every codec's decode() takes.
    [[nodiscard]] const std::uint8_t* begin() const { return data(); }
    [[nodiscard]] const std::uint8_t* end() const { return data() + size(); }

private:
    std::shared_ptr<const std::vector<std::uint8_t>> bytes_;
};

/// A network-layer packet. `payload` is already-encoded wire bytes.
struct Packet {
    Ipv4Address src;
    Ipv4Address dst;
    IpProto proto = IpProto::kUdp;
    std::uint8_t ttl = 64;
    Payload payload;

    /// Sequence number stamped by traffic sources so receivers can detect
    /// loss/duplication in tests; 0 for control traffic.
    std::uint64_t seq = 0;

    /// Provenance id (see provenance::packet_id): stamped at origination,
    /// carried through replication and restamped across register/DataEncap
    /// encapsulation so one id names one end-to-end data packet. 0 means
    /// unstamped (control traffic) — the flight recorder skips it.
    std::uint64_t pid = 0;

    [[nodiscard]] bool is_multicast() const { return dst.is_multicast(); }
    [[nodiscard]] std::string describe() const;
};

/// A link-layer frame: a packet plus where on the segment it is going.
/// `link_dst` unset means link-layer broadcast/multicast — every other
/// attachment on the segment receives it. When set, only the attachment
/// owning that interface address receives it (our stand-in for unicast MAC
/// addressing; ARP is not modeled).
struct Frame {
    std::optional<Ipv4Address> link_dst;
    Packet packet;
};

} // namespace pimlib::net
