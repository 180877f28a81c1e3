#include "net/packet.hpp"

namespace pimlib::net {

Payload::Payload(std::vector<std::uint8_t> bytes) {
    if (!bytes.empty()) {
        bytes_ = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    }
}

std::string Packet::describe() const {
    std::string out = src.to_string() + " -> " + dst.to_string();
    out += " proto=" + std::to_string(static_cast<int>(proto));
    out += " ttl=" + std::to_string(ttl);
    out += " len=" + std::to_string(payload.size());
    if (seq != 0) out += " seq=" + std::to_string(seq);
    return out;
}

} // namespace pimlib::net
