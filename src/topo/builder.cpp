#include "topo/builder.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace pimlib::topo {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
    throw std::runtime_error("line " + std::to_string(line) + ": " + message);
}

/// The words of `line` before a '#' comment. (Plain string scanning: the
/// checker builds a topology per explored branch.)
std::vector<std::string> tokenize(std::string_view line) {
    constexpr std::string_view kSpace = " \t\r\v\f";
    std::vector<std::string> tokens;
    for (std::size_t i = line.find_first_not_of(kSpace); i != std::string_view::npos;
         i = line.find_first_not_of(kSpace, i)) {
        const std::size_t end = std::min(line.find_first_of(kSpace, i), line.size());
        if (line[i] == '#') break;
        tokens.emplace_back(line.substr(i, end - i));
        i = end;
    }
    return tokens;
}

/// Parses "delay=5ms" / "delay=250us" / "metric=3" style options.
struct LinkOptions {
    sim::Time delay = sim::kMillisecond;
    int metric = 1;
};

LinkOptions parse_link_options(int line, const std::vector<std::string>& tokens,
                               std::size_t from) {
    LinkOptions opts;
    for (std::size_t i = from; i < tokens.size(); ++i) {
        const std::string& t = tokens[i];
        const auto eq = t.find('=');
        if (eq == std::string::npos) fail(line, "expected key=value, got '" + t + "'");
        const std::string key = t.substr(0, eq);
        const std::string value = t.substr(eq + 1);
        if (key == "metric") {
            int metric = 0;
            auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), metric);
            if (ec != std::errc{} || p != value.data() + value.size() || metric <= 0) {
                fail(line, "bad metric '" + value + "'");
            }
            opts.metric = metric;
        } else if (key == "delay") {
            long long amount = 0;
            auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), amount);
            if (ec != std::errc{} || amount < 0) fail(line, "bad delay '" + value + "'");
            const std::string unit(p, value.data() + value.size());
            if (unit == "ms") {
                opts.delay = amount * sim::kMillisecond;
            } else if (unit == "us") {
                opts.delay = amount * sim::kMicrosecond;
            } else if (unit == "s") {
                opts.delay = amount * sim::kSecond;
            } else {
                fail(line, "bad delay unit '" + unit + "' (use s, ms or us)");
            }
        } else {
            fail(line, "unknown option '" + key + "'");
        }
    }
    return opts;
}

} // namespace

TopologyBuilder TopologyBuilder::parse(Network& network, std::string_view spec) {
    TopologyBuilder b(network);
    int line = 0;
    for (std::size_t begin = 0; begin < spec.size();) {
        const std::size_t end = std::min(spec.find('\n', begin), spec.size());
        const auto tokens = tokenize(spec.substr(begin, end - begin));
        begin = end + 1;
        ++line;
        if (tokens.empty()) continue;
        const std::string& directive = tokens.front();

        auto need_router = [&](const std::string& name) -> Router& {
            auto it = b.routers_.find(name);
            if (it == b.routers_.end()) fail(line, "unknown router '" + name + "'");
            return *it->second;
        };
        auto need_lan = [&](const std::string& name) -> Segment& {
            auto it = b.lans_.find(name);
            if (it == b.lans_.end()) fail(line, "unknown lan '" + name + "'");
            return *it->second;
        };
        auto fresh_name = [&](const std::string& name) {
            if (b.routers_.contains(name) || b.hosts_.contains(name) ||
                b.lans_.contains(name)) {
                fail(line, "duplicate name '" + name + "'");
            }
        };

        if (directive == "router") {
            if (tokens.size() < 2) fail(line, "router needs at least one name");
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                fresh_name(tokens[i]);
                b.routers_[tokens[i]] = &network.add_router(tokens[i]);
            }
        } else if (directive == "lan") {
            if (tokens.size() < 2) fail(line, "lan needs a name");
            fresh_name(tokens[1]);
            std::vector<Router*> attached;
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                attached.push_back(&need_router(tokens[i]));
            }
            b.lans_[tokens[1]] = &network.add_lan(attached);
        } else if (directive == "host") {
            if (tokens.size() != 3) fail(line, "usage: host NAME LAN");
            fresh_name(tokens[1]);
            b.hosts_[tokens[1]] = &network.add_host(tokens[1], need_lan(tokens[2]));
        } else if (directive == "link") {
            if (tokens.size() < 3) fail(line, "usage: link A B [delay=..] [metric=..]");
            Router& a = need_router(tokens[1]);
            Router& bb = need_router(tokens[2]);
            if (&a == &bb) fail(line, "link endpoints must differ");
            const LinkOptions opts = parse_link_options(line, tokens, 3);
            network.add_link(a, bb, opts.delay, opts.metric);
        } else if (directive == "attach") {
            if (tokens.size() != 3) fail(line, "usage: attach ROUTER LAN");
            network.attach_to_lan(need_router(tokens[1]), need_lan(tokens[2]));
        } else {
            fail(line, "unknown directive '" + directive + "'");
        }
    }
    return b;
}

Router& TopologyBuilder::router(const std::string& name) const {
    auto it = routers_.find(name);
    if (it == routers_.end()) throw std::out_of_range("no router named " + name);
    return *it->second;
}

Host& TopologyBuilder::host(const std::string& name) const {
    auto it = hosts_.find(name);
    if (it == hosts_.end()) throw std::out_of_range("no host named " + name);
    return *it->second;
}

Segment& TopologyBuilder::lan(const std::string& name) const {
    auto it = lans_.find(name);
    if (it == lans_.end()) throw std::out_of_range("no lan named " + name);
    return *it->second;
}

Segment& TopologyBuilder::link(const std::string& a, const std::string& b) const {
    Segment* segment = network_->find_link(router(a), router(b));
    if (segment == nullptr) {
        throw std::out_of_range("no link between " + a + " and " + b);
    }
    return *segment;
}

} // namespace pimlib::topo
