#include "scenario/script.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string_view>
#include <stdexcept>

#include "check/scenario.hpp"
#include "fault/fault_injector.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/profiler/export.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/segment.hpp"
#include "trace/timeline.hpp"

namespace pimlib::scenario {
namespace {

[[noreturn]] void fail(int line, const std::string& message) {
    throw std::runtime_error("line " + std::to_string(line) + ": " + message);
}

/// Every number in a script goes through here: the whole token must parse
/// as a T within [lo, hi], or the script fails at `line`.
template <typename T>
T parse_number(int line, const std::string& text, const std::string& what,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
        fail(line, "bad " + what + " '" + text + "'");
    }
    return value;
}

/// Script times stay below this (about 11.6 simulated days), so time
/// arithmetic on them cannot overflow.
constexpr sim::Time kMaxTime = 1'000'000 * sim::kSecond;

sim::Time parse_time(int line, const std::string& text) {
    if (!text.empty() && text.front() == '-') fail(line, "negative time '" + text + "'");
    const std::size_t split = std::min(text.find_first_not_of("0123456789"), text.size());
    const std::string unit = text.substr(split);
    const sim::Time scale = unit == "s"    ? sim::kSecond
                            : unit == "ms" ? sim::kMillisecond
                            : unit == "us" ? sim::kMicrosecond
                                           : 0;
    if (scale == 0) fail(line, "bad time unit in '" + text + "' (use s/ms/us)");
    sim::Time amount = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + split, amount);
    if (split == 0 || ec != std::errc{} || amount > kMaxTime / scale) {
        fail(line, "bad time '" + text + "' (at most 1000000s)");
    }
    return scale * amount;
}

net::GroupAddress parse_group(int line, const std::string& text) {
    auto addr = net::Ipv4Address::parse(text);
    if (!addr || !addr->is_multicast()) fail(line, "bad group '" + text + "'");
    return net::GroupAddress{*addr};
}

/// Whitespace-separated words of `text`. (Plain string scanning: the
/// parser runs in every checker process, which otherwise never touches
/// the iostream machinery.)
std::vector<std::string> words(std::string_view text) {
    constexpr std::string_view kSpace = " \t\r\n\v\f";
    std::vector<std::string> out;
    for (std::size_t i = text.find_first_not_of(kSpace); i != std::string_view::npos;
         i = text.find_first_not_of(kSpace, i)) {
        const std::size_t end = std::min(text.find_first_of(kSpace, i), text.size());
        out.emplace_back(text.substr(i, end - i));
        i = end;
    }
    return out;
}

/// `text` cut at every `sep`.
std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> out;
    for (std::size_t begin = 0;; ) {
        const std::size_t end = std::min(text.find(sep, begin), text.size());
        out.emplace_back(text.substr(begin, end - begin));
        if (end == text.size()) return out;
        begin = end + 1;
    }
}

/// One script line, split on whitespace. A word starting with '#' opens a
/// comment that runs to the end of the line.
class Line {
public:
    Line(int number, std::string_view text) : number(number) {
        for (std::string& word : words(text)) {
            if (word.front() == '#') break;
            words_.push_back(std::move(word));
        }
    }

    /// Next word, or "" at the end of the line.
    std::string next() { return at_ < words_.size() ? words_[at_++] : ""; }
    /// Next token; the script fails when the line has none left.
    std::string need(const std::string& what) {
        std::string token = next();
        if (token.empty()) fail(number, "missing " + what);
        return token;
    }
    template <typename T>
    T count(const std::string& what, T lo, T hi) {
        return parse_number<T>(number, need(what), what, lo, hi);
    }
    /// An optional trailing number: `fallback` when the line ends here.
    template <typename T>
    T count_or(T fallback, const std::string& what, T lo, T hi) {
        const std::string token = next();
        return token.empty() ? fallback : parse_number<T>(number, token, what, lo, hi);
    }
    sim::Time time(const std::string& what) { return parse_time(number, need(what)); }
    net::GroupAddress group() { return parse_group(number, need("group")); }
    /// on|off flag.
    bool flag(const std::string& directive) {
        const std::string value = next();
        if (value != "on" && value != "off") fail(number, directive + " takes on|off");
        return value == "on";
    }
    /// Fails when tokens remain, so typos and misplaced options do not pass
    /// silently.
    void done() {
        const std::string extra = next();
        if (!extra.empty()) fail(number, "unexpected '" + extra + "'");
    }

    const int number;

private:
    std::vector<std::string> words_;
    std::size_t at_ = 0;
};

/// Splits a "key=value" option.
std::pair<std::string, std::string> split_option(int line, const std::string& opt) {
    const std::size_t eq = opt.find('=');
    if (eq == std::string::npos) fail(line, "expected key=value, got '" + opt + "'");
    return {opt.substr(0, eq), opt.substr(eq + 1)};
}

/// "A-B" with 1 <= A <= B.
std::pair<std::uint64_t, std::uint64_t> parse_range(int line, const std::string& text) {
    const std::size_t dash = text.find('-');
    if (dash == std::string::npos) fail(line, "bad range '" + text + "' (use A-B)");
    const auto first = parse_number<std::uint64_t>(line, text.substr(0, dash), "range start", 1);
    return {first, parse_number<std::uint64_t>(line, text.substr(dash + 1), "range end", first)};
}

double ms(sim::Time t) { return static_cast<double>(t) / sim::kMillisecond; }

void dump_metrics(World& w, const std::string& format) {
    std::fprintf(w.out, "--- metrics at t=%.1fms (%s) ---\n", ms(w.net.simulator().now()),
                 format.c_str());
    w.net.telemetry().refresh_timer_gauges();
    if (prof::enabled()) {
        prof::publish_profile(prof::snapshot(), w.net.telemetry().registry());
    }
    const telemetry::Registry& reg = w.net.telemetry().registry();
    std::fprintf(w.out, "%s", format == "json" ? telemetry::to_json(reg).c_str()
                                               : telemetry::to_prometheus(reg).c_str());
    if (format == "json") std::fprintf(w.out, "\n");
}

void dump_events(World& w) {
    std::fprintf(w.out, "--- event log at t=%.1fms ---\n%s", ms(w.net.simulator().now()),
                 w.net.telemetry().events().dump().c_str());
}

void take_snapshot(World& w, bool print) {
    telemetry::Hub& hub = w.net.telemetry();
    telemetry::MribSnapshot snap = w.stack->capture_mrib();
    if (print) {
        std::fprintf(w.out, "--- mrib snapshot at t=%.1fms (%zu entries) ---\n", ms(snap.at),
                     snap.entry_count());
        const telemetry::MribSnapshot* prev = hub.last_snapshot();
        if (prev == nullptr) {
            std::fprintf(w.out, "%s", snap.to_text().c_str());
        } else {
            const telemetry::MribDiff d = telemetry::diff(*prev, snap);
            std::fprintf(w.out, "%s", d.empty() ? "  (no structural change)\n"
                                                : d.to_text().c_str());
        }
    }
    hub.store_snapshot(std::move(snap));
}

void mtrace(World& w, const std::string& src_host, const std::string& dst_host,
            net::GroupAddress group) {
    std::fprintf(w.out, "--- mtrace %s -> %s group %s at t=%.1fms ---\n", src_host.c_str(),
                 dst_host.c_str(), group.to_string().c_str(), ms(w.net.simulator().now()));
    if (!w.recorder) {
        std::fprintf(w.out, "  (provenance off; add 'provenance on' to the script)\n");
        return;
    }
    const provenance::Recorder::TraceResult result =
        w.recorder->trace(w.host_ref(src_host).address(), group.address(), dst_host);
    std::fprintf(w.out, "%s", w.recorder->format_trace(result).c_str());
}

void dump_provenance(World& w) {
    std::fprintf(w.out, "--- provenance dump at t=%.1fms ---\n", ms(w.net.simulator().now()));
    if (!w.recorder) {
        std::fprintf(w.out, "  (provenance off; add 'provenance on' to the script)\n");
        return;
    }
    std::fprintf(w.out, "%s\n", w.recorder->dump_json().c_str());
    const std::string drops = w.recorder->drop_summary();
    if (!drops.empty()) std::fprintf(w.out, "drops: %s\n", drops.c_str());
}

/// Every router's MRIB entries, through the one capture all five backends
/// implement.
void dump_state(World& w) {
    std::fprintf(w.out, "--- state at t=%.1fms ---\n", ms(w.net.simulator().now()));
    for (const telemetry::RouterMrib& mrib : w.stack->capture_mrib().routers) {
        for (const telemetry::EntrySnapshot& e : mrib.entries) {
            std::fprintf(w.out, "  %-10s %s\n", mrib.router.c_str(), e.describe().c_str());
        }
    }
}

/// An expectation's check: "" when it holds, otherwise what the run showed.
using Check = std::function<std::string(World&)>;

struct Expectation {
    int line;
    std::string text; // "expect …" as written
    Check check;
    bool checked = false;
};

/// "N" (exactly) or ">=N" (at least).
struct CountBound {
    std::size_t n = 0;
    bool at_least = false;

    [[nodiscard]] bool holds(std::size_t value) const {
        return at_least ? value >= n : value == n;
    }
};

struct TransitStubSpec {
    graph::TransitStubOptions opts;
    workload::MaterializeOptions mat;
    std::uint64_t graph_seed = 1;
};

} // namespace

class Script::Impl {
public:
    explicit Impl(std::FILE* out) : w_(out), config_(StackConfig{}.scaled(0.01)) {}
    ~Impl() {
        // The profiler's time source points at this run's simulator.
        if (profiling()) prof::set_time_source(nullptr, nullptr);
    }

    void parse(const std::string& text);
    ScriptResult run();
    /// A world with only its topology built.
    [[nodiscard]] std::unique_ptr<World> make_world() const;
    void build(World& w, const std::string& mutation) const;
    void schedule(World& w, bool expectations) const;

    World w_; // the world names are checked against while parsing
    sim::Time run_until_ = 0;
    std::vector<FaultSlot> fault_slots_;
    std::vector<Oracle> oracles_;
    std::vector<std::pair<std::string, net::GroupAddress>> joins_;
    std::string sender_;

private:
    struct PendingRp {
        net::GroupAddress group;
        std::vector<std::string> routers;
    };
    struct PendingCandidateBsr {
        std::string router;
        std::uint8_t priority;
    };
    struct PendingCandidateRp {
        net::Prefix range;
        std::string router;
        std::uint8_t priority;
    };
    struct SenderSpec {
        std::string host;
        net::GroupAddress group;
        workload::OnOffSenderConfig cfg;
    };
    struct Event {
        sim::Time at;
        std::function<void(World&)> action;
        /// Runs while the events are scheduled and queues its own work from
        /// `at` on (send streams), as a program calling Host::send_stream
        /// up front would.
        bool queues_itself = false;
        bool expectation = false;
    };

    void directive(Line& l, const std::string& word);
    void transit_stub(Line& l);
    void workload(Line& l);
    void event(Line& l, sim::Time at, const std::string& verb);
    [[nodiscard]] Event action(Line& l, sim::Time at, const std::string& verb);
    void fault_slot(Line& l);
    [[nodiscard]] FaultCandidate fault_candidate(int line, sim::Time at, const std::string& text);
    void oracle(Line& l);
    void expect(Line& l, sim::Time at);
    void make_topology(World& w) const;
    void need_topology(int line, const std::string& what) const {
        if (!topology_done_) fail(line, "'" + what + "' before topology block");
    }
    [[nodiscard]] bool profiling() const { return want_profile_ || !profile_path_.empty(); }
    void snapshot_tick(World& w) const;
    void report();

    StackConfig config_;
    std::string protocol_ = "pim-sm";
    std::string topo_spec_;
    std::optional<TransitStubSpec> transit_stub_;
    bool in_topology_ = false;
    bool topology_done_ = false;
    std::vector<PendingRp> rps_;
    std::vector<PendingCandidateBsr> candidate_bsrs_;
    std::vector<PendingCandidateRp> candidate_rps_;
    std::uint64_t global_seed_ = 0;
    int churn_line_ = 0; // 0: no churn workload
    workload::ChurnConfig churn_cfg_;
    int bank_capacity_ = 1000;
    std::vector<SenderSpec> sender_specs_;
    pim::SptPolicy policy_ = pim::SptPolicy::immediate();
    bool want_trace_ = false;
    bool want_telemetry_ = true;
    bool want_provenance_ = false;
    std::size_t provenance_capacity_ = provenance::RecorderConfig{}.ring_capacity;
    bool want_watchdog_ = false;
    int no_violation_line_ = 0; // first 'expect no-violation', 0 if none
    bool loss_possible_ = false; // faults/loss/leaves scripted: gaps are expected
    sim::Time monitor_interval_ = 0;
    std::string timeline_path_;
    bool want_profile_ = false;
    std::size_t profile_capacity_ = 0; // 0: keep the profiler's default
    std::string profile_path_;
    sim::Time snapshot_every_ = 0;
    std::vector<Event> events_;
    std::vector<Expectation> expectations_;
    std::vector<std::string> failures_;
};

void Script::Impl::parse(const std::string& text) {
    const std::vector<std::string> lines = split(text, '\n');
    int line = 0;
    for (const std::string& raw : lines) {
        if (&raw == &lines.back() && raw.empty()) break; // text ended in a newline
        ++line;
        Line l(line, raw);
        const std::string word = l.next();
        try {
            if (in_topology_) {
                if (word != "end") {
                    topo_spec_ += raw + "\n";
                    continue;
                }
                in_topology_ = false;
                topology_done_ = true;
                make_topology(w_);
                l.done();
            } else if (!word.empty()) {
                directive(l, word);
                l.done();
            }
        } catch (const std::exception& e) {
            // Name lookups throw without a line; attach this one.
            const std::string what = e.what();
            if (what.rfind("line ", 0) == 0) throw;
            fail(line, what);
        }
    }
    if (in_topology_) fail(line, "topology block has no 'end'");
    if (!topology_done_) fail(line, "missing topology block");
    if (run_until_ == 0) fail(line, "missing 'run' directive");
    for (const Oracle& o : oracles_) {
        if (o.name == "delivery" && sender_.empty()) fail(line, "oracle delivery needs a send");
        if ((o.name == "exactly-one-bsr" || o.name == "rp-set-agreement") &&
            protocol_ != "pim-sm") {
            fail(line, "oracle " + o.name + " needs protocol pim-sm");
        }
    }
    if (no_violation_line_ != 0 && !want_watchdog_) {
        fail(no_violation_line_, "'expect no-violation' needs 'watchdog on'");
    }
}

void Script::Impl::directive(Line& l, const std::string& word) {
    const int line = l.number;
    if (word == "topology") {
        if (topology_done_) fail(line, "duplicate topology");
        const std::string mode = l.next();
        if (mode == "transit-stub") return transit_stub(l);
        if (!mode.empty()) fail(line, "unknown topology mode '" + mode + "'");
        in_topology_ = true;
        topo_spec_ = std::string(static_cast<std::size_t>(line), '\n');
    } else if (word == "seed") {
        global_seed_ =
            l.count<std::uint64_t>("seed", 0, std::numeric_limits<std::uint64_t>::max());
        w_.net.set_seed(global_seed_);
        churn_cfg_.seed = global_seed_ != 0 ? global_seed_ : churn_cfg_.seed;
    } else if (word == "workload") {
        workload(l);
    } else if (word == "protocol") {
        protocol_ = l.need("protocol");
        if (protocol_ != "pim-sm" && protocol_ != "pim-dm" && protocol_ != "dvmrp" &&
            protocol_ != "cbt" && protocol_ != "mospf") {
            fail(line, "unknown protocol '" + protocol_ + "'");
        }
    } else if (word == "rp") {
        need_topology(line, word);
        PendingRp rp{l.group(), {}};
        for (std::string name = l.next(); !name.empty(); name = l.next()) {
            (void)w_.router_ref(name);
            rp.routers.push_back(name);
        }
        if (rp.routers.empty()) fail(line, "rp needs at least one router");
        rps_.push_back(std::move(rp));
    } else if (word == "candidate-bsr") {
        need_topology(line, word);
        PendingCandidateBsr cand{l.need("router"), 0};
        (void)w_.router_ref(cand.router);
        cand.priority = l.count_or<std::uint8_t>(0, "candidate-bsr priority", 0, 255);
        candidate_bsrs_.push_back(std::move(cand));
    } else if (word == "candidate-rp") {
        need_topology(line, word);
        const std::string range_text = l.need("group or prefix");
        PendingCandidateRp cand{{}, l.need("router"), 0};
        (void)w_.router_ref(cand.router);
        if (auto prefix = net::Prefix::parse(range_text)) {
            cand.range = *prefix;
        } else {
            cand.range = net::Prefix::host(parse_group(line, range_text).address());
        }
        cand.priority = l.count_or<std::uint8_t>(0, "candidate-rp priority", 0, 255);
        candidate_rps_.push_back(std::move(cand));
    } else if (word == "spt-policy") {
        const std::string kind = l.need("spt policy");
        if (kind == "immediate") {
            policy_ = pim::SptPolicy::immediate();
        } else if (kind == "never") {
            policy_ = pim::SptPolicy::never();
        } else if (kind == "threshold") {
            const int m = l.count<int>("threshold packets", 1, 1'000'000);
            const auto window_ms = l.count<sim::Time>("threshold window (ms)", 1, 1'000'000'000);
            policy_ = pim::SptPolicy::threshold(m, window_ms * sim::kMillisecond);
        } else {
            fail(line, "unknown spt-policy '" + kind + "'");
        }
    } else if (word == "trace") {
        want_trace_ = l.flag(word);
    } else if (word == "provenance") {
        want_provenance_ = l.flag(word);
        provenance_capacity_ = l.count_or<std::size_t>(provenance_capacity_,
                                                       "provenance capacity", 1, 1 << 22);
    } else if (word == "profile") {
        want_profile_ = l.flag(word);
        profile_capacity_ =
            l.count_or<std::size_t>(profile_capacity_, "profile ring capacity", 1, 1 << 22);
    } else if (word == "dump-profile") {
        profile_path_ = l.need("file path");
    } else if (word == "telemetry") {
        want_telemetry_ = l.flag(word);
    } else if (word == "snapshot-every") {
        snapshot_every_ = l.time("snapshot interval");
        if (snapshot_every_ <= 0) fail(line, "snapshot-every needs a positive time");
    } else if (word == "monitor") {
        if (l.next() != "trees") fail(line, "monitor takes: trees <interval>");
        monitor_interval_ = l.time("monitor interval");
        if (monitor_interval_ <= 0) fail(line, "monitor interval must be positive");
    } else if (word == "watchdog") {
        want_watchdog_ = l.flag(word);
    } else if (word == "mutate") {
        const std::string name = l.need("mutation");
        if (!check::apply_mutation(name, config_)) {
            fail(line, "unknown mutation '" + name + "' (see pimcheck --list)");
        }
    } else if (word == "dump-timeline") {
        timeline_path_ = l.need("file path");
    } else if (word == "at") {
        need_topology(line, word);
        const sim::Time at = l.time("event time");
        event(l, at, l.need("event"));
    } else if (word == "fault-slot") {
        need_topology(line, word);
        fault_slot(l);
    } else if (word == "oracle") {
        need_topology(line, word);
        oracle(l);
    } else if (word == "run") {
        run_until_ = l.time("run duration");
        if (run_until_ == 0) fail(line, "run needs a positive duration");
    } else {
        fail(line, "unknown directive '" + word + "'");
    }
}

void Script::Impl::transit_stub(Line& l) {
    graph::TransitStubOptions opts;
    opts.transit_domains = 2;
    opts.transit_nodes = 3;
    opts.stub_domains = 2;
    opts.stub_nodes = 3;
    workload::MaterializeOptions mat;
    std::uint64_t graph_seed = 0;
    const int line = l.number;
    for (std::string opt = l.next(); !opt.empty(); opt = l.next()) {
        const auto [key, value] = split_option(line, opt);
        if (key == "transit") {
            opts.transit_domains = parse_number<int>(line, value, key, 1, 64);
        } else if (key == "transit-size") {
            opts.transit_nodes = parse_number<int>(line, value, key, 1, 256);
        } else if (key == "stubs") {
            opts.stub_domains = parse_number<int>(line, value, key, 0, 64);
        } else if (key == "stub-size") {
            opts.stub_nodes = parse_number<int>(line, value, key, 1, 256);
        } else if (key == "senders") {
            mat.senders = parse_number<int>(line, value, key, 0, 1024);
        } else if (key == "graph-seed") {
            graph_seed = parse_number<std::uint64_t>(line, value, key);
        } else {
            fail(line, "unknown transit-stub option '" + opt + "'");
        }
    }
    if (graph_seed == 0) graph_seed = global_seed_ != 0 ? global_seed_ : 1;
    transit_stub_ = TransitStubSpec{opts, mat, graph_seed};
    make_topology(w_);
    topology_done_ = true;
}

void Script::Impl::make_topology(World& w) const {
    if (transit_stub_) {
        std::mt19937 rng(static_cast<std::mt19937::result_type>(transit_stub_->graph_seed));
        w.generated = std::make_unique<workload::TransitStubNetwork>(workload::build_transit_stub(
            w.net, transit_stub_->opts, rng, transit_stub_->mat));
    } else {
        // The spec is padded with one newline per script line before the
        // block, so the builder's "line N:" errors are script lines.
        w.topo = std::make_unique<topo::TopologyBuilder>(
            topo::TopologyBuilder::parse(w.net, topo_spec_));
    }
    if (global_seed_ != 0) w.net.set_seed(global_seed_);
}

void Script::Impl::workload(Line& l) {
    const int line = l.number;
    const std::string kind = l.need("workload kind");
    if (kind == "churn") {
        churn_line_ = line;
        for (std::string opt = l.next(); !opt.empty(); opt = l.next()) {
            const auto [key, value] = split_option(line, opt);
            if (key == "rate") {
                churn_cfg_.joins_per_sec = parse_number<double>(line, value, key, 1e-6, 1e6);
            } else if (key == "mean") {
                churn_cfg_.session.mean = parse_time(line, value);
            } else if (key == "groups") {
                churn_cfg_.groups = parse_number<int>(line, value, key, 1, 65536);
            } else if (key == "zipf") {
                churn_cfg_.zipf_exponent = parse_number<double>(line, value, key, 0, 100);
            } else if (key == "bank") {
                bank_capacity_ = parse_number<int>(line, value, key, 1, 1'000'000);
            } else if (key == "session") {
                using Kind = workload::SessionDuration::Kind;
                if (value == "fixed") {
                    churn_cfg_.session.kind = Kind::kFixed;
                } else if (value == "exponential") {
                    churn_cfg_.session.kind = Kind::kExponential;
                } else if (value == "pareto") {
                    churn_cfg_.session.kind = Kind::kPareto;
                } else {
                    fail(line, "session= takes fixed|exponential|pareto");
                }
            } else if (key == "shape") {
                churn_cfg_.session.pareto_shape = parse_number<double>(line, value, key, 1e-3, 100);
            } else if (key == "start") {
                churn_cfg_.start = parse_time(line, value);
            } else if (key == "stop") {
                churn_cfg_.stop = parse_time(line, value);
            } else {
                fail(line, "unknown churn option '" + opt + "'");
            }
        }
    } else if (kind == "flash") {
        if (churn_line_ == 0) churn_line_ = line;
        workload::FlashCrowd crowd;
        for (std::string opt = l.next(); !opt.empty(); opt = l.next()) {
            const auto [key, value] = split_option(line, opt);
            if (key == "at") {
                crowd.at = parse_time(line, value);
            } else if (key == "joins") {
                crowd.joins = parse_number<int>(line, value, key, 1, 1'000'000);
            } else if (key == "window") {
                crowd.window = parse_time(line, value);
            } else if (key == "hold") {
                crowd.hold.mean = parse_time(line, value);
            } else if (key == "rank") {
                crowd.group_rank = parse_number<int>(line, value, key, 0, 65535);
            } else {
                fail(line, "unknown flash option '" + opt + "'");
            }
        }
        if (crowd.joins <= 0) fail(line, "flash needs joins=N");
        churn_cfg_.flash_crowds.push_back(crowd);
    } else if (kind == "sender") {
        need_topology(line, "workload sender");
        SenderSpec spec{l.need("host"), l.group(), {}};
        (void)w_.host_ref(spec.host);
        for (std::string opt = l.next(); !opt.empty(); opt = l.next()) {
            const auto [key, value] = split_option(line, opt);
            if (key == "on") {
                spec.cfg.on = parse_time(line, value);
            } else if (key == "off") {
                spec.cfg.off = parse_time(line, value);
            } else if (key == "interval") {
                spec.cfg.interval = parse_time(line, value);
            } else if (key == "start") {
                spec.cfg.start = parse_time(line, value);
            } else if (key == "stop") {
                spec.cfg.stop = parse_time(line, value);
            } else {
                fail(line, "unknown sender option '" + opt + "'");
            }
        }
        sender_specs_.push_back(std::move(spec));
    } else {
        fail(line, "unknown workload '" + kind + "' (churn|flash|sender)");
    }
}

void Script::Impl::event(Line& l, sim::Time at, const std::string& verb) {
    if (verb == "expect") return expect(l, at);
    events_.push_back(action(l, at, verb));
}

Script::Impl::Event Script::Impl::action(Line& l, sim::Time at, const std::string& verb) {
    const int line = l.number;
    auto schedule = [at](std::function<void(World&)> act) { return Event{at, std::move(act)}; };
    if (verb == "join" || verb == "leave") {
        const std::string host = l.need("host");
        const net::GroupAddress g = l.group();
        const bool join = verb == "join";
        // A member that leaves mid-stream misses packets on purpose.
        if (!join) loss_possible_ = true;
        (void)w_.host_ref(host);
        if (join) joins_.emplace_back(host, g);
        return schedule([host, g, join](World& w) {
            auto& agent = w.stack->host_agent(w.host_ref(host));
            if (join) {
                agent.join(g);
            } else {
                agent.leave(g);
            }
        });
    } else if (verb == "send") {
        const std::string host = l.need("host");
        const net::GroupAddress g = l.group();
        int count = 1;
        sim::Time interval = 50 * sim::kMillisecond;
        for (std::string opt = l.next(); !opt.empty(); opt = l.next()) {
            const auto [key, value] = split_option(line, opt);
            if (key == "count") {
                count = parse_number<int>(line, value, key, 1, 100'000);
            } else if (key == "interval") {
                interval = parse_time(line, value);
            } else {
                fail(line, "unknown send option '" + opt + "'");
            }
        }
        if (interval > kMaxTime / count) fail(line, "send stream is longer than the time limit");
        (void)w_.host_ref(host);
        if (sender_.empty()) sender_ = host;
        Event stream = schedule([host, g, count, interval, at](World& w) {
            w.host_ref(host).send_stream(g, count, interval, at - w.net.simulator().now());
        });
        stream.queues_itself = true;
        return stream;
    } else if (verb == "fail-link" || verb == "heal-link") {
        const std::string a = l.need("router");
        const std::string b = l.need("router");
        const bool up = verb == "heal-link";
        if (!up) loss_possible_ = true;
        (void)w_.link_ref(a, b);
        return schedule([a, b, up](World& w) {
            auto& link = w.link_ref(a, b);
            if (up) {
                w.faults->restore_link(link);
            } else {
                w.faults->cut_link(link);
            }
        });
    } else if (verb == "crash-router" || verb == "restart-router") {
        const std::string name = l.need("router");
        const bool crash = verb == "crash-router";
        if (crash) loss_possible_ = true;
        (void)w_.router_ref(name);
        return schedule([name, crash](World& w) {
            auto& router = w.router_ref(name);
            if (crash) {
                w.faults->crash_router(router);
            } else {
                w.faults->restart_router(router);
            }
        });
    } else if (verb == "loss-link" || verb == "loss-lan") {
        const bool is_link = verb == "loss-link";
        const std::string a = l.need(is_link ? "router" : "lan");
        const std::string b = is_link ? l.need("router") : "";
        const double rate =
            l.count<double>("loss rate", 0.0, std::nextafter(1.0, 0.0));
        loss_possible_ = true;
        (void)(is_link ? w_.link_ref(a, b) : w_.lan_ref(a));
        return schedule([a, b, rate, is_link](World& w) {
            w.faults->set_loss(is_link ? w.link_ref(a, b) : w.lan_ref(a), rate);
        });
    } else if (verb == "partition") {
        std::vector<std::string> names;
        for (std::string name = l.next(); !name.empty(); name = l.next()) {
            names.push_back(name);
        }
        if (names.empty() || names.size() % 2 != 0) {
            fail(line, "partition needs router pairs: A B [C D ...]");
        }
        loss_possible_ = true;
        for (std::size_t i = 0; i < names.size(); i += 2) {
            (void)w_.link_ref(names[i], names[i + 1]);
        }
        return schedule([names](World& w) {
            std::vector<topo::Segment*> cut;
            for (std::size_t i = 0; i < names.size(); i += 2) {
                cut.push_back(&w.link_ref(names[i], names[i + 1]));
            }
            w.faults->partition(cut);
        });
    } else if (verb == "heal-partition") {
        return schedule([](World& w) { w.faults->heal_partition(); });
    } else if (verb == "dump-state") {
        return schedule([](World& w) { dump_state(w); });
    } else if (verb == "dump-metrics") {
        std::string format = l.next();
        if (format.empty()) format = "prom";
        if (format != "prom" && format != "json") fail(line, "dump-metrics takes prom|json");
        return schedule([format](World& w) { dump_metrics(w, format); });
    } else if (verb == "dump-events") {
        return schedule([](World& w) { dump_events(w); });
    } else if (verb == "snapshot") {
        return schedule([](World& w) { take_snapshot(w, /*print=*/true); });
    } else if (verb == "mtrace") {
        const std::string src = l.need("source host");
        const std::string dst = l.need("destination host");
        const net::GroupAddress g = l.group();
        (void)w_.host_ref(src);
        (void)w_.host_ref(dst);
        return schedule([src, dst, g](World& w) { mtrace(w, src, dst, g); });
    } else if (verb == "dump-provenance") {
        return schedule([](World& w) { dump_provenance(w); });
    } else if (verb == "profile") {
        const bool on = l.flag(verb);
        return schedule([on](World&) { prof::set_enabled(on); });
    }
    fail(line, "unknown event '" + verb + "'");
}

void Script::Impl::fault_slot(Line& l) {
    FaultSlot slot{l.time("fault-slot time"), {}};
    std::string rest;
    for (std::string word = l.next(); !word.empty(); word = l.next()) rest += word + " ";
    for (const std::string& text : split(rest, '|')) {
        slot.candidates.push_back(fault_candidate(l.number, slot.at, text));
    }
    fault_slots_.push_back(std::move(slot));
}

FaultCandidate Script::Impl::fault_candidate(int line, sim::Time at, const std::string& text) {
    std::vector<std::string> words = scenario::words(text);
    FaultCandidate cand;
    const auto for_word = std::find(words.begin(), words.end(), "for");
    if (for_word != words.end()) {
        if (words.end() - for_word != 2) fail(line, "'for' takes one duration");
        cand.repair_after = parse_time(line, for_word[1]);
        if (cand.repair_after == 0) fail(line, "'for' needs a positive duration");
        words.erase(for_word, words.end());
    }
    if (words.empty()) fail(line, "missing fault candidate");
    const std::string& verb = words.front();
    const std::string undo = verb == "fail-link"      ? "heal-link"
                             : verb == "crash-router" ? "restart-router"
                             : verb == "partition"    ? "heal-partition"
                                                      : "";
    if (undo.empty() && verb != "loss-link" && verb != "loss-lan") {
        fail(line, "fault-slot candidate '" + verb +
                       "' is not a fault (fail-link|crash-router|partition|loss-link|loss-lan)");
    }
    for (const std::string& word : words) {
        cand.label += (cand.label.empty() ? "" : "-") + word;
        cand.fault += (cand.fault.empty() ? "" : " ") + word;
        if (&word != &words.front() && w_.find_router(word) != nullptr) {
            cand.routers.push_back(word);
        }
    }
    // Parsed like `at` events, but never scheduled: pimsim runs the baseline.
    const bool loss_possible = loss_possible_;
    Line fault(line, cand.fault);
    cand.inject = action(fault, at, fault.need("fault")).action;
    fault.done();
    if (cand.repair_after > 0) {
        if (undo.empty()) fail(line, "'for' undoes fail-link, crash-router and partition");
        cand.repair = verb == "partition" ? undo : undo + cand.fault.substr(verb.size());
        Line repair(line, cand.repair);
        cand.undo = action(repair, at, repair.need("repair")).action;
    }
    loss_possible_ = loss_possible;
    return cand;
}

void Script::Impl::oracle(Line& l) {
    const int line = l.number;
    // Each oracle's arguments: positional ones (ROUTER... is one or more),
    // then key=value options, all required.
    static const std::map<std::string, std::string> kForms = {
        {"delivery", "seqs=A-B steady=A-B"},
        {"steady-redundancy", "steady=A-B crossings=N"},
        {"steady-iif", "from=TIME"},
        {"assert-winner", "LAN steady=A-B"},
        {"rp-failover", "ROUTER... rp=ROUTER backup=ROUTER"},
        {"bsr-rp-rehoming", "ROUTER... rp=ROUTER backup=ROUTER"},
        {"exactly-one-bsr", ""},
        {"rp-set-agreement", "GROUP"}};
    Oracle o;
    o.name = l.need("oracle");
    const auto form = kForms.find(o.name);
    if (form == kForms.end()) {
        fail(line, "unknown oracle '" + o.name +
                       "' (delivery|steady-redundancy|steady-iif|assert-winner|rp-failover|"
                       "bsr-rp-rehoming|exactly-one-bsr|rp-set-agreement)");
    }
    std::set<std::string> keys;
    for (std::string token = l.next(); !token.empty(); token = l.next()) {
        if (token.find('=') == std::string::npos) {
            o.args.push_back(token);
            continue;
        }
        const auto [key, value] = split_option(line, token);
        keys.insert(key);
        if (key == "seqs" || key == "steady") {
            (key == "seqs" ? o.seqs : o.steady) = parse_range(line, value);
        } else if (key == "crossings") {
            o.crossings = parse_number<int>(line, value, key, 1, 1'000'000);
        } else if (key == "from") {
            o.from = parse_time(line, value);
        } else if (key == "rp" || key == "backup") {
            (key == "rp" ? o.rp : o.backup) = w_.router_ref(value).name();
        }
    }
    // The form's first word, when it is not an option, names its
    // positional arguments.
    std::string names;
    std::set<std::string> want_keys;
    for (const std::string& word : words(form->second)) {
        if (word.find('=') == std::string::npos) {
            names = word;
        } else {
            want_keys.insert(word.substr(0, word.find('=')));
        }
    }
    if (keys != want_keys || (names == "ROUTER..." ? o.args.empty()
                                                   : o.args.size() != (names.empty() ? 0 : 1))) {
        fail(line, "oracle " + o.name + " takes " +
                       (form->second.empty() ? "no arguments" : form->second));
    }
    for (const std::string& arg : o.args) {
        if (names == "LAN") (void)w_.lan_ref(arg);
        if (names == "GROUP") (void)parse_group(line, arg);
        if (names == "ROUTER...") (void)w_.router_ref(arg);
    }
    oracles_.push_back(std::move(o));
}

void Script::Impl::expect(Line& l, sim::Time at) {
    const int line = l.number;
    const std::string what = l.need("expectation");
    std::string text = "expect " + what;
    // Reads one more token into the expectation's text.
    auto take = [&](const std::string& name) {
        std::string token = l.need(name);
        text += " " + token;
        return token;
    };
    Check check;
    if (what == "delivered" || what == "duplicates") {
        const std::string host = take("host");
        const net::GroupAddress g = parse_group(line, take("group"));
        const std::string bound_text = take("count");
        const bool at_least = bound_text.rfind(">=", 0) == 0;
        const CountBound bound{
            parse_number<std::size_t>(line, at_least ? bound_text.substr(2) : bound_text,
                                      "count"),
            at_least};
        (void)w_.host_ref(host);
        const bool dups = what == "duplicates";
        check = [host, g, bound, dups](World& w) {
            const topo::Host& h = w.host_ref(host);
            const std::size_t value = dups ? h.duplicate_count(g) : h.received_count(g);
            return bound.holds(value) ? std::string() : std::to_string(value);
        };
    } else if (what == "entry" || what == "no-entry") {
        const std::string router = take("router");
        const std::string source = take("source host or *");
        const net::GroupAddress g = parse_group(line, take("group"));
        (void)w_.router_ref(router);
        const bool wildcard = source == "*";
        const std::string source_addr =
            wildcard ? "" : w_.host_ref(source).address().to_string();
        const bool absent = what == "no-entry";
        bool spt = false;
        std::string rp;
        std::optional<int> iif;
        std::optional<int> oif;
        // A no-entry takes no conditions; Line::done() rejects any left over.
        for (std::string opt = absent ? "" : l.next(); !opt.empty(); opt = l.next()) {
            text += " " + opt;
            if (opt == "spt") {
                spt = true;
                continue;
            }
            const auto [key, value] = split_option(line, opt);
            if (key == "rp") {
                if (!wildcard) fail(line, "rp= applies to (*,G) entries");
                rp = w_.router_ref(value).router_id().to_string();
            } else if (key == "iif") {
                iif = w_.ifindex_toward(router, value);
            } else if (key == "oif") {
                oif = w_.ifindex_toward(router, value);
            } else {
                fail(line, "unknown entry condition '" + opt + "' (spt rp= iif= oif=)");
            }
        }
        check = [=, group = g.to_string()](World& w) -> std::string {
            const telemetry::MribSnapshot snap = w.stack->capture_mrib();
            const telemetry::EntrySnapshot* found = nullptr;
            for (const telemetry::RouterMrib& mrib : snap.routers) {
                if (mrib.router != router) continue;
                for (const telemetry::EntrySnapshot& e : mrib.entries) {
                    if (e.group == group && e.wildcard == wildcard &&
                        (wildcard || e.source_or_rp == source_addr)) {
                        found = &e;
                    }
                }
            }
            if (absent) return found == nullptr ? "" : found->signature();
            if (found == nullptr) return "no entry";
            const bool holds =
                (!spt || found->spt_bit) && (rp.empty() || found->source_or_rp == rp) &&
                (!iif || found->iif == *iif) &&
                (!oif || std::any_of(found->oifs.begin(), found->oifs.end(),
                                     [&](const telemetry::OifSnapshot& o) {
                                         return o.ifindex == *oif;
                                     }));
            return holds ? "" : found->signature();
        };
    } else if (what == "no-violation") {
        if (no_violation_line_ == 0) no_violation_line_ = line;
        check = [](World& w) -> std::string {
            const auto& found = w.watchdog->violations();
            if (found.empty()) return "";
            const auto& v = found.front();
            return std::to_string(found.size()) + " violation(s), first " + v.watchdog +
                   " at " + v.node + ": " + v.detail;
        };
    } else {
        fail(line, "unknown expectation '" + what +
                       "' (delivered|duplicates|entry|no-entry|no-violation)");
    }
    const std::size_t index = expectations_.size();
    expectations_.push_back({line, text, std::move(check)});
    events_.push_back({at,
                       [this, index](World& w) {
                           Expectation& e = expectations_[index];
                           e.checked = true;
                           const std::string got = e.check(w);
                           if (!got.empty()) {
                               failures_.push_back("line " + std::to_string(e.line) + ": " +
                                                   e.text + " got " + got);
                           }
                       },
                       /*queues_itself=*/false, /*expectation=*/true});
}

void Script::Impl::build(World& w, const std::string& mutation) const {
    w.routing = std::make_unique<unicast::OracleRouting>(w.net);
    w.faults = std::make_unique<fault::FaultInjector>(w.net);
    if (want_trace_) w.tracer = std::make_unique<trace::PacketTracer>(w.net);
    if (want_provenance_) {
        provenance::RecorderConfig prov_cfg;
        prov_cfg.ring_capacity = provenance_capacity_;
        w.recorder = std::make_unique<provenance::Recorder>(w.net.telemetry().registry(),
                                                            prov_cfg);
        w.net.set_provenance(w.recorder.get());
    }
    w.config = config_;
    if (!check::apply_mutation(mutation, w.config)) {
        throw std::runtime_error("unknown mutation '" + mutation + "'");
    }
    auto resolve = [&w](const std::vector<std::string>& names) {
        std::vector<net::Ipv4Address> addrs;
        for (const auto& name : names) addrs.push_back(w.router_ref(name).router_id());
        return addrs;
    };
    if (protocol_ == "pim-sm") {
        auto stack = std::make_unique<PimSmStack>(w.net, w.config);
        w.pim_sm = stack.get();
        w.stack = std::move(stack);
        w.pim_sm->set_spt_policy(policy_);
        for (const auto& rp : rps_) w.pim_sm->set_rp(rp.group, resolve(rp.routers));
        for (const auto& cand : candidate_bsrs_) {
            w.pim_sm->set_candidate_bsr(w.router_ref(cand.router), cand.priority);
        }
        for (const auto& cand : candidate_rps_) {
            w.pim_sm->set_candidate_rp(w.router_ref(cand.router), cand.range, cand.priority);
        }
    } else if (protocol_ == "cbt") {
        auto stack = std::make_unique<CbtStack>(w.net, w.config);
        w.cbt = stack.get();
        w.stack = std::move(stack);
        for (const auto& rp : rps_) w.cbt->set_core(rp.group, resolve(rp.routers).front());
    } else if (protocol_ == "pim-dm") {
        w.stack = std::make_unique<PimDmStack>(w.net, w.config);
    } else if (protocol_ == "dvmrp") {
        w.stack = std::make_unique<DvmrpStack>(w.net, w.config);
    } else {
        w.stack = std::make_unique<MospfStack>(w.net, w.config);
    }
    w.stack->wire_faults(*w.faults);

    auto cache_of = [sp = w.stack.get()](const topo::Router& r) { return sp->cache_of(r); };
    if (want_watchdog_) {
        w.watchdog = std::make_unique<check::Watchdog>(w.net, cache_of);
        if (w.recorder) w.watchdog->set_recorder(w.recorder.get());
        w.watchdog->set_loss_expected(loss_possible_ || churn_line_ != 0);
        w.watchdog->start();
    }
    if (monitor_interval_ > 0) {
        telemetry::TreeMonitorConfig mon_cfg;
        mon_cfg.interval = monitor_interval_;
        w.monitor = std::make_unique<telemetry::TreeMonitor>(w.net, cache_of, mon_cfg);
        w.monitor->start();
    }

    if (churn_line_ != 0) {
        // Bank hosts: the generated topology's bankN hosts, or every
        // scripted host that is not an on/off sender.
        std::vector<topo::Host*> bank_hosts;
        if (w.generated) {
            bank_hosts = w.generated->bank_hosts;
        } else {
            for (const auto& h : w.net.hosts()) {
                const bool is_sender =
                    std::any_of(sender_specs_.begin(), sender_specs_.end(),
                                [&](const SenderSpec& s) { return s.host == h->name(); });
                if (!is_sender) bank_hosts.push_back(h.get());
            }
        }
        if (bank_hosts.empty()) fail(churn_line_, "workload churn needs at least one host");
        for (const workload::FlashCrowd& crowd : churn_cfg_.flash_crowds) {
            if (crowd.group_rank >= churn_cfg_.groups) {
                fail(churn_line_, "flash rank is outside the churn catalog's groups");
            }
        }
        std::vector<workload::HostBank*> raw;
        for (topo::Host* h : bank_hosts) {
            w.banks.push_back(std::make_unique<workload::HostBank>(w.stack->host_agent(*h),
                                                                   bank_capacity_));
            raw.push_back(w.banks.back().get());
        }
        w.churn = std::make_unique<workload::ChurnEngine>(w.net, raw, churn_cfg_);
        // Catalog groups without an explicit rp/core directive get one
        // auto-assigned: transit routers round-robin on generated
        // topologies (the wide-area core), router 0 on scripted ones.
        if (w.pim_sm != nullptr || w.cbt != nullptr) {
            std::vector<topo::Router*> anchors =
                w.generated ? w.generated->transit_routers()
                            : std::vector<topo::Router*>{&w.net.router(0)};
            for (int r = 0; r < churn_cfg_.groups; ++r) {
                const net::GroupAddress g = w.churn->group(r);
                if (std::any_of(rps_.begin(), rps_.end(),
                                [&](const PendingRp& rp) { return rp.group == g; })) {
                    continue;
                }
                const net::Ipv4Address anchor =
                    anchors[static_cast<std::size_t>(r) % anchors.size()]->router_id();
                if (w.pim_sm != nullptr) {
                    w.pim_sm->set_rp(g, {anchor});
                } else {
                    w.cbt->set_core(g, anchor);
                }
            }
        }
        w.churn->start();
    }
    for (const SenderSpec& spec : sender_specs_) {
        w.senders.push_back(std::make_unique<workload::OnOffSender>(w.host_ref(spec.host),
                                                                    spec.group, spec.cfg));
        w.senders.back()->start();
    }
}

std::unique_ptr<World> Script::Impl::make_world() const {
    auto w = std::make_unique<World>(w_.out);
    make_topology(*w);
    return w;
}

void Script::Impl::schedule(World& w, bool expectations) const {
    for (const Event& e : events_) {
        if (e.expectation && !expectations) continue;
        if (e.queues_itself) {
            e.action(w);
        } else {
            w.net.simulator().schedule_at(e.at, [&w, &e] { e.action(w); });
        }
    }
}

/// One periodic snapshot that queues the next: a fine interval over a long
/// run keeps one pending event, not one per snapshot.
void Script::Impl::snapshot_tick(World& w) const {
    take_snapshot(w, /*print=*/false);
    const sim::Time next = w.net.simulator().now() + snapshot_every_;
    if (next <= run_until_) {
        w.net.simulator().schedule_at(next, [this, &w] { snapshot_tick(w); });
    }
}

ScriptResult Script::Impl::run() {
    World& w = w_;
    w.net.telemetry().set_tracing(want_telemetry_);
    if (profiling()) {
        prof::reset();
        if (profile_capacity_ > 0) prof::set_ring_capacity(profile_capacity_);
        // Stamp every zone record with the sim time it covered, so the
        // flamegraph and the timeline's CPU track can be read against the
        // scenario's own clock.
        prof::set_time_source(
            [](const void* ctx) {
                return static_cast<std::int64_t>(static_cast<const sim::Simulator*>(ctx)->now());
            },
            &w.net.simulator());
        prof::set_enabled(want_profile_);
    }
    build(w, "");
    schedule(w, /*expectations=*/true);
    if (snapshot_every_ > 0 && snapshot_every_ <= run_until_) {
        w.net.simulator().schedule_at(snapshot_every_, [this, &w] { snapshot_tick(w); });
    }
    w.net.run_for(run_until_);
    report();

    for (const Expectation& e : expectations_) {
        if (!e.checked) {
            failures_.push_back("line " + std::to_string(e.line) + ": " + e.text +
                                " got nothing: the run ends first");
        }
    }
    if (!expectations_.empty()) {
        std::fprintf(w.out, "--- expectations: %zu, failed: %zu ---\n", expectations_.size(),
                     failures_.size());
    }
    return ScriptResult{expectations_.size(), failures_};
}

void Script::Impl::report() {
    World& w = w_;
    std::FILE* out = w.out;
    if (w.tracer) {
        std::fprintf(out, "--- packet trace (%zu frames) ---\n%s", w.tracer->records().size(),
                     w.tracer->dump().c_str());
    }
    std::fprintf(out, "--- delivery report ---\n");
    for (const auto& host : w.net.hosts()) {
        if (host->received().empty()) continue;
        std::fprintf(out, "  %-12s received %zu data packets (%zu duplicates)\n",
                     host->name().c_str(), host->received().size(), host->duplicate_count());
    }
    if (w.churn) {
        std::fprintf(out, "--- workload churn ---\n");
        std::fprintf(out, "  joins=%llu leaves=%llu saturated=%llu peak=%zu current=%zu\n",
                     static_cast<unsigned long long>(w.churn->joins()),
                     static_cast<unsigned long long>(w.churn->leaves()),
                     static_cast<unsigned long long>(w.churn->saturated_joins()),
                     w.churn->membership_peak(), w.churn->membership());
        std::vector<double> lat = w.churn->join_to_data_seconds();
        if (!lat.empty()) {
            std::sort(lat.begin(), lat.end());
            auto pct = [&lat](double q) {
                const auto i = static_cast<std::size_t>(q * (static_cast<double>(lat.size()) - 1));
                return lat[i] * 1000.0;
            };
            std::fprintf(out, "  join-to-data p50=%.2fms p90=%.2fms p99=%.2fms (%zu samples)\n",
                         pct(0.50), pct(0.90), pct(0.99), lat.size());
        }
    }
    std::fprintf(out, "--- totals: data_tx=%llu control=%llu ---\n",
                 static_cast<unsigned long long>(w.net.stats().total_data_packets()),
                 static_cast<unsigned long long>(w.net.stats().total_control_messages()));
    if (!w.net.telemetry().spans().completed().empty()) {
        std::fprintf(out, "--- span latencies ---\n");
        for (const auto& span : w.net.telemetry().spans().completed()) {
            std::fprintf(out, "  %-14s %-28s %.1fms\n", span.kind.c_str(), span.key.c_str(),
                         ms(span.latency()));
        }
    }
    const telemetry::Hub& hub = w.net.telemetry();
    if (hub.snapshot_count() > 1) {
        std::fprintf(out, "--- mrib snapshots: %zu taken, %zu with structural change ---\n",
                     hub.snapshot_count(), hub.snapshot_changes());
    }
    if (!w.faults->events().empty()) {
        std::fprintf(out, "--- injected faults ---\n");
        for (const auto& event : w.faults->events()) {
            std::fprintf(out, "  %8.1fms  %s\n", ms(event.at), event.description.c_str());
        }
    }
    if (w.monitor) {
        w.monitor->stop();
        const auto& pass = w.monitor->last_pass();
        std::fprintf(out, "--- tree monitor (pass %llu at t=%.1fms) ---\n",
                     static_cast<unsigned long long>(pass.pass), ms(pass.completed_at));
        if (pass.pass == 0) {
            std::fprintf(out, "  (no pass completed; lower the monitor interval or "
                              "run longer)\n");
        } else {
            std::fprintf(out, "  groups=%zu entries=%zu (wc=%zu sg=%zu) member-ports=%zu\n",
                         pass.groups, pass.entries, pass.wildcard_entries, pass.sg_entries,
                         pass.member_ports);
            std::fprintf(out, "  depth-max=%d fanout-max=%zu stretch-max=%.3f\n",
                         pass.depth_max, pass.fanout_max, pass.stretch_max);
            std::fprintf(out, "  link-flows-max=%zu links-used=%zu walks=%zu "
                              "(broken=%zu skipped=%zu)\n",
                         pass.link_flows_max, pass.links_used, pass.walks, pass.broken_walks,
                         pass.skipped_walks);
        }
    }
    if (w.watchdog) {
        w.watchdog->stop();
        std::fprintf(out, "--- watchdog: %zu violation(s), %zu entries scanned ---\n%s",
                     w.watchdog->violations().size(), w.watchdog->entries_scanned(),
                     w.watchdog->dump().c_str());
    }
    if (profiling()) {
        prof::set_enabled(false);
        if (!profile_path_.empty()) {
            const prof::Report report = prof::snapshot();
            std::ofstream file(profile_path_);
            if (!file) throw std::runtime_error("cannot write " + profile_path_);
            file << prof::to_collapsed(report);
            std::fprintf(out, "--- profile: %s (collapsed stacks; flamegraph.pl / "
                              "speedscope input) ---\n%s",
                         profile_path_.c_str(), prof::to_table(report).c_str());
        }
    }
    if (!timeline_path_.empty()) {
        std::ofstream file(timeline_path_);
        if (!file) throw std::runtime_error("cannot write " + timeline_path_);
        file << trace::chrome_timeline_json(w.net.telemetry(), w.recorder.get());
        std::fprintf(out, "--- timeline: %s (chrome trace-event JSON; open in "
                          "ui.perfetto.dev) ---\n",
                     timeline_path_.c_str());
    }
}

topo::Router* World::find_router(const std::string& name) const {
    for (const auto& r : net.routers()) {
        if (r->name() == name) return r.get();
    }
    return nullptr;
}

topo::Router& World::router_ref(const std::string& name) const {
    topo::Router* r = find_router(name);
    if (r == nullptr) throw std::runtime_error("unknown router '" + name + "'");
    return *r;
}

topo::Host& World::host_ref(const std::string& name) const {
    for (const auto& h : net.hosts()) {
        if (h->name() == name) return *h;
    }
    throw std::runtime_error("unknown host '" + name + "'");
}

topo::Segment& World::lan_ref(const std::string& name) const {
    if (topo) return topo->lan(name);
    // Generated bank LANs are addressable as lan0..lanN-1.
    std::size_t i = 0;
    const char* end = name.data() + name.size();
    if (name.rfind("lan", 0) == 0 &&
        std::from_chars(name.data() + 3, end, i).ptr == end && name.size() > 3 &&
        i < generated->lans.size()) {
        return *generated->lans[i];
    }
    throw std::runtime_error("unknown lan '" + name + "'");
}

topo::Segment& World::link_ref(const std::string& a, const std::string& b) {
    topo::Segment* seg = net.find_link(router_ref(a), router_ref(b));
    if (seg == nullptr) throw std::runtime_error("no link between '" + a + "' and '" + b + "'");
    return *seg;
}

int World::ifindex_toward(const std::string& router, const std::string& toward) {
    topo::Segment& seg =
        find_router(toward) != nullptr ? link_ref(router, toward) : lan_ref(toward);
    const std::optional<int> ifindex = router_ref(router).ifindex_on(seg);
    if (!ifindex) throw std::runtime_error(router + " is not on " + toward);
    return *ifindex;
}

Script::Script(const std::string& text, std::FILE* out) : impl_(std::make_unique<Impl>(out)) {
    impl_->parse(text);
}
Script::~Script() = default;

ScriptResult Script::run() { return impl_->run(); }

std::unique_ptr<World> Script::build(const std::string& mutation) const {
    std::unique_ptr<World> w = impl_->make_world();
    impl_->build(*w, mutation);
    return w;
}

void Script::schedule(World& world) const { impl_->schedule(world, /*expectations=*/false); }

const World& Script::parsed() const { return impl_->w_; }
sim::Time Script::duration() const { return impl_->run_until_; }
const std::vector<FaultSlot>& Script::fault_slots() const { return impl_->fault_slots_; }
const std::vector<Oracle>& Script::oracles() const { return impl_->oracles_; }
const std::vector<std::pair<std::string, net::GroupAddress>>& Script::joins() const {
    return impl_->joins_;
}
const std::string& Script::sender() const { return impl_->sender_; }

ScriptResult run_script(const std::string& text, std::FILE* out) {
    return Script(text, out).run();
}

} // namespace pimlib::scenario
