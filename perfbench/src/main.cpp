// perfbench: the repository benchmark. One single-threaded process runs one
// workload against pimlib's public API, checks the outputs, and prints every
// metric by name with its unit; the last stdout line is the JSON result.
//
//   perfbench --workload fanout|churn|explore --seed N --seconds S --trace 0|1
//
// Host time is thread CPU time (CLOCK_THREAD_CPUTIME_ID), taken from outside
// around the library calls. Simulated quantities are exact counts: the same
// seed gives the same values, so they are metrics and correctness checks at
// once. perfbench/NOTES.md explains the workloads and the metric map.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "check/explorer.hpp"
#include "check/scenario.hpp"
#include "host_reference.hpp"
#include "mcast/forwarding_cache.hpp"
#include "metrics.hpp"
#include "pim/messages.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "unicast/oracle_routing.hpp"
#include "workload/churn.hpp"
#include "workload/host_bank.hpp"
#include "workload/topology.hpp"

using namespace pimlib;

namespace perfbench {
namespace {

// ---- host measurements ------------------------------------------------------

double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image. Not getrusage's ru_maxrss:
/// Linux carries that across execve, so it would report the launching
/// script's footprint whenever that is larger. VmHWM belongs to the
/// current address space alone.
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

/// Bytes the allocator has handed out and not taken back. Unlike RSS it
/// does not hide growth inside pages freed earlier in the run.
std::size_t heap_in_use() {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}

/// bench::percentile, with 0 for an empty sample rather than NaN.
double quantile(std::vector<double> v, double q) {
    return v.empty() ? 0.0 : bench::percentile(std::move(v), q);
}

/// The fastest of a run's set-up repetitions. Set-up times are bimodal on a
/// shared host (quiet and contended stretches); the median jumps between the
/// modes from run to run, while the fastest repetition stays put as long as
/// a run has any quiet stretch (NOTES.md, steadiness record).
double fastest(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// ---- bench-side spans ---------------------------------------------------------

/// Spans around the benchmark's calls into each layer, on the thread CPU
/// clock. A layer's self time is its spans' time minus their child spans'.
/// Off (every call a no-op) outside --trace 1.
class Spans {
public:
    class Scope {
    public:
        Scope(Spans* spans, const char* layer) : spans_(spans) {
            if (spans_ != nullptr) index_ = spans_->open(layer);
        }
        ~Scope() {
            if (spans_ != nullptr) spans_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Spans* spans_;
        int index_ = -1;
    };

    void set_enabled(bool on) { on_ = on; }
    Scope scope(const char* layer) { return Scope(on_ ? this : nullptr, layer); }

    /// Self milliseconds per layer.
    [[nodiscard]] std::map<std::string, double> self_ms() const {
        std::vector<double> self(recs_.size());
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            self[i] += recs_[i].t1 - recs_[i].t0;
            if (recs_[i].parent >= 0) {
                self[static_cast<std::size_t>(recs_[i].parent)] -= recs_[i].t1 - recs_[i].t0;
            }
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < recs_.size(); ++i) out[recs_[i].layer] += self[i] * 1e3;
        return out;
    }

private:
    struct Rec {
        const char* layer;
        int parent;
        double t0;
        double t1;
    };

    int open(const char* layer) {
        recs_.push_back(Rec{layer, current_, cpu_now(), 0.0});
        current_ = static_cast<int>(recs_.size()) - 1;
        return current_;
    }
    void close(int index) {
        Rec& rec = recs_[static_cast<std::size_t>(index)];
        rec.t1 = cpu_now();
        current_ = rec.parent;
    }

    bool on_ = false;
    std::vector<Rec> recs_;
    int current_ = -1;
};

Spans g_spans;

// ---- run outcome ----------------------------------------------------------------

struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> setup_s; // one per set-up repetition
    SliceLog window;             // the untraced measured window
    // exact simulated metrics
    double ctrl_per_sim_s = 0;
    double state_entries = 0;
    std::vector<double> join_to_data_ms;
    // VmHWM when the exact window closes: a fixed amount of work, so the
    // figure does not grow with however many more slices a fast host runs
    double peak_rss_mb = 0;
    // per-layer values by metric name
    std::map<std::string, double> layer;
    // The reference kernel's CPU ms after each window slice past the exact
    // window (the median of that slice's batches). Built only once the
    // exact window has closed, so its 12 MB stay out of peak_rss_mb.
    std::unique_ptr<HostReference> reference;
    std::vector<double> reference_ms;
    std::size_t reference_radius = 0; // neighbouring slices each slice is read against

    // --trace 1 only: the traced part of the window
    SliceLog traced;
    prof::Report profile;

    void fail(const std::string& why) {
        correct = false;
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    }

    void time_reference(int batches) {
        if (!reference) reference = std::make_unique<HostReference>();
        std::vector<double> ms;
        for (int i = 0; i < batches; ++i) ms.push_back(reference->run_ms());
        reference_ms.push_back(quantile(ms, 0.5));
    }

    /// The window slices the reference was timed beside: the last ones.
    [[nodiscard]] std::vector<double> timed_slices() const {
        const std::vector<double>& ms = window.ms_per_unit();
        const std::size_t n = std::min(ms.size(), reference_ms.size());
        return {ms.end() - static_cast<std::ptrdiff_t>(n), ms.end()};
    }

    /// Those slices as each would cost on the nominal host
    /// (host_reference.hpp).
    [[nodiscard]] std::vector<double> nominal_slices() const {
        return scale_to_nominal(timed_slices(), reference_ms, reference_radius, kReferenceNominalMs);
    }

    /// Set-ups are read against the run's median reference batch.
    [[nodiscard]] double nominal_setup_s() const {
        const double ref = quantile(reference_ms, 0.5);
        return fastest(setup_s) * (ref > 0 ? kReferenceNominalMs / ref : 1.0);
    }
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/// When the measured window may close: after `seconds` of CPU and at least
/// `min_slices` slices, but never past `cap_seconds`.
struct WindowPlan {
    double seconds = 0;
    std::size_t min_slices = 0;
    double cap_seconds = 0;

    [[nodiscard]] bool more(const SliceLog& log) const {
        if (log.cpu_seconds() >= cap_seconds) return false;
        return log.cpu_seconds() < seconds || log.count() < min_slices;
    }
};

constexpr double kCapFactor = 4.0; // window CPU cap, as a multiple of --seconds
constexpr int kSetupReps = 31;     // set-ups per run; setup_s is the fastest
constexpr sim::Time kSlice = sim::kSecond;
constexpr std::size_t kExactSlices = 20; // the exact window, in simulated seconds
// Each network slice is read against the reference after it and after the
// ten slices on either side (about 0.6 s of CPU).
constexpr std::size_t kReferenceRadiusSlices = 10;

// ---- micro-calls shared by the network workloads ---------------------------------

/// The keys of one router's forwarding cache.
struct CacheKeys {
    std::vector<net::GroupAddress> wc;
    std::vector<std::pair<net::Ipv4Address, net::GroupAddress>> sg;
    std::vector<net::Ipv4Address> wc_rp; // RP of each wc entry, same order
};

CacheKeys keys_of(mcast::ForwardingCache& cache) {
    CacheKeys k;
    cache.for_each_wc([&](mcast::ForwardingEntry& e) {
        k.wc.push_back(e.group());
        k.wc_rp.push_back(e.source_or_rp());
    });
    cache.for_each_sg([&](mcast::ForwardingEntry& e) {
        k.sg.emplace_back(e.source_or_rp(), e.group());
    });
    return k;
}

const net::GroupAddress kMissGroup{net::Ipv4Address(239, 254, 254, 254)};
const net::Ipv4Address kMissSource{10, 254, 254, 254};

/// find_wc/find_sg over every router's cache, each key once as a hit and
/// once as a miss (an absent group, or an absent source of a present group).
/// Returns ns per find; 0 when every cache is empty.
double time_finds(const std::vector<mcast::ForwardingCache*>& caches,
                  const std::vector<CacheKeys>& keys, Outcome& out) {
    std::size_t per_round = 0;
    for (const CacheKeys& k : keys) per_round += 2 * (k.wc.size() + k.sg.size());
    if (per_round == 0) return 0.0;
    const std::size_t rounds = std::max<std::size_t>(1, 400000 / per_round);
    std::size_t hits = 0;
    const double t0 = cpu_now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < caches.size(); ++i) {
            const mcast::ForwardingCache& cache = *caches[i];
            for (const net::GroupAddress g : keys[i].wc) {
                hits += cache.find_wc(g) != nullptr;
                hits += cache.find_wc(kMissGroup) != nullptr;
            }
            for (const auto& [s, g] : keys[i].sg) {
                hits += cache.find_sg(s, g) != nullptr;
                hits += cache.find_sg(kMissSource, g) != nullptr;
            }
        }
    }
    const double cpu = cpu_now() - t0;
    if (hits != rounds * per_round / 2) out.fail("forwarding-cache finds disagree with the cache's own keys");
    return cpu * 1e9 / static_cast<double>(rounds * per_round);
}

/// Heap bytes per entry of a fresh cache filled with `n` entries keyed in the
/// run's (*,G):(S,G) proportion.
double bytes_per_entry(double wc_share, std::size_t n) {
    const auto n_wc = static_cast<std::size_t>(wc_share * static_cast<double>(n));
    const std::size_t before = heap_in_use();
    auto cache = std::make_unique<mcast::ForwardingCache>();
    for (std::size_t i = 0; i < n; ++i) {
        const auto hi = static_cast<std::uint8_t>(i >> 16);
        const auto mid = static_cast<std::uint8_t>(i >> 8);
        const auto lo = static_cast<std::uint8_t>(i);
        const net::GroupAddress g{net::Ipv4Address(230, hi, mid, lo)};
        if (i < n_wc) {
            cache->ensure_wc(net::Ipv4Address(192, 168, 0, 1), g);
        } else {
            cache->ensure_sg(net::Ipv4Address(10, hi, mid, lo),
                             net::GroupAddress{net::Ipv4Address(231, 0, 0, lo)});
        }
    }
    const std::size_t after = heap_in_use();
    return after > before ? static_cast<double>(after - before) / static_cast<double>(cache->size())
                          : 0.0;
}

/// Join/Prune messages shaped like the run's caches: per router, one
/// single-group JoinPrune per group and one bundle carrying all its groups.
struct CodecCorpus {
    std::vector<pim::JoinPrune> single;
    std::vector<pim::JoinPruneBundle> bundles;
};

CodecCorpus corpus_from(const std::vector<CacheKeys>& keys) {
    CodecCorpus c;
    for (const CacheKeys& k : keys) {
        std::map<net::GroupAddress, std::vector<pim::AddressEntry>> joins;
        for (std::size_t i = 0; i < k.wc.size(); ++i) {
            joins[k.wc[i]].push_back({k.wc_rp[i], {true, true}});
        }
        for (const auto& [s, g] : k.sg) joins[g].push_back({s, {}});
        if (joins.empty()) continue;
        pim::JoinPruneBundle bundle;
        bundle.upstream_neighbor = net::Ipv4Address(10, 0, 0, 1);
        bundle.holdtime_ms = 180000;
        for (const auto& [g, list] : joins) {
            pim::JoinPrune jp;
            jp.upstream_neighbor = bundle.upstream_neighbor;
            jp.holdtime_ms = bundle.holdtime_ms;
            jp.group = g.address();
            jp.joins = list;
            c.single.push_back(jp);
            bundle.groups.push_back({g.address(), list, {}});
        }
        c.bundles.push_back(std::move(bundle));
    }
    return c;
}

/// Encodes and decodes the corpus in timed batches; checks every message
/// survives the round trip. Sets pim.codec.encode_ns / decode_ns.
void time_codec(const CodecCorpus& corpus, Outcome& out) {
    const std::size_t per_round = corpus.single.size() + corpus.bundles.size();
    if (per_round == 0) {
        out.fail("codec corpus is empty");
        return;
    }
    const std::size_t rounds = std::max<std::size_t>(1, 40000 / per_round);
    std::vector<std::vector<std::uint8_t>> wire;
    wire.reserve(per_round);
    double encode_s = 0;
    double decode_s = 0;
    std::size_t decoded = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        wire.clear();
        double t0 = cpu_now();
        for (const pim::JoinPrune& m : corpus.single) wire.push_back(m.encode());
        for (const pim::JoinPruneBundle& m : corpus.bundles) wire.push_back(m.encode());
        encode_s += cpu_now() - t0;
        t0 = cpu_now();
        for (std::size_t i = 0; i < corpus.single.size(); ++i) {
            decoded += pim::JoinPrune::decode(wire[i]).has_value();
        }
        for (std::size_t i = corpus.single.size(); i < wire.size(); ++i) {
            decoded += pim::JoinPruneBundle::decode(wire[i]).has_value();
        }
        decode_s += cpu_now() - t0;
    }
    for (std::size_t i = 0; i < corpus.single.size(); ++i) {
        const auto back = pim::JoinPrune::decode(wire[i]);
        if (!back || back->joins != corpus.single[i].joins || back->group != corpus.single[i].group) {
            out.fail("JoinPrune codec round trip changed a message");
            break;
        }
    }
    for (std::size_t i = 0; i < corpus.bundles.size(); ++i) {
        const auto back = pim::JoinPruneBundle::decode(wire[corpus.single.size() + i]);
        if (!back || back->groups != corpus.bundles[i].groups) {
            out.fail("JoinPruneBundle codec round trip changed a message");
            break;
        }
    }
    if (decoded != rounds * per_round) out.fail("codec decode rejected its own encoding");
    const double n = static_cast<double>(rounds * per_round);
    out.layer["pim.codec.encode_ns"] = encode_s * 1e9 / n;
    out.layer["pim.codec.decode_ns"] = decode_s * 1e9 / n;
}

// ---- the network workloads (fanout, churn) ----------------------------------------

constexpr std::uint32_t kGraphSeed = 1994; // the stated topology: fixed, not per-seed

/// A Poisson sender: open-loop packet arrivals at `rate` per simulated
/// second, payloads either the minimum (0 bytes) or 1 KB by a fair coin.
class PoissonSender {
public:
    PoissonSender(topo::Host& host, net::GroupAddress group, double rate, std::uint64_t seed)
        : host_(&host), group_(group), gap_(rate), rng_(seed) {}
    PoissonSender(const PoissonSender&) = delete;
    PoissonSender& operator=(const PoissonSender&) = delete;

    void start() { arm(); }
    void stop() {
        running_ = false;
        host_->simulator().cancel(next_);
    }
    [[nodiscard]] std::uint64_t sent() const { return sent_; }
    [[nodiscard]] net::GroupAddress group() const { return group_; }
    [[nodiscard]] topo::Host& host() const { return *host_; }

private:
    void arm() {
        const auto wait = std::max<sim::Time>(
            1, static_cast<sim::Time>(gap_(rng_) * static_cast<double>(sim::kSecond)));
        next_ = host_->simulator().schedule(wait, [this] {
            if (!running_) return;
            host_->send_data(group_, coin_(rng_) ? 1024 : 0);
            ++sent_;
            arm();
        });
    }

    topo::Host* host_;
    net::GroupAddress group_;
    std::exponential_distribution<double> gap_;
    std::bernoulli_distribution coin_{0.5};
    std::mt19937_64 rng_;
    sim::EventId next_{};
    bool running_ = true;
    std::uint64_t sent_ = 0;
};

/// One built and converged transit-stub world.
struct World {
    topo::Network net;
    workload::TransitStubNetwork ts;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;
    std::vector<std::unique_ptr<workload::HostBank>> banks;
    std::unique_ptr<workload::ChurnEngine> engine;
    std::vector<std::unique_ptr<workload::OnOffSender>> onoff;
    std::vector<std::unique_ptr<PoissonSender>> senders;
    std::uint64_t events = 0; // run_until returns, summed
    std::size_t prefilled = 0;

    std::size_t state_entries() {
        std::size_t n = 0;
        for (topo::Router* r : ts.routers) n += stack->pim_at(*r).cache().size();
        return n;
    }
    void run_until(sim::Time t) {
        auto span = g_spans.scope("sim");
        events += net.simulator().run_until(t);
    }
};

/// Everything that identifies a converged set-up; repetitions of one seed
/// must agree on all of it.
using Fingerprint = std::vector<std::uint64_t>;

Fingerprint fingerprint(World& w) {
    return {w.events, w.net.stats().total_control_messages(),
            w.net.stats().total_data_packets(), w.net.stats().data_delivered(),
            w.state_entries(), static_cast<std::uint64_t>(w.net.simulator().now())};
}

struct Layers {
    double build_ms = 0;
    double unicast_ms = 0;
    double prefill_ms = 0;
};

/// Builds topology, unicast routing and the PIM-SM stack (shared by both
/// network workloads).
void build_base(World& w, const graph::TransitStubOptions& opts, int senders,
                const scenario::StackConfig& cfg, std::uint64_t seed, Layers& layers) {
    w.net.set_seed(seed);
    w.net.telemetry().set_tracing(false);
    double t0 = cpu_now();
    {
        auto span = g_spans.scope("workload");
        std::mt19937 graph_rng(kGraphSeed);
        workload::MaterializeOptions mat;
        mat.senders = senders;
        w.ts = workload::build_transit_stub(w.net, opts, graph_rng, mat);
    }
    layers.build_ms = (cpu_now() - t0) * 1e3;
    t0 = cpu_now();
    {
        auto span = g_spans.scope("unicast");
        w.routing = std::make_unique<unicast::OracleRouting>(w.net);
    }
    layers.unicast_ms = (cpu_now() - t0) * 1e3;
    auto span = g_spans.scope("pim");
    w.stack = std::make_unique<scenario::PimSmStack>(w.net, cfg);
}

/// When the set-up repetitions happen: the first before the window, the
/// others spread evenly over the window's CPU time (after the exact window,
/// so they cannot touch its figures), so the fastest of them can land in a
/// quiet host stretch anywhere in the run.
class SetupSchedule {
public:
    SetupSchedule(int reps, double window_seconds)
        : reps_(reps), window_seconds_(window_seconds) {}

    /// True when the next repetition is due after `log`'s latest slice.
    [[nodiscard]] bool due(const SliceLog& log, std::size_t exact_slices) const {
        if (taken_ == 0 || taken_ >= reps_ || log.count() <= exact_slices) return false;
        return log.cpu_seconds() >= window_seconds_ * taken_ / reps_;
    }
    [[nodiscard]] bool done() const { return taken_ >= reps_; }
    void taken() { ++taken_; }

private:
    int reps_;
    double window_seconds_;
    int taken_ = 0;
};

/// Set-up repetitions of one network workload: each builds and converges a
/// world with the same seed; the first is kept for the window, the others
/// are thrown away. Records set-up CPU seconds and layer times, and fails
/// the run unless every repetition reaches the same fingerprint.
template <typename SetupFn>
class NetworkSetups {
public:
    NetworkSetups(SetupFn setup, double window_seconds, Outcome& out)
        : setup_(setup), schedule_(kSetupReps, window_seconds), out_(&out) {}

    std::unique_ptr<World> first() { return build(); }

    void maybe_more(const SliceLog& log) {
        if (schedule_.due(log, kExactSlices)) build();
    }

    /// Takes any repetitions the window did not reach, then records the
    /// fastest layer times.
    void finish() {
        while (!schedule_.done()) build();
        out_->layer["workload.build_ms"] = fastest(build_);
        out_->layer["unicast.build_ms"] = fastest(unicast_);
        out_->layer["workload.prefill_ms"] = fastest(prefill_);
    }

private:
    std::unique_ptr<World> build() {
        Layers layers;
        const double t0 = cpu_now();
        auto world = std::make_unique<World>();
        setup_(*world, layers);
        out_->setup_s.push_back(cpu_now() - t0);
        schedule_.taken();
        build_.push_back(layers.build_ms);
        unicast_.push_back(layers.unicast_ms);
        prefill_.push_back(layers.prefill_ms);
        const Fingerprint fp = fingerprint(*world);
        if (first_.empty()) {
            first_ = fp;
        } else if (fp != first_) {
            out_->fail("set-up repetitions of one seed converged to different states");
        }
        return world;
    }

    SetupFn setup_;
    SetupSchedule schedule_;
    Outcome* out_;
    Fingerprint first_;
    std::vector<double> build_, unicast_, prefill_;
};

/// Counters the window reads at its edges.
struct NetCounters {
    std::uint64_t events = 0, data_tx = 0, delivered = 0, ctrl = 0;

    static NetCounters of(World& w) {
        auto span = g_spans.scope("topo");
        const stats::NetworkStats& s = w.net.stats();
        return {w.events, s.total_data_packets(), s.data_delivered(), s.total_control_messages()};
    }
};

/// The measured window over a network world: slices of one simulated
/// second, each timed around run_until alone; `after_slice` does untimed
/// bookkeeping. Exact metrics come from the first kExactSlices slices.
template <typename AfterSlice>
void measure_network(World& w, const WindowPlan& plan, SliceLog& log, Outcome& out,
                     bool exact, AfterSlice after_slice) {
    const NetCounters start = NetCounters::of(w);
    NetCounters exact_end;
    while (plan.more(log)) {
        const sim::Time until = w.net.simulator().now() + kSlice;
        const double t0 = cpu_now();
        w.run_until(until);
        log.add(cpu_now() - t0, 1.0);
        auto span = g_spans.scope("bench");
        after_slice();
        if (!exact) continue;
        if (log.count() > kExactSlices) out.time_reference(1);
        if (log.count() == kExactSlices / 2) {
            auto mcast_span = g_spans.scope("mcast");
            out.state_entries = static_cast<double>(w.state_entries());
        }
        if (log.count() == kExactSlices) {
            exact_end = NetCounters::of(w);
            out.peak_rss_mb = peak_rss_mb();
            auto mcast_span = g_spans.scope("mcast");
            out.layer["mcast.entries"] = static_cast<double>(w.state_entries());
            auto telemetry_span = g_spans.scope("telemetry");
            out.layer["telemetry.series"] = static_cast<double>(w.net.telemetry().registry().size());
        }
    }
    if (!exact) return;
    if (log.count() < kExactSlices) {
        out.fail("window closed before the exact window completed");
        return;
    }
    const NetCounters end = NetCounters::of(w);
    const double exact_s = static_cast<double>(kExactSlices * kSlice) / sim::kSecond;
    const std::uint64_t hops = exact_end.data_tx - start.data_tx;
    const std::uint64_t delivered = exact_end.delivered - start.delivered;
    const std::uint64_t ctrl = exact_end.ctrl - start.ctrl;
    out.ctrl_per_sim_s = static_cast<double>(ctrl) / exact_s;
    out.layer["sim.events"] = static_cast<double>(exact_end.events - start.events);
    out.layer["topo.data_hops"] = static_cast<double>(hops);
    out.layer["topo.ctrl_msgs"] = static_cast<double>(ctrl);
    out.layer["topo.tx_per_delivery"] =
        delivered > 0 ? static_cast<double>(hops) / static_cast<double>(delivered) : 0;
    // Host cost per unit of work, over the whole window.
    const double cpu_ns = log.cpu_seconds() * 1e9;
    const auto per = [&](std::uint64_t n) { return n > 0 ? cpu_ns / static_cast<double>(n) : 0.0; };
    out.layer["sim.ns_per_event"] = per(end.events - start.events);
    out.layer["mcast.ns_per_hop"] = per(end.data_tx - start.data_tx);
    out.layer["pim.ns_per_ctrl_msg"] = per(end.ctrl - start.ctrl);
    if (delivered == 0) out.fail("no data was delivered in the exact window");
}

/// The micro-calls after the window (--trace 1): cache finds, RIB lookups,
/// codec and cache fill cost.
void network_micro_calls(World& w, Outcome& out) {
    std::vector<mcast::ForwardingCache*> caches;
    std::vector<CacheKeys> keys;
    double wc = 0, total = 0;
    for (topo::Router* r : w.ts.routers) {
        mcast::ForwardingCache& cache = w.stack->pim_at(*r).cache();
        caches.push_back(&cache);
        keys.push_back(keys_of(cache));
        wc += static_cast<double>(cache.wc_count());
        total += static_cast<double>(cache.size());
    }
    {
        auto span = g_spans.scope("mcast");
        out.layer["mcast.find_ns"] = time_finds(caches, keys, out);
        out.layer["mcast.bytes_per_entry"] = bytes_per_entry(total > 0 ? wc / total : 0.5, 50000);
    }
    {
        auto span = g_spans.scope("unicast");
        std::vector<net::Ipv4Address> dsts;
        for (topo::Router* r : w.ts.routers) dsts.push_back(r->router_id());
        for (const auto& h : w.net.hosts()) dsts.push_back(h->address());
        std::vector<const unicast::Rib*> ribs;
        for (topo::Router* r : w.ts.routers) ribs.push_back(&w.routing->rib_for(*r));
        const std::size_t per_round = ribs.size() * dsts.size();
        const std::size_t rounds = std::max<std::size_t>(1, 400000 / per_round);
        std::size_t found = 0;
        const double t0 = cpu_now();
        for (std::size_t k = 0; k < rounds; ++k) {
            for (const unicast::Rib* rib : ribs) {
                for (const net::Ipv4Address d : dsts) found += rib->lookup(d).has_value();
            }
        }
        const double cpu = cpu_now() - t0;
        if (found != rounds * per_round) out.fail("a router has no unicast route to some destination");
        out.layer["unicast.lookup_ns"] = cpu * 1e9 / static_cast<double>(rounds * per_round);
    }
    auto span = g_spans.scope("pim");
    time_codec(corpus_from(keys), out);
}

/// --trace 1: the second half of the window with the profiler on.
template <typename AfterSlice>
void traced_window(World& w, const Args& args, Outcome& out, AfterSlice after_slice) {
    prof::reset();
    prof::set_enabled(true);
    const WindowPlan plan{args.seconds / 2, 10, args.seconds * kCapFactor};
    measure_network(w, plan, out.traced, out, false, after_slice);
    prof::set_enabled(false);
    out.profile = prof::snapshot();
}

WindowPlan untraced_plan(const Args& args) {
    // The traced run splits --seconds between an untraced and a traced half.
    const double seconds = args.trace ? args.seconds / 2 : args.seconds;
    // The reference is timed beside the slices after the exact window only,
    // and p90 needs ten of those beyond it.
    const std::size_t min_slices = args.trace ? kExactSlices : kExactSlices + min_samples_for(0.9);
    return WindowPlan{seconds, min_slices, args.seconds * kCapFactor};
}

// ---- fanout ----------------------------------------------------------------------------

namespace fanout {

constexpr int kGroups = 4;
constexpr int kMemberLans = 36;     // per group, of 72 stub LANs
constexpr int kSendersPerGroup = 2;
constexpr int kReceiversPerLan = 50;
constexpr double kPacketsPerSecond = 40; // per sender, Poisson
constexpr double kTimeScale = 0.1;       // refresh every 6 simulated seconds
constexpr sim::Time kJoinAt = 1 * sim::kSecond;
constexpr sim::Time kWindowAt = 5 * sim::kSecond;

net::GroupAddress group(int i) {
    return net::GroupAddress{net::Ipv4Address(226, 1, 0, static_cast<std::uint8_t>(i + 1))};
}

graph::TransitStubOptions topology() {
    graph::TransitStubOptions o;
    o.transit_domains = 2;
    o.transit_nodes = 3;
    o.stub_domains = 3;
    o.stub_nodes = 4;
    return o;
}

/// Member LANs per group: fixed with the topology, so the seed moves only
/// the traffic.
std::vector<std::vector<int>> member_lans(int lans) {
    std::mt19937 rng(kGraphSeed + 1);
    std::vector<std::vector<int>> out;
    std::vector<int> all(static_cast<std::size_t>(lans));
    for (int i = 0; i < lans; ++i) all[static_cast<std::size_t>(i)] = i;
    for (int g = 0; g < kGroups; ++g) {
        std::shuffle(all.begin(), all.end(), rng);
        std::vector<int> pick(all.begin(), all.begin() + kMemberLans);
        std::sort(pick.begin(), pick.end());
        out.push_back(std::move(pick));
    }
    return out;
}

void setup(World& w, Layers& layers, std::uint64_t seed) {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    build_base(w, topology(), kGroups * kSendersPerGroup, cfg.scaled(kTimeScale), seed, layers);
    const std::vector<topo::Router*> core = w.ts.transit_routers();
    {
        auto span = g_spans.scope("pim");
        for (int g = 0; g < kGroups; ++g) {
            w.stack->set_rp(group(g), {core[static_cast<std::size_t>(g) % core.size()]->router_id()});
        }
        w.stack->set_spt_policy(pim::SptPolicy::immediate());
    }
    w.run_until(kJoinAt);
    const double t0 = cpu_now();
    {
        auto span = g_spans.scope("workload");
        for (topo::Host* h : w.ts.bank_hosts) {
            w.banks.push_back(std::make_unique<workload::HostBank>(w.stack->host_agent(*h), kReceiversPerLan));
        }
        const auto lans = member_lans(static_cast<int>(w.banks.size()));
        for (int g = 0; g < kGroups; ++g) {
            for (int lan : lans[static_cast<std::size_t>(g)]) {
                w.prefilled += static_cast<std::size_t>(
                    w.banks[static_cast<std::size_t>(lan)]->join(group(g), kReceiversPerLan));
            }
        }
    }
    layers.prefill_ms = (cpu_now() - t0) * 1e3;
    {
        auto span = g_spans.scope("workload");
        std::mt19937_64 seeds(seed);
        for (std::size_t i = 0; i < w.ts.senders.size(); ++i) {
            w.senders.push_back(std::make_unique<PoissonSender>(
                *w.ts.senders[i], group(static_cast<int>(i) % kGroups), kPacketsPerSecond, seeds()));
            w.senders.back()->start();
        }
    }
    w.run_until(kWindowAt);
}

/// Tallies every delivery of a window packet: each member LAN must see each
/// packet sent to its group exactly once.
class DeliveryCheck {
public:
    explicit DeliveryCheck(World& w) : w_(&w) {
        const auto lans = member_lans(static_cast<int>(w.banks.size()));
        member_.assign(w.banks.size(), std::vector<bool>(kGroups, false));
        for (int g = 0; g < kGroups; ++g) {
            for (int lan : lans[static_cast<std::size_t>(g)]) member_[static_cast<std::size_t>(lan)][static_cast<std::size_t>(g)] = true;
        }
        for (std::size_t s = 0; s < w.senders.size(); ++s) {
            by_source_[w.senders[s]->host().address().to_uint()] = s;
            first_seq_.push_back(w.senders[s]->sent());
        }
        seen_.assign(w.banks.size() * w.senders.size(), {});
        for (auto& bank : w.banks) bank->host().clear_received();
    }

    /// Scans and clears every bank host's receive log.
    void scan() {
        for (std::size_t b = 0; b < w_->banks.size(); ++b) {
            topo::Host& host = w_->banks[b]->host();
            for (const topo::Host::ReceivedRecord& rec : host.received()) {
                const auto it = by_source_.find(rec.source.to_uint());
                if (it == by_source_.end()) {
                    ++unexpected_;
                    continue;
                }
                const std::size_t s = it->second;
                const int g = static_cast<int>(s) % kGroups;
                if (!member_[b][static_cast<std::size_t>(g)] || rec.group != group(g)) {
                    ++unexpected_;
                    continue;
                }
                if (rec.seq <= first_seq_[s]) continue; // sent before the window
                seen_[b * w_->senders.size() + s].add(rec.seq - first_seq_[s]);
            }
            host.clear_received();
        }
    }

    /// After the senders stop and the network drains: expected vs. seen.
    void finish(Outcome& out) {
        scan();
        std::uint64_t expected = 0, arrived = 0, duplicates = 0;
        for (std::size_t b = 0; b < w_->banks.size(); ++b) {
            for (std::size_t s = 0; s < w_->senders.size(); ++s) {
                if (!member_[b][s % kGroups]) continue;
                const std::uint64_t sent = w_->senders[s]->sent() - first_seq_[s];
                expected += sent;
                const Stream& seen = seen_[b * w_->senders.size() + s];
                arrived += seen.arrived();
                duplicates += seen.duplicates();
                if (seen.beyond(sent)) ++unexpected_;
            }
        }
        const std::uint64_t missing = expected > arrived ? expected - arrived : 0;
        out.attempted = expected;
        out.failed = missing + duplicates + unexpected_;
        if (expected == 0) out.fail("fanout sent no packets in the window");
        if (out.failed > 0) {
            out.fail("fanout deliveries: " + std::to_string(missing) + " missing, " +
                     std::to_string(duplicates) + " duplicated, " + std::to_string(unexpected_) +
                     " unexpected");
        }
    }

private:
    /// The window sequence numbers (1, 2, ...) one LAN received from one
    /// sender: a contiguous prefix plus any that arrived ahead of a gap, so
    /// in-order delivery costs O(1) memory.
    class Stream {
    public:
        void add(std::uint64_t seq) {
            if (seq == prefix_ + 1 && ahead_.empty()) {
                ++prefix_;
                return;
            }
            if (seq <= prefix_ || !ahead_.insert(seq).second) {
                ++duplicates_;
                return;
            }
            while (!ahead_.empty() && *ahead_.begin() == prefix_ + 1) {
                ahead_.erase(ahead_.begin());
                ++prefix_;
            }
        }
        [[nodiscard]] std::uint64_t arrived() const { return prefix_ + ahead_.size(); }
        [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
        /// True if a sequence number above `sent` arrived.
        [[nodiscard]] bool beyond(std::uint64_t sent) const {
            return prefix_ > sent || (!ahead_.empty() && *ahead_.rbegin() > sent);
        }

    private:
        std::uint64_t prefix_ = 0;
        std::set<std::uint64_t> ahead_;
        std::uint64_t duplicates_ = 0;
    };

    World* w_;
    std::vector<std::vector<bool>> member_;
    std::unordered_map<std::uint32_t, std::size_t> by_source_;
    std::vector<std::uint64_t> first_seq_;
    std::vector<Stream> seen_;
    std::uint64_t unexpected_ = 0;
};

Outcome run(const Args& args) {
    Outcome out;
    out.reference_radius = kReferenceRadiusSlices;
    const WindowPlan plan = untraced_plan(args);
    NetworkSetups setups([&](World& world, Layers& layers) { setup(world, layers, args.seed); },
                         plan.seconds, out);
    auto w = setups.first();
    // Join-to-data of the standing members (first data after each LAN's join).
    for (const auto& bank : w->banks) {
        for (double s : bank->join_to_data_seconds()) out.join_to_data_ms.push_back(s * 1e3);
    }
    DeliveryCheck check(*w);
    measure_network(*w, plan, out.window, out, true, [&] {
        check.scan();
        setups.maybe_more(out.window);
    });
    setups.finish();
    if (args.trace) traced_window(*w, args, out, [&] { check.scan(); });
    for (auto& s : w->senders) s->stop();
    w->run_until(w->net.simulator().now() + 2 * sim::kSecond); // drain in-flight packets
    check.finish(out);
    if (args.trace) network_micro_calls(*w, out);
    return out;
}

} // namespace fanout

// ---- churn -------------------------------------------------------------------------------

namespace churn {

constexpr int kReceivers = 100000;
constexpr double kJoinsPerSecond = 2000;
constexpr int kGroups = 32;
constexpr int kSenders = 4;
constexpr sim::Time kSenderInterval = 250 * sim::kMillisecond;
constexpr double kTimeScale = 0.01;
constexpr sim::Time kWindowAt = 3 * sim::kSecond;

graph::TransitStubOptions topology() {
    graph::TransitStubOptions o;
    o.transit_domains = 2;
    o.transit_nodes = 3;
    o.stub_domains = 3;
    o.stub_nodes = 3;
    return o;
}

void setup(World& w, Layers& layers, std::uint64_t seed) {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    build_base(w, topology(), kSenders, cfg.scaled(kTimeScale), seed, layers);
    {
        auto span = g_spans.scope("pim");
        w.stack->set_spt_policy(pim::SptPolicy::never()); // shared trees only
    }
    workload::ChurnConfig churn_cfg;
    churn_cfg.seed = seed;
    churn_cfg.joins_per_sec = kJoinsPerSecond;
    churn_cfg.session.kind = workload::SessionDuration::Kind::kExponential;
    churn_cfg.session.mean = 2 * sim::kSecond;
    churn_cfg.groups = kGroups;
    churn_cfg.zipf_exponent = 1.0;

    const std::size_t nbanks = w.ts.bank_hosts.size();
    const int capacity = kReceivers / static_cast<int>(nbanks) + 1 + 256;
    std::vector<workload::HostBank*> raw;
    {
        auto span = g_spans.scope("workload");
        for (topo::Host* h : w.ts.bank_hosts) {
            w.banks.push_back(std::make_unique<workload::HostBank>(w.stack->host_agent(*h), capacity));
            raw.push_back(w.banks.back().get());
        }
        w.engine = std::make_unique<workload::ChurnEngine>(w.net, raw, churn_cfg);
    }
    {
        auto span = g_spans.scope("pim");
        const std::vector<topo::Router*> core = w.ts.transit_routers();
        for (int r = 0; r < kGroups; ++r) {
            w.stack->set_rp(w.engine->group(r), {core[static_cast<std::size_t>(r) % core.size()]->router_id()});
        }
    }
    // Prefill as churn_scale does: exactly kReceivers standing members over
    // the popular half of the catalogue by the churn's own Zipf weights.
    const double t0 = cpu_now();
    {
        auto span = g_spans.scope("workload");
        workload::ZipfSampler zipf(kGroups, churn_cfg.zipf_exponent);
        constexpr int kPrefillRanks = kGroups / 2;
        const double norm = zipf.cdf(kPrefillRanks - 1);
        for (std::size_t b = 0; b < nbanks; ++b) {
            const int base = kReceivers / static_cast<int>(nbanks) +
                             (b < static_cast<std::size_t>(kReceivers) % nbanks ? 1 : 0);
            int assigned = 0;
            double prev = 0;
            for (int r = 0; r < kPrefillRanks; ++r) {
                const double share = (zipf.cdf(r) - prev) / norm;
                prev = zipf.cdf(r);
                const int want = static_cast<int>(share * base);
                if (want > 0) assigned += raw[b]->join(w.engine->group(r), want);
            }
            if (assigned < base) assigned += raw[b]->join(w.engine->group(0), base - assigned);
            w.prefilled += static_cast<std::size_t>(assigned);
        }
    }
    layers.prefill_ms = (cpu_now() - t0) * 1e3;
    {
        auto span = g_spans.scope("workload");
        w.engine->start();
        workload::OnOffSenderConfig scfg;
        scfg.on = 2 * sim::kSecond;
        scfg.off = 500 * sim::kMillisecond;
        scfg.interval = kSenderInterval;
        scfg.start = 200 * sim::kMillisecond;
        const int half = static_cast<int>(w.ts.senders.size()) / 2;
        for (std::size_t i = 0; i < w.ts.senders.size(); ++i) {
            // Half on the popular (prefilled) ranks, half on the empty tail,
            // so join-to-data sees both standing and on-demand trees.
            const int rank = static_cast<int>(i) < half ? static_cast<int>(i)
                                                        : kGroups / 2 + static_cast<int>(i) - half;
            w.onoff.push_back(std::make_unique<workload::OnOffSender>(*w.ts.senders[i], w.engine->group(rank), scfg));
            w.onoff.back()->start();
        }
    }
    w.run_until(kWindowAt);
}

Outcome run(const Args& args) {
    Outcome out;
    out.reference_radius = kReferenceRadiusSlices;
    const WindowPlan plan = untraced_plan(args);
    NetworkSetups setups([&](World& world, Layers& layers) { setup(world, layers, args.seed); },
                         plan.seconds, out);
    auto w = setups.first();
    workload::ChurnEngine& engine = *w->engine;
    const std::uint64_t joins0 = engine.joins(), saturated0 = engine.saturated_joins();
    const std::size_t samples0 = engine.join_to_data_seconds().size();
    std::size_t samples1 = 0;
    std::uint64_t exact_joins = 0;
    const auto after_slice = [&] {
        // Bank hosts keep a log of every packet they accept; only its growth
        // matters here.
        for (auto& bank : w->banks) bank->host().clear_received();
        if (out.window.count() == kExactSlices && samples1 == 0) {
            samples1 = engine.join_to_data_seconds().size();
            exact_joins = engine.joins() - joins0;
        }
    };
    measure_network(*w, plan, out.window, out, true, [&] {
        after_slice();
        setups.maybe_more(out.window);
    });
    setups.finish();
    if (args.trace) traced_window(*w, args, out, after_slice);
    const std::vector<double>& j2d = engine.join_to_data_seconds();
    for (std::size_t i = samples0; i < samples1; ++i) out.join_to_data_ms.push_back(j2d[i] * 1e3);
    out.failed = engine.saturated_joins() - saturated0;
    out.attempted = (engine.joins() - joins0) + out.failed;
    // churn_scale --check's sanity floors, over the exact window.
    if (exact_joins == 0) out.fail("churn: no joins in the exact window");
    if (w->prefilled + engine.membership_peak() < static_cast<std::size_t>(kReceivers)) {
        out.fail("churn: membership peak below the prefilled population");
    }
    if (out.join_to_data_ms.empty()) out.fail("churn: no join-to-data samples");
    if (out.failed > 0) out.fail("churn: " + std::to_string(out.failed) + " joins refused as saturated");
    if (args.trace) network_micro_calls(*w, out);
    return out;
}

} // namespace churn

// ---- explore -------------------------------------------------------------------------------

namespace explore {

const char* const kScenario = "walkthrough";
// Replays per call. The baseline's first eight children are its fault flips;
// the other 16 are drawn by the call's seed from its ~3500 message flips, so
// the seed steers two thirds of every call. 25 is about the largest call of
// which the 112 a window needs fit a 30 s window; per replay it costs the
// same as pimcheck --smoke's 50- and 150-run calls (NOTES.md).
constexpr std::size_t kRunsPerCall = 25;
constexpr std::size_t kExactCalls = 20;
constexpr int kSetupReplays = 301;
// A call is ~12 network slices of CPU: as many reference batches per call,
// and each call read against its neighbours on either side.
constexpr int kReferenceBatchesPerCall = 12;
constexpr std::size_t kReferenceRadiusCalls = 1;
// Far above any call's duration: a call must end on max_runs, and one that
// does not is a failed run, so the work done never depends on host speed.
constexpr double kTimeBudgetSeconds = 3600;

std::uint64_t call_seed(std::uint64_t seed, std::size_t call) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + call + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

struct Frames {
    std::uint64_t data = 0, ctrl = 0;
};

Frames frames_of(const check::RunResult& r) {
    Frames f;
    for (const check::ChoiceRec& rec : r.trace) {
        if (rec.point.kind != sim::ChoicePoint::Kind::kFrameLoss) continue;
        (rec.point.control ? f.ctrl : f.data) += 1;
    }
    return f;
}

/// The unforced replay's caches rebuilt from its final MRIB, so the find
/// and codec micro-calls see the run's own keys.
std::vector<CacheKeys> keys_from_mrib(const telemetry::MribSnapshot& mrib, Outcome& out) {
    std::vector<CacheKeys> keys;
    for (const telemetry::RouterMrib& r : mrib.routers) {
        CacheKeys k;
        for (const telemetry::EntrySnapshot& e : r.entries) {
            const auto a = net::Ipv4Address::parse(e.source_or_rp);
            const auto g = net::Ipv4Address::parse(e.group);
            if (!a || !g) {
                out.fail("unparseable MRIB entry " + e.key());
                continue;
            }
            if (e.wildcard) {
                k.wc.push_back(net::GroupAddress{*g});
                k.wc_rp.push_back(*a);
            } else {
                k.sg.emplace_back(*a, net::GroupAddress{*g});
            }
        }
        keys.push_back(std::move(k));
    }
    return keys;
}

Outcome run(const Args& args) {
    Outcome out;
    // Set-up: the first, unforced replay. It repeats, spread over the window
    // like the network workloads' set-ups, and every repetition must agree.
    check::RunResult base;
    const auto replay = [&] {
        const double t0 = cpu_now();
        check::RunResult r;
        {
            auto span = g_spans.scope("check");
            r = check::run_scenario(kScenario, check::RunConfig{});
        }
        out.setup_s.push_back(cpu_now() - t0);
        if (!r.violations.empty() || !r.clean || !r.converged) {
            out.fail("the unforced walkthrough replay is not clean and converged");
        }
        if (out.setup_s.size() == 1) {
            base = std::move(r);
        } else if (r.events != base.events || r.trace.size() != base.trace.size() ||
                   r.final_mrib.hash() != base.final_mrib.hash() ||
                   r.state_hashes != base.state_hashes) {
            out.fail("unforced replays of one scenario diverged");
        }
    };
    WindowPlan plan = untraced_plan(args);
    plan.min_slices = std::max(plan.min_slices, kExactCalls);
    out.reference_radius = kReferenceRadiusCalls;
    SetupSchedule schedule(kSetupReplays, plan.seconds);
    replay();
    schedule.taken();
    telemetry::Registry registry;
    std::size_t calls = 0;
    std::uint64_t exact_runs = 0, exact_states = 0;
    const auto measure = [&](const WindowPlan& window, SliceLog& log) {
        while (window.more(log)) {
            check::ExploreOptions opts;
            opts.scenario = kScenario;
            opts.max_runs = kRunsPerCall;
            opts.time_budget_seconds = kTimeBudgetSeconds;
            opts.threads = 1;
            opts.seed = call_seed(args.seed, calls);
            opts.metrics = &registry;
            const double t0 = cpu_now();
            check::ExploreReport report;
            {
                auto span = g_spans.scope("check");
                report = check::explore(opts);
            }
            log.add(cpu_now() - t0, static_cast<double>(report.runs));
            auto span = g_spans.scope("bench");
            ++calls;
            if (&log == &out.window && calls > kExactCalls) out.time_reference(kReferenceBatchesPerCall);
            const ExploreEnd end = classify_explore_end(report.runs, opts.max_runs, report.frontier_exhausted);
            if (end != ExploreEnd::kMaxRuns) {
                out.fail(std::string("explore call ended on ") + to_string(end) + ", not max_runs");
            }
            out.attempted += report.runs;
            out.failed += report.violating_runs;
            if (calls <= kExactCalls) {
                exact_runs += report.runs;
                exact_states += report.deduped_states;
                if (calls == kExactCalls) {
                    out.peak_rss_mb = peak_rss_mb();
                    auto telemetry_span = g_spans.scope("telemetry");
                    out.layer["telemetry.series"] = static_cast<double>(registry.size());
                }
            }
            if (&log == &out.window && schedule.due(log, kExactCalls)) {
                replay();
                schedule.taken();
            }
        }
    };
    measure(plan, out.window);
    while (!schedule.done()) {
        replay();
        schedule.taken();
    }
    if (calls < kExactCalls) out.fail("window closed before the exact window completed");
    const Frames frames = frames_of(base);
    const double end_s = static_cast<double>(base.end_time) / sim::kSecond;
    out.ctrl_per_sim_s = end_s > 0 ? static_cast<double>(frames.ctrl) / end_s : 0;
    out.state_entries = static_cast<double>(base.final_mrib.entry_count());
    const double replay_ns = fastest(out.setup_s) * 1e9;
    out.layer["sim.events"] = static_cast<double>(base.events);
    out.layer["sim.ns_per_event"] = base.events > 0 ? replay_ns / static_cast<double>(base.events) : 0;
    out.layer["topo.data_hops"] = static_cast<double>(frames.data);
    out.layer["topo.ctrl_msgs"] = static_cast<double>(frames.ctrl);
    out.layer["mcast.ns_per_hop"] = frames.data > 0 ? replay_ns / static_cast<double>(frames.data) : 0;
    out.layer["pim.ns_per_ctrl_msg"] = frames.ctrl > 0 ? replay_ns / static_cast<double>(frames.ctrl) : 0;
    out.layer["mcast.entries"] = out.state_entries;
    if (out.failed > 0) out.fail("explore found " + std::to_string(out.failed) + " violating replays on the clean protocol");
    out.layer["check.runs"] = static_cast<double>(exact_runs);
    out.layer["check.states"] = static_cast<double>(exact_states);
    out.layer["check.replay_ms"] = 1e3 / out.window.work_per_cpu_second();
    if (args.trace) {
        prof::reset();
        prof::set_enabled(true);
        measure(WindowPlan{args.seconds / 2, 10, args.seconds * kCapFactor}, out.traced);
        prof::set_enabled(false);
        out.profile = prof::snapshot();

        const std::vector<CacheKeys> keys = keys_from_mrib(base.final_mrib, out);
        std::vector<std::unique_ptr<mcast::ForwardingCache>> owned;
        std::vector<mcast::ForwardingCache*> caches;
        double wc = 0, total = 0;
        for (const CacheKeys& k : keys) {
            owned.push_back(std::make_unique<mcast::ForwardingCache>());
            for (std::size_t i = 0; i < k.wc.size(); ++i) owned.back()->ensure_wc(k.wc_rp[i], k.wc[i]);
            for (const auto& [s, g] : k.sg) owned.back()->ensure_sg(s, g);
            caches.push_back(owned.back().get());
            wc += static_cast<double>(k.wc.size());
            total += static_cast<double>(k.wc.size() + k.sg.size());
        }
        {
            auto span = g_spans.scope("mcast");
            out.layer["mcast.find_ns"] = time_finds(caches, keys, out);
            out.layer["mcast.bytes_per_entry"] = bytes_per_entry(total > 0 ? wc / total : 0.5, 50000);
        }
        auto span = g_spans.scope("pim");
        time_codec(corpus_from(keys), out);
    }
    return out;
}

} // namespace explore

// ---- reporting ----------------------------------------------------------------------------------

const char* const kZones[] = {"sim.dispatch",      "sim.wheel.cascade", "dataplane.forward",
                              "dataplane.replicate", "control.pim_sm",  "control.igmp",
                              "workload.churn",    "check.explore"};
const char* const kLayers[] = {"bench", "sim", "topo", "mcast", "pim",
                               "unicast", "workload", "telemetry", "check"};

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
std::vector<std::pair<std::string, std::string>> per_layer_names() {
    std::vector<std::pair<std::string, std::string>> names = {
        {"bench.slices", "count"},
        {"host.reference_ms", "ms"},
        {"bench.slice_ms_p50", "ms"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"topo.data_hops", "count"},
        {"topo.ctrl_msgs", "count"},
        {"topo.tx_per_delivery", "ratio"},
        {"mcast.ns_per_hop", "ns"},
        {"mcast.find_ns", "ns"},
        {"mcast.entries", "count"},
        {"mcast.bytes_per_entry", "B"},
        {"pim.ns_per_ctrl_msg", "ns"},
        {"pim.codec.encode_ns", "ns"},
        {"pim.codec.decode_ns", "ns"},
        {"unicast.build_ms", "ms"},
        {"unicast.lookup_ns", "ns"},
        {"workload.build_ms", "ms"},
        {"workload.prefill_ms", "ms"},
        {"workload.join_to_data_ms_p50", "sim_ms"},
        {"workload.join_to_data_ms_p90", "sim_ms"},
        {"telemetry.series", "count"},
        {"check.runs", "count"},
        {"check.states", "count"},
        {"check.replay_ms", "ms"},
    };
    for (const char* layer : kLayers) names.emplace_back(std::string(layer) + ".self_ms", "ms");
    for (const char* zone : kZones) names.emplace_back(std::string("zone.") + zone + ".excl_ms", "ms");
    names.emplace_back("profile.unattributed_share", "ratio");
    names.emplace_back("profile.overhead_pct", "%");
    names.emplace_back("profile.dataplane_to_control", "ratio");
    return names;
}

/// Host time as it would read on the nominal host (host_reference.hpp),
/// over the slices the reference was timed beside. Every slice of a
/// workload does the same number of work units, so the rate is 1000 ÷ the
/// mean CPU ms per unit.
std::vector<Metric> end_to_end(const Outcome& out) {
    const std::vector<double> slices = out.nominal_slices();
    const double mean_ms =
        slices.empty() ? 0.0 : std::accumulate(slices.begin(), slices.end(), 0.0) / static_cast<double>(slices.size());
    return {
        {"setup_s", out.nominal_setup_s(), "s"},
        {"work_per_cpu_s", mean_ms > 0 ? 1e3 / mean_ms : 0.0, "1/s"},
        {"slice_ms_p90", quantile(slices, 0.9), "ms"},
        {"peak_rss_mb", out.peak_rss_mb, "MB"},
        {"ctrl_per_sim_s", out.ctrl_per_sim_s, "1/s"},
        {"state_entries", out.state_entries, "count"},
        {"ok_share", 1.0 - failed_share(out.failed, out.attempted).value_or(1.0), "ratio"},
    };
}

std::vector<Metric> per_layer(Outcome& out) {
    std::map<std::string, double>& v = out.layer;
    v["bench.slices"] = static_cast<double>(out.window.count());
    v["host.reference_ms"] = quantile(out.reference_ms, 0.5);
    v["bench.slice_ms_p50"] = quantile(out.window.ms_per_unit(), 0.5);
    if (!out.join_to_data_ms.empty()) {
        v["workload.join_to_data_ms_p50"] = quantile(out.join_to_data_ms, 0.5);
        v["workload.join_to_data_ms_p90"] = quantile(out.join_to_data_ms, 0.9);
        if (out.join_to_data_ms.size() < min_samples_for(0.9)) {
            out.fail("join-to-data has too few samples for p90");
        }
    }
    for (const auto& [layer, ms] : g_spans.self_ms()) v[layer + ".self_ms"] = ms;
    std::int64_t total_ns = 0;
    std::map<std::string, double> excl;
    for (const prof::ZoneStat& z : out.profile.zones) {
        total_ns += z.exclusive_ns;
        excl[z.zone] = static_cast<double>(z.exclusive_ns) * 1e-6;
    }
    for (const char* zone : kZones) v[std::string("zone.") + zone + ".excl_ms"] = excl[zone];
    v["profile.unattributed_share"] = total_ns > 0 ? excl["sim.dispatch"] * 1e6 / static_cast<double>(total_ns) : 0;
    const double traced = out.traced.work_per_cpu_second();
    v["profile.overhead_pct"] = traced > 0 ? (out.window.work_per_cpu_second() / traced - 1.0) * 100.0 : 0;
    const double control = excl["control.pim_sm"] + excl["control.igmp"];
    v["profile.dataplane_to_control"] =
        control > 0 ? (excl["dataplane.forward"] + excl["dataplane.replicate"]) / control : 0;

    std::vector<Metric> metrics;
    for (const auto& [name, unit] : per_layer_names()) {
        const auto it = v.find(name);
        metrics.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    }
    return metrics;
}

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty()) return false;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 60)) return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return false;
            args.trace = value == "1";
        } else {
            return false;
        }
    }
    return args.workload == "fanout" || args.workload == "churn" || args.workload == "explore";
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr, "usage: perfbench --workload fanout|churn|explore --seed N "
                             "--seconds S(0<S<=60) --trace 0|1\n");
        return 2;
    }
    g_spans.set_enabled(args.trace);
    Outcome out = args.workload == "fanout"  ? fanout::run(args)
                  : args.workload == "churn" ? churn::run(args)
                                             : explore::run(args);
    std::vector<Metric> metrics = args.trace ? per_layer(out) : end_to_end(out);
    if (args.trace) {
        // The untraced end-to-end figures ride along on a human line.
        for (const Metric& m : end_to_end(out)) {
            std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
    }
    if (args.trace && args.workload != "explore") {
        // Layer isolation: fanout should spend >= 3x the control planes' CPU
        // in the data plane, churn <= 1/3 of it.
        const double split = out.layer["profile.dataplane_to_control"];
        const bool holds = args.workload == "fanout" ? split >= 3.0 : split <= 1.0 / 3.0;
        std::printf("# layer split dataplane/control = %.4g (%s)\n", split,
                    holds ? "holds" : "DOES NOT HOLD");
        if (!holds) out.fail("the dataplane/control split does not isolate the workload's layer");
    }
    std::printf("# workload=%s seed=%llu slices=%zu window_cpu_s=%.3f attempted=%llu failed=%llu\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                out.window.count(), out.window.cpu_seconds(),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (const Metric& m : metrics) {
        std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# raw host time: setup_s %.6g s, work_per_cpu_s %.6g 1/s, slice_ms_p90 %.6g ms; "
                "reference median %.4g ms over %zu slices\n",
                fastest(out.setup_s), out.window.work_per_cpu_second(),
                quantile(out.timed_slices(), 0.9), quantile(out.reference_ms, 0.5),
                out.reference_ms.size());
    if (out.attempted == 0) out.fail("nothing was attempted");
    const auto line = result_line(out.correct, std::max<std::uint64_t>(out.attempted, 1),
                                  out.failed, metrics);
    if (!line) {
        std::fprintf(stderr, "perfbench: a metric is malformed; no result line\n");
        return 1;
    }
    std::printf("%s\n", line->c_str());
    return 0; // the result line carries correctness
}
