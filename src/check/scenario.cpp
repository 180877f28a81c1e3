#include "check/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "check/invariants.hpp"
#include "check/watchdog.hpp"
#include "fault/fault_injector.hpp"
#include "provenance/provenance.hpp"
#include "scenario/script.hpp"
#include "stats/counters.hpp"
#include "topo/host.hpp"
#include "topo/network.hpp"
#include "topo/router.hpp"
#include "topo/segment.hpp"
#include "trace/timeline.hpp"
#include "trace/tracer.hpp"

namespace pimlib::check {

/// Name and text of every world script, in scenario_names() order
/// (check/worlds.cpp, generated from examples/scenarios at build time).
extern const std::vector<std::pair<std::string, std::string>> kWorldScripts;

namespace {

constexpr sim::Time kMs = sim::kMillisecond;

// Convergence probes after stimuli stop: one join/prune interval each.
constexpr int kConvergenceProbes = 12;

void add_violation(RunResult& out, std::string oracle, std::string detail) {
    out.violations.push_back(Violation{std::move(oracle), std::move(detail)});
}

void append(RunResult& out, std::vector<Violation> found) {
    for (Violation& v : found) out.violations.push_back(std::move(v));
}

/// Dedup key for an explored state. This is a timed protocol, so the
/// global state is (clock, configuration): two branches that reach the
/// same MRIB structure at different points of the schedule are different
/// states — one of them still has timers and in-flight messages the other
/// has already consumed. splitmix64-style finalizer over both.
std::uint64_t timed_state_key(sim::Time t, std::uint64_t structural) {
    std::uint64_t x =
        static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ull ^ structural;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/// Snapshot → protocol-neutral view for the shared per-entry oracle.
EntryView entry_view(const telemetry::EntrySnapshot& e) {
    EntryView view;
    view.wildcard = e.wildcard;
    view.rp_bit = e.rp_bit;
    view.iif = e.iif;
    if (const auto root = net::Ipv4Address::parse(e.source_or_rp)) {
        view.root = *root;
        view.root_known = true;
    }
    for (const telemetry::OifSnapshot& oif : e.oifs) view.oifs.push_back(oif.ifindex);
    return view;
}

/// Every surviving entry's iif must agree with the unicast RPF oracle
/// toward its root, an RP-bit entry must shadow a live (*,G) (footnote 13),
/// and no entry may list its own iif as an oif. The per-entry rules live in
/// check/invariants.hpp, shared with the online iif-rpf watchdog.
void check_iif_consistency(RunResult& out, const telemetry::MribSnapshot& snap,
                           const scenario::World& world) {
    for (const telemetry::RouterMrib& r : snap.routers) {
        const topo::Router* router = world.find_router(r.router);
        if (router == nullptr || world.faults->is_crashed(*router)) continue;
        for (const telemetry::EntrySnapshot& e : r.entries) {
            const EntryView view = entry_view(e);
            EntryView shadow;
            bool has_shadow = false;
            if (!e.wildcard && e.rp_bit) {
                for (const telemetry::EntrySnapshot& other : r.entries) {
                    if (other.wildcard && other.group == e.group) {
                        shadow = entry_view(other);
                        has_shadow = true;
                    }
                }
            }
            for (const std::string& problem : entry_iif_problems(
                     *router, view, has_shadow ? &shadow : nullptr)) {
                add_violation(out, "iif-consistency",
                              r.router + " " + e.key() + ": " + problem);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

/// A world script, parsed once per process, and what the checker derives
/// from it.
struct LoadedWorld {
    std::string text;
    scenario::Script script;
    ScenarioInfo info;
    std::vector<std::string> segment_names; // info.segments' names
    /// The first join's group: the data the crossing tap and tracer follow.
    net::GroupAddress group;
    std::vector<std::string> members; // hosts that join it, each once

    LoadedWorld(const std::string& name, const std::string& script_text)
        : text(script_text), script(script_text) {
        const scenario::World& w = script.parsed();
        const auto routers_on = [&w](const topo::Segment& segment) {
            std::vector<std::string> routers;
            for (const topo::Segment::Attachment& at : segment.attachments()) {
                if (w.find_router(at.node->name()) != nullptr) routers.push_back(at.node->name());
            }
            return routers;
        };
        const auto add = [](std::vector<std::string>& to, const std::string& item) {
            if (std::find(to.begin(), to.end(), item) == to.end()) to.push_back(item);
        };
        std::map<const topo::Segment*, std::string> lans; // the topology block's names
        if (w.topo) {
            for (const auto& [lan_name, lan] : w.topo->lans()) lans[lan] = lan_name;
        }
        info.name = name;
        for (const auto& segment : w.net.segments()) {
            ScenarioInfo::Segment seg{"", routers_on(*segment), lans.contains(segment.get())};
            for (const std::string& router : seg.routers) {
                seg.name += (seg.name.empty() ? "" : "-") + router; // "A-C" for a link
            }
            if (seg.lan) seg.name = lans.at(segment.get());
            segment_names.push_back(seg.name);
            info.segments.push_back(std::move(seg));
        }
        for (const scenario::FaultSlot& slot : script.fault_slots()) {
            info.fault_slots.push_back(slot.at);
            for (const scenario::FaultCandidate& cand : slot.candidates) {
                add(info.fault_candidates, cand.label);
                for (const std::string& router : cand.routers) add(info.critical_routers, router);
            }
        }
        info.horizon = script.duration();
        if (!script.joins().empty()) group = script.joins().front().second;
        for (const auto& [host, joined] : script.joins()) {
            if (joined != group) continue;
            add(members, host);
            const topo::Segment& lan = *w.host_ref(host).interfaces().front().segment;
            for (const std::string& router : routers_on(lan)) add(info.member_routers, router);
        }
    }
};

const LoadedWorld& world_named(const std::string& name) {
    struct Slot {
        std::once_flag once;
        std::unique_ptr<const LoadedWorld> world;
    };
    static std::vector<Slot> slots(kWorldScripts.size());
    for (std::size_t i = 0; i < kWorldScripts.size(); ++i) {
        if (kWorldScripts[i].first != name) continue;
        std::call_once(slots[i].once, [i] {
            slots[i].world = std::make_unique<const LoadedWorld>(kWorldScripts[i].first,
                                                           kWorldScripts[i].second);
        });
        return *slots[i].world;
    }
    assert(false && "unknown scenario; validate against scenario_names()");
    std::abort();
}

/// Shared per-run driver state: recorder, crossing tap, checkpointing and
/// the convergence probe loop.
struct Driver {
    topo::Network& net;
    RunResult& out;
    const RunConfig& cfg;
    ChoiceRecorder recorder;
    CrossingMap crossings;
    std::unique_ptr<trace::PacketTracer> tracer;
    std::unique_ptr<provenance::Recorder> flight_recorder;
    std::unique_ptr<Watchdog> watchdog;

    Driver(topo::Network& n, RunResult& o, const RunConfig& c,
           net::Ipv4Address data_source, net::GroupAddress group)
        : net(n), out(o), cfg(c), recorder(c.choices) {
        recorder.bind(net.simulator());
        net.simulator().set_choice_source(&recorder);
        net.add_packet_tap([this, data_source](const topo::Segment& seg,
                                               const net::Frame& frame) {
            if (frame.packet.proto != net::IpProto::kUdp) return;
            if (!frame.packet.is_multicast()) return;
            if (frame.packet.src != data_source) return;
            ++crossings[{frame.packet.seq, seg.id()}];
        });
        if (cfg.collect_trace) {
            tracer = std::make_unique<trace::PacketTracer>(net);
            tracer->set_group_filter(group);
            net.telemetry().set_tracing(true); // timeline needs events + spans
        }
        if (cfg.collect_trace || cfg.collect_provenance) {
            flight_recorder = std::make_unique<provenance::Recorder>(
                net.telemetry().registry(), provenance::RecorderConfig{});
            net.set_provenance(flight_recorder.get());
        }
    }

    ~Driver() {
        net.simulator().set_choice_source(nullptr);
        if (flight_recorder) net.set_provenance(nullptr);
    }

    /// Called after the oracles ran: a failing branch with a recorder
    /// attached emits the merged flight-recorder contents as its post-
    /// mortem, plus a one-line per-router drop summary.
    void emit_postmortem() {
        if (!flight_recorder || out.violations.empty()) return;
        out.provenance_dump = flight_recorder->dump_json();
        out.provenance_summary = flight_recorder->drop_summary();
    }

    /// Runs the online invariant watchdogs alongside the offline oracles.
    /// The lan-delivery gap detector is disarmed on branches that force
    /// choices or faults — loss is then expected, exactly the offline
    /// oracles' "clean branch" discipline (duplicate and structural checks
    /// stay live everywhere).
    void attach_watchdog(scenario::StackBase& stack) {
        if (!cfg.watchdog) return;
        watchdog = std::make_unique<Watchdog>(
            net, [&stack](const topo::Router& r) { return stack.cache_of(r); });
        if (flight_recorder) watchdog->set_recorder(flight_recorder.get());
        bool loss_possible = !cfg.forced_fault.empty();
        for (const Pick& pick : cfg.choices) {
            if (pick.value != 0) loss_possible = true;
        }
        watchdog->set_loss_expected(loss_possible);
        watchdog->start();
    }

    /// Resolves RunConfig::forced_loss segment names against the world's
    /// segment table and arms the recorder's loss windows.
    void arm_forced_loss(const std::vector<std::string>& segment_names) {
        if (cfg.forced_loss.empty()) return;
        std::vector<LossWindow> windows;
        for (const ForcedLoss& loss : cfg.forced_loss) {
            const auto it = std::find(segment_names.begin(), segment_names.end(),
                                      loss.segment);
            if (it == segment_names.end()) continue;
            windows.push_back(LossWindow{
                static_cast<int>(std::distance(segment_names.begin(), it)),
                loss.from, loss.to});
        }
        recorder.set_loss_windows(std::move(windows));
    }

    /// Installs one decision point per fault slot. Alternative 0 is "no
    /// fault"; alternative j fires candidate j-1 and schedules its repair.
    void arm_fault_slots(scenario::World& world,
                         const std::vector<scenario::FaultSlot>& slots) {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const scenario::FaultSlot& slot = slots[i];
            net.simulator().schedule_at(slot.at, [this, &world, &slot, i] {
                const auto fire = [&](const scenario::FaultCandidate& cand) {
                    cand.inject(world);
                    if (!cand.undo) return;
                    net.simulator().schedule_at(net.simulator().now() + cand.repair_after,
                                                [&world, &cand] { cand.undo(world); });
                };
                if (!cfg.forced_fault.empty()) {
                    if (i != 0) return;
                    for (const scenario::FaultCandidate& cand : slot.candidates) {
                        if (cand.label == cfg.forced_fault) fire(cand);
                    }
                    return;
                }
                const std::size_t pick = recorder.choose(
                    slot.candidates.size() + 1,
                    sim::ChoicePoint{sim::ChoicePoint::Kind::kFault,
                                     static_cast<int>(i)});
                if (pick > 0) fire(slot.candidates[pick - 1]);
            });
        }
    }

    /// Advances the simulation to `until`, hashing the global MRIB every
    /// checkpoint interval along the way.
    void checkpoint_until(sim::Time until, scenario::StackBase& stack) {
        sim::Time t = net.simulator().now();
        const sim::Time step = cfg.checkpoint_every > 0 ? cfg.checkpoint_every
                                                        : 10 * kMs;
        while (t < until) {
            t = std::min(until, t + step);
            out.events += net.simulator().run_until(t);
            out.state_hashes.push_back(
                timed_state_key(t, stack.capture_mrib().hash()));
        }
    }

    /// Runs probe intervals until the global MRIB is stable (empty
    /// structural diff) or revisits an earlier probe state (a recurrent
    /// soft-state orbit — decaying caches re-established by periodic joins
    /// cycle through a small state set; that still counts as converged).
    /// Leaves the last capture in out.final_mrib.
    void probe_convergence(scenario::StackBase& stack, sim::Time probe_interval) {
        telemetry::MribSnapshot prev = stack.capture_mrib();
        std::vector<std::uint64_t> probe_hashes{prev.hash()};
        bool converged = false;
        for (int round = 0; round < kConvergenceProbes && !converged; ++round) {
            out.events +=
                net.simulator().run_until(net.simulator().now() + probe_interval);
            telemetry::MribSnapshot next = stack.capture_mrib();
            const std::uint64_t h = next.hash();
            out.state_hashes.push_back(timed_state_key(net.simulator().now(), h));
            if (telemetry::diff(prev, next).empty()) {
                converged = true;
            } else if (std::find(probe_hashes.begin(), probe_hashes.end(), h) !=
                       probe_hashes.end()) {
                converged = true;
            }
            probe_hashes.push_back(h);
            prev = std::move(next);
        }
        out.converged = converged;
        if (!converged) {
            add_violation(out, "convergence",
                          "global MRIB neither stabilized nor revisited a state "
                          "within " +
                              std::to_string(kConvergenceProbes) +
                              " probe intervals after stimuli stopped");
        }
        out.final_mrib = std::move(prev);
    }

    void finish() {
        out.trace = recorder.trace();
        out.choices_applied = recorder.fully_applied();
        out.end_time = net.simulator().now();
        if (!cfg.forced_fault.empty()) out.clean = false;
        for (const ChoiceRec& rec : out.trace) {
            if (rec.pick != 0 &&
                rec.point.kind != sim::ChoicePoint::Kind::kEventOrder) {
                out.clean = false;
            }
        }
        if (tracer) out.trace_dump = tracer->dump();
        if (watchdog) {
            watchdog->stop();
            out.watchdog_report = watchdog->dump();
            out.watchdog_count = watchdog->violations().size();
        }
        if (cfg.collect_trace) {
            out.timeline_json =
                trace::chrome_timeline_json(net.telemetry(), flight_recorder.get());
        }
    }
};

/// The oracles judged at the deadline, before the convergence probes run on:
/// a bootstrap refresh lost during the probe tail may legitimately leave
/// expired state whose repair the next period owes (the §3.4 soft-state
/// discipline), and reading live agents there would turn that transient
/// into a false violation.
std::vector<Violation> judge_at_deadline(const scenario::Script& script, scenario::World& w) {
    std::vector<Violation> out;
    std::map<std::string, const topo::Router*> live; // by name
    for (const auto& router : w.net.routers()) {
        if (!w.faults->is_crashed(*router)) live[router->name()] = router.get();
    }
    for (const scenario::Oracle& o : script.oracles()) {
        std::vector<Violation> found;
        if (o.name == "rp-failover" || o.name == "bsr-rp-rehoming") {
            // §3.9: members root at the primary RP, or at the backup once
            // the primary has crashed.
            const bool crashed = !live.contains(o.rp);
            const std::string want =
                w.router_ref(crashed ? o.backup : o.rp).router_id().to_string();
            found = rehoming_violations(o.name, w.stack->capture_mrib(), o.args, want,
                                        crashed ? " (" + o.rp + " crashed)" : "");
        } else if (o.name == "exactly-one-bsr") {
            // Every live router holds the same elected-BSR view, and
            // exactly one live router claims the role.
            net::Ipv4Address elected;
            int claims = 0;
            for (const auto& [name, router] : live) {
                pim::BootstrapAgent& agent = w.pim_sm->bootstrap_at(*router);
                if (agent.elected_bsr().is_unspecified()) {
                    found.push_back({o.name, name + " has no elected-BSR view at the deadline"});
                    continue;
                }
                if (elected.is_unspecified()) {
                    elected = agent.elected_bsr();
                } else if (agent.elected_bsr() != elected) {
                    found.push_back({o.name, name + " elected " + agent.elected_bsr().to_string() +
                                                 " while others elected " + elected.to_string()});
                }
                if (agent.is_elected_bsr()) ++claims;
            }
            if (claims != 1) {
                found.push_back({o.name, std::to_string(claims) +
                                             " live router(s) claim the BSR role, want exactly 1"});
            }
        } else if (o.name == "rp-set-agreement") {
            // The learned set maps the group to the same non-empty RP list
            // on every live router.
            const net::GroupAddress group{*net::Ipv4Address::parse(o.args.front())};
            std::map<std::string, std::vector<net::Ipv4Address>> derived;
            for (const auto& [name, router] : live) {
                derived[name] = w.pim_sm->pim_at(*router).rp_set().rps_for(group);
            }
            found = rp_agreement_violations(derived, o.args.front());
        }
        for (Violation& v : found) out.push_back(std::move(v));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Replay script emission
// ---------------------------------------------------------------------------

std::string format_time(sim::Time t) {
    return t % kMs == 0 ? std::to_string(t / kMs) + "ms"
                        : std::to_string(t / sim::kMicrosecond) + "us";
}

std::string describe_choice(const LoadedWorld& world, std::uint32_t index, const ChoiceRec& rec) {
    std::string what;
    switch (rec.point.kind) {
    case sim::ChoicePoint::Kind::kEventOrder:
        what = "fire queued event " + std::to_string(rec.pick + 1) + " of " +
               std::to_string(rec.alternatives) + " tied at this instant";
        break;
    case sim::ChoicePoint::Kind::kFrameLoss: {
        const auto seg = static_cast<std::size_t>(rec.point.detail);
        what = "drop the frame crossing segment " +
               (seg < world.segment_names.size() ? world.segment_names[seg]
                                                 : std::to_string(rec.point.detail));
        break;
    }
    case sim::ChoicePoint::Kind::kFault:
        what = "inject fault " +
               world.script.fault_slots()
                   .at(static_cast<std::size_t>(rec.point.detail))
                   .candidates.at(rec.pick - 1)
                   .label +
               " at slot " + std::to_string(rec.point.detail);
        break;
    }
    return "choice " + std::to_string(index) + " at t=" + format_time(rec.at) + ": " + what;
}

} // namespace

const std::vector<std::string>& scenario_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto& [name, text] : kWorldScripts) v.push_back(name);
        return v;
    }();
    return names;
}

const ScenarioInfo& scenario_info(const std::string& name) {
    return world_named(name).info;
}

const std::vector<std::string>& known_mutations() {
    static const std::vector<std::string> names = {
        "skip-spt-bit-handshake", "no-rp-bit-prune",
        "assert-loser-keeps-forwarding", "stale-rp-set-after-bsr-failover",
        "one-shot-assert", "fragile-rp-holdtime"};
    return names;
}

const MutationTrigger& trigger_for_mutation(const std::string& mutation) {
    // The loss windows bracket the one control message whose loss turns the
    // seeded bug into a symptom: the Assert exchange of the first duplicate
    // burst (~280ms, lan-assert) and one mid-run RpReachability refresh on a
    // member's RP-facing link (the ~900ms generation tick, rp-failover).
    static const std::map<std::string, MutationTrigger> triggers = [] {
        std::map<std::string, MutationTrigger> m;
        m["stale-rp-set-after-bsr-failover"] =
            MutationTrigger{"crash-router-R1", {}};
        // The window is a third of a millisecond wide on purpose: it must
        // kill the winner's Assert reply (261.3ms) while delivering the
        // data copy (261.1ms) and the inferior Assert (261.2ms) that cause
        // it — dropping those merely postpones the election.
        m["one-shot-assert"] = MutationTrigger{
            "", {ForcedLoss{"dlan", 261 * kMs + 250 * sim::kMicrosecond,
                            261 * kMs + 350 * sim::kMicrosecond}}};
        m["fragile-rp-holdtime"] =
            MutationTrigger{"", {ForcedLoss{"M-R1", 850 * kMs, 950 * kMs}}};
        return m;
    }();
    static const MutationTrigger empty;
    const auto it = triggers.find(mutation);
    return it == triggers.end() ? empty : it->second;
}

bool apply_mutation(const std::string& mutation, scenario::StackConfig& config) {
    if (mutation.empty()) return true;
    if (mutation == "skip-spt-bit-handshake") {
        config.pim.mutate_skip_spt_bit_handshake = true;
        return true;
    }
    if (mutation == "no-rp-bit-prune") {
        config.pim.mutate_no_rp_bit_prune = true;
        return true;
    }
    if (mutation == "assert-loser-keeps-forwarding") {
        config.pim.mutate_assert_loser_keeps_forwarding = true;
        return true;
    }
    if (mutation == "stale-rp-set-after-bsr-failover") {
        config.bootstrap.mutate_stale_rp_set = true;
        return true;
    }
    if (mutation == "one-shot-assert") {
        config.pim.mutate_one_shot_assert = true;
        return true;
    }
    if (mutation == "fragile-rp-holdtime") {
        config.pim.mutate_fragile_rp_holdtime = true;
        return true;
    }
    return false;
}

std::string scenario_for_mutation(const std::string& mutation) {
    if (mutation == "assert-loser-keeps-forwarding") return "lan-assert";
    if (mutation == "one-shot-assert") return "lan-assert";
    if (mutation == "stale-rp-set-after-bsr-failover") return "bsr-failover";
    if (mutation == "fragile-rp-holdtime") return "rp-failover";
    return "walkthrough";
}

bool mutation_requires_search(const std::string& mutation) {
    return !trigger_for_mutation(mutation).losses.empty();
}

RunResult run_scenario(const std::string& name, const RunConfig& cfg) {
    const LoadedWorld& world = world_named(name);
    const scenario::Script& script = world.script;
    RunResult out;
    const std::unique_ptr<scenario::World> w = script.build(cfg.mutation);
    topo::Network& net = w->net;
    scenario::StackBase& stack = *w->stack;
    const topo::Host* sender =
        script.sender().empty() ? nullptr : &w->host_ref(script.sender());

    Driver driver(net, out, cfg, sender ? sender->address() : net::Ipv4Address{},
                  world.group);
    driver.attach_watchdog(stack);
    driver.arm_forced_loss(world.segment_names);
    script.schedule(*w);
    driver.arm_fault_slots(*w, script.fault_slots());

    std::uint64_t steady_iif_drops = 0;
    for (const scenario::Oracle& o : script.oracles()) {
        if (o.name != "steady-iif") continue;
        driver.checkpoint_until(o.from, stack);
        steady_iif_drops = net.stats().data_dropped_iif();
    }
    driver.checkpoint_until(world.info.horizon, stack);
    steady_iif_drops = net.stats().data_dropped_iif() - steady_iif_drops;
    std::vector<Violation> at_deadline = judge_at_deadline(script, *w);
    driver.probe_convergence(stack, w->config.pim.join_prune_interval);
    driver.finish();

    append(out, loop_violations(driver.crossings, world.segment_names,
                                net.stats().data_dropped_ttl()));
    for (const auto& host : net.hosts()) {
        append(out, duplicate_bound_violations(host->name(), host->duplicate_count()));
    }
    check_iif_consistency(out, out.final_mrib, *w);
    append(out, std::move(at_deadline));

    for (const scenario::Oracle& o : script.oracles()) {
        // Efficiency and completeness hold only on clean branches: the
        // protocol's own spec tolerates transient loss after a dropped
        // control message (soft state repairs at the next refresh, §3.4).
        if (o.name == "delivery" && out.clean) {
            // §3.3: switching from shared tree to SPT must not lose
            // packets, and soft-state refresh must keep the tree delivering.
            for (const std::string& member : world.members) {
                std::set<std::uint64_t> got;
                std::map<std::uint64_t, int> steady_copies;
                for (const topo::Host::ReceivedRecord& rec : w->host_ref(member).received()) {
                    if (rec.source != sender->address() || rec.group != world.group) continue;
                    got.insert(rec.seq);
                    if (rec.seq >= o.steady.first && rec.seq <= o.steady.second) {
                        ++steady_copies[rec.seq];
                    }
                }
                append(out, delivery_violations(member, got, o.seqs.first, o.seqs.second));
                append(out, steady_duplicate_violations(member, steady_copies));
            }
        } else if (o.name == "steady-redundancy" && out.clean) {
            // §3.3/§3.5: a converged tree crosses exactly the delivery
            // tree's segments once per packet; an extra crossing is a
            // shared-tree arm an RP-bit prune should have shut off.
            append(out, steady_redundancy_violations(driver.crossings, world.segment_names,
                                                     o.steady.first, o.steady.second,
                                                     o.crossings));
        } else if (o.name == "steady-iif" && out.clean && steady_iif_drops > 0) {
            // §3.5: in steady state every packet arrives on the expected
            // iif everywhere; iif-drops mean a stale or missing prune.
            add_violation(out, "steady-iif",
                          std::to_string(steady_iif_drops) +
                              " iif-check drops during the steady-state window");
        } else if (o.name == "assert-winner" && out.clean) {
            // A steady packet crossing the LAN twice means both upstreams
            // still forward: the loser never pruned.
            const auto lan = std::find(world.segment_names.begin(), world.segment_names.end(),
                                       o.args.front());
            append(out, assert_winner_violations(
                            driver.crossings,
                            static_cast<int>(std::distance(world.segment_names.begin(), lan)),
                            o.steady.first, o.steady.second));
        }
    }
    driver.emit_postmortem();
    return out;
}

std::string replay_script(const std::string& name, const std::string& mutation,
                          const RunResult& result) {
    const LoadedWorld& world = world_named(name);
    std::string out = "# pimcheck counterexample -- scenario " + name;
    if (!mutation.empty()) out += " --mutate " + mutation;
    out += "\n";
    for (const Violation& v : result.violations) {
        out += "# violation: " + v.oracle + ": " + v.detail + "\n";
    }

    ChoiceSet forced;
    std::string fault_lines;
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        const ChoiceRec& rec = result.trace[i];
        if (rec.pick == 0) continue;
        forced.push_back(Pick{static_cast<std::uint32_t>(i), rec.pick});
        if (rec.point.kind != sim::ChoicePoint::Kind::kFault) continue;
        const scenario::FaultSlot& slot =
            world.script.fault_slots().at(static_cast<std::size_t>(rec.point.detail));
        const scenario::FaultCandidate& cand = slot.candidates.at(rec.pick - 1);
        fault_lines += "at " + format_time(slot.at) + " " + cand.fault + "\n";
        if (!cand.repair.empty()) {
            fault_lines +=
                "at " + format_time(slot.at + cand.repair_after) + " " + cand.repair + "\n";
        }
    }
    if (forced.empty()) {
        out += "# the deterministic baseline run already fails -- no forced "
               "choices needed\n";
    } else {
        out += "# deviations from the deterministic baseline (replay exactly "
               "with:\n";
        out += "#   pimcheck --scenario " + name;
        if (!mutation.empty()) out += " --mutate " + mutation;
        out += " --replay " + format_choices(forced) + "):\n";
        for (const Pick& pick : forced) {
            out += "#   " + describe_choice(world, pick.index, result.trace[pick.index]) + "\n";
        }
        out += "# fault injections replay below; pimsim cannot force "
               "message-level order/loss\n";
    }
    out += world.text;
    if (!out.empty() && out.back() != '\n') out += "\n";
    out += "# the branch: its mutation and faults, run to its end (the convergence probes)\n";
    if (!mutation.empty()) out += "mutate " + mutation + "\n";
    out += "trace on\n" + fault_lines + "run " + format_time(result.end_time) + "\n";
    return out;
}

} // namespace pimlib::check
