// Scenario scripts: the one text format for a narrated, asserted multicast
// run. A script holds a topology block (the topo::TopologyBuilder format)
// or a generated transit-stub topology, a protocol selection, optional
// observers and workloads, and a timeline of events and expectations.
// `pimsim` runs one script; the checker emits its counterexamples as
// scripts; examples/scenarios/*.pimsim are the paper's walkthroughs.
//
// Format (one directive per line, '#' starts a comment to the end of the line):
//
//     seed 42                          # one seed reproduces the whole run
//     topology
//       router A B C D
//       lan lan0 A
//       host receiver lan0
//       link A B
//       link B C
//       link B D
//       lan lan1 D
//       host source lan1
//     end
//     # ... or a generated wide-area topology instead of the block:
//     # topology transit-stub transit=2 transit-size=3 stubs=2 stub-size=3 senders=2
//     #   (routers t<domain>-<n> / s<domain>-<n>, bank hosts bankN on LANs
//     #    lanN, sender hosts senderN)
//     protocol pim-sm                  # pim-sm | pim-dm | dvmrp | cbt | mospf
//     rp 224.1.1.1 C                   # pim-sm: RP list; cbt: core
//     candidate-bsr C 20               # pim-sm: bootstrap-elect the BSR
//                                      #   instead (priority, then address)
//     candidate-rp 224.0.0.0/4 C 20    # pim-sm: advertise C to the elected
//                                      #   BSR as RP for the range
//     spt-policy immediate             # immediate | never | threshold M WINDOW_MS
//     trace on                         # wiretap with decoded control messages
//     telemetry off                    # disable event/span tracing (default on)
//     snapshot-every 500ms             # periodic MRIB snapshots
//     monitor trees 100ms              # live tree-health analytics
//     watchdog on                      # online invariant watchdogs (lost/dup
//                                      #   packets, iif-RPF, stale entries)
//     mutate skip-spt-bit-handshake    # a seeded protocol bug (pimcheck --list)
//     provenance on                    # per-packet flight recorder (optional
//                                      #   ring capacity: provenance on 4096)
//     profile on                       # CPU zones; optional ring capacity
//     dump-profile out.collapsed       # end-of-run collapsed stacks + zone table
//     dump-timeline out.json           # causal join-transaction timeline
//                                      #   (Chrome trace-event JSON)
//     workload churn rate=200 mean=2s groups=8 zipf=1.0 bank=1000
//                                      # Poisson join/leave churn over host
//                                      #   banks (also session=exponential|
//                                      #   fixed|pareto shape=A start=T stop=T)
//     workload flash at=1s joins=500 window=200ms hold=1s rank=0
//     workload sender sender0 224.9.0.1 on=1s off=1s interval=50ms
//     at 100ms join receiver 224.1.1.1
//     at 300ms send source 224.1.1.1 count=10 interval=50ms
//     at 900ms fail-link A B           # faults go through fault::FaultInjector
//     at 1500ms heal-link A B
//     at 900ms crash-router B          # all ifaces down, soft state lost
//     at 1500ms restart-router B
//     at 900ms loss-link A B 0.3       # 30% per-frame loss
//     at 900ms loss-lan lan0 0.3
//     at 900ms partition A B C D       # cut links A-B and C-D together
//     at 1500ms heal-partition
//     at 2s leave receiver 224.1.1.1
//     at 2s dump-state                 # every router's MRIB entries
//     at 2s dump-metrics prom          # prom | json registry dump
//     at 2s dump-events                # structured event log
//     at 2s snapshot                   # MRIB snapshot, diffed against the last
//     at 2s mtrace source receiver 224.1.1.1   # hop path of the last delivery
//     at 2s dump-provenance            # recorder JSON + per-router drops
//     at 1s profile off                # runtime profiler toggle
//     run 3s
//
// Expectations are checked when their event fires, in script order with the
// other events of the same instant:
//
//     at 1s expect delivered receiver 224.1.1.1 10     # exactly 10 packets
//     at 6s expect delivered receiver 224.1.1.1 >=25   # at least 25
//     at 1s expect duplicates receiver 224.1.1.1 0     # (source, seq) repeats
//     at 3s expect entry A * 224.1.1.1 rp=E            # A holds (*,G), RP E
//     at 3s expect entry A source 224.1.1.1 spt iif=B  # (S,G) of host source,
//                                                      #   SPT bit, iif on the
//                                                      #   link to B
//     at 3s expect entry U * 224.1.1.1 oif=transit     # oif onto LAN transit
//     at 9s expect no-entry U * 224.1.1.1
//     at 2s expect no-violation                        # needs 'watchdog on'
//
// iif=/oif= name a neighbour router (the point-to-point link to it) or a LAN.
// An expectation the run never reaches counts as failed.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace pimlib::scenario {

struct ScriptResult {
    std::size_t expectations = 0; // expect directives in the script
    /// One "line N: expect … got …" message per expectation that failed.
    std::vector<std::string> failures;

    [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Parses and runs one script, narrating the run to `out`. Throws
/// std::runtime_error("line N: …") when the script is malformed; a failed
/// expectation is not an error but an entry in the result.
ScriptResult run_script(const std::string& text, std::FILE* out = stdout);

} // namespace pimlib::scenario
