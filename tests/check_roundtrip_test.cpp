// Counterexample round-trip tests: every artifact pimcheck emits must be
// actionable. The replay spec embedded in an emitted script's header is
// parsed back out and re-run in-process (same violation must fire), and
// the script itself is fed through the scenario-script interpreter that
// pimsim runs, to prove the emitted text is a loadable scenario.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "check/backward.hpp"
#include "check/explorer.hpp"
#include "scenario/script.hpp"

namespace {

using pimlib::check::ChoiceSet;
using pimlib::check::Counterexample;
using pimlib::check::RunConfig;
using pimlib::check::RunResult;
using pimlib::check::Violation;

/// Parsed form of a counterexample script's header comments.
struct ReplaySpec {
    std::string scenario;
    std::string mutation;
    ChoiceSet choices; // empty when the baseline branch already fails
};

std::string word_after(const std::string& text, const std::string& flag,
                       std::size_t from = 0) {
    const std::size_t at = text.find(flag, from);
    if (at == std::string::npos) return {};
    std::size_t begin = at + flag.size();
    std::size_t end = begin;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n' &&
           text[end] != ')') {
        ++end;
    }
    return text.substr(begin, end - begin);
}

std::optional<ReplaySpec> parse_header(const std::string& script) {
    ReplaySpec spec;
    spec.scenario = word_after(script, "-- scenario ");
    if (spec.scenario.empty()) return std::nullopt;
    spec.mutation = word_after(script, " --mutate ");
    const std::string replay = word_after(script, " --replay ");
    if (!replay.empty()) {
        const auto parsed = pimlib::check::parse_choices(replay);
        if (!parsed.has_value()) return std::nullopt;
        spec.choices = *parsed;
    }
    return spec;
}

std::set<std::string> oracle_set(const std::vector<Violation>& violations) {
    std::set<std::string> out;
    for (const Violation& v : violations) out.insert(v.oracle);
    return out;
}

/// Re-runs the spec extracted from `ce.script` and checks the same oracle
/// family fires again.
void expect_round_trip(const Counterexample& ce) {
    const auto spec = parse_header(ce.script);
    ASSERT_TRUE(spec.has_value()) << ce.script.substr(0, 200);
    RunConfig cfg;
    cfg.choices = spec->choices;
    cfg.mutation = spec->mutation;
    const RunResult replayed =
        pimlib::check::run_scenario(spec->scenario, cfg);
    EXPECT_FALSE(replayed.violations.empty())
        << "replay spec reproduced nothing: " << ce.script.substr(0, 300);
    EXPECT_EQ(oracle_set(replayed.violations), oracle_set(ce.violations));
}

TEST(CounterexampleRoundTrip, ForwardBaselineVisibleMutation) {
    pimlib::check::ExploreOptions options;
    options.mutation = "assert-loser-keeps-forwarding";
    options.scenario = pimlib::check::scenario_for_mutation(options.mutation);
    options.max_runs = 5;
    options.stop_at_first_violation = true;
    const auto report = pimlib::check::explore(options);
    ASSERT_FALSE(report.counterexamples.empty());
    expect_round_trip(report.counterexamples.front());
}

TEST(CounterexampleRoundTrip, BackwardFaultDependentMutation) {
    pimlib::check::BackwardOptions options;
    options.mutation = "stale-rp-set-after-bsr-failover";
    options.target = pimlib::check::target_for_mutation(options.mutation);
    options.scenario =
        pimlib::check::scenario_for_mutation(options.mutation);
    options.max_replays = 50;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    expect_round_trip(report.counterexamples.front());
}

TEST(CounterexampleRoundTrip, BackwardLossDependentMutation) {
    pimlib::check::BackwardOptions options;
    options.mutation = "one-shot-assert";
    options.target = pimlib::check::target_for_mutation(options.mutation);
    options.scenario =
        pimlib::check::scenario_for_mutation(options.mutation);
    options.max_replays = 100;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    expect_round_trip(report.counterexamples.front());
}

// --- pimsim parser round trip -------------------------------------------

TEST(CounterexampleRoundTrip, EmittedScriptIsLoadablePimsimScenario) {
    // A counterexample with a fault pick exercises the emitted
    // crash/restart fault directives too.
    pimlib::check::BackwardOptions options;
    options.mutation = "stale-rp-set-after-bsr-failover";
    options.target = pimlib::check::target_for_mutation(options.mutation);
    options.scenario =
        pimlib::check::scenario_for_mutation(options.mutation);
    options.max_replays = 50;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    // Parse + full run, throwing on any script error.
    EXPECT_NO_THROW(
        pimlib::scenario::run_script(report.counterexamples.front().script));
}

/// The std::runtime_error message `script` fails with ("" if it runs).
std::string script_error(const std::string& script) {
    try {
        (void)pimlib::scenario::run_script(script);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(CounterexampleRoundTrip, PimsimParserRejectsGarbage) {
    const std::string topology =
        "topology\nrouter A\nlan lan0 A\nhost h lan0\nend\n"; // lines 1-5
    EXPECT_EQ(script_error("run 1x\n"), "line 1: bad time unit in '1x' (use s/ms/us)");
    EXPECT_EQ(script_error("protocol warp-drive\nrun 1ms\n"),
              "line 1: unknown protocol 'warp-drive'");
    // A negative time is rejected, not clamped to t=0 (or asserted on).
    EXPECT_EQ(script_error(topology + "at -100ms join h 224.1.1.1\nrun 1s\n"),
              "line 6: negative time '-100ms'");
    // Every number reports its line, not a bare "stoi".
    EXPECT_EQ(script_error(topology + "at 1ms send h 224.1.1.1 count=abc\nrun 1s\n"),
              "line 6: bad count 'abc'");
    EXPECT_EQ(script_error(topology + "spt-policy threshold x 10\nrun 1s\n"),
              "line 6: bad threshold packets 'x'");
    EXPECT_EQ(script_error(topology + "candidate-bsr A 300\nrun 1s\n"),
              "line 6: bad candidate-bsr priority '300'");
    EXPECT_EQ(script_error(topology + "at 1ms loss-lan lan0 nan\nrun 1s\n"),
              "line 6: bad loss rate 'nan'");
    EXPECT_EQ(script_error(topology + "run 2000000s\n"),
              "line 6: bad time '2000000s' (at most 1000000s)");
    EXPECT_EQ(script_error(topology + "run 0s\n"),
              "line 6: run needs a positive duration");
    EXPECT_EQ(script_error(topology), "line 5: missing 'run' directive");
    // Name lookups and topology-block errors carry script line numbers too.
    EXPECT_EQ(script_error(topology + "at 1ms join nobody 224.1.1.1\nrun 1s\n"),
              "line 6: unknown host 'nobody'");
    EXPECT_EQ(script_error("# comment\ntopology\nrouter A\nlink A Z\nend\nrun 1s\n"),
              "line 4: unknown router 'Z'");
    EXPECT_EQ(script_error(topology + "at 1ms dump-state now\nrun 1s\n"),
              "line 6: unexpected 'now'");
    EXPECT_EQ(script_error(topology + "at 1ms expect no-entry A * 224.1.1.1 spt\nrun 1s\n"),
              "line 6: unexpected 'spt'");
    EXPECT_EQ(script_error(topology + "at 1ms expect no-violation\nrun 1s\n"),
              "line 6: 'expect no-violation' needs 'watchdog on'");
    // The checker's declarations are checked too, although pimsim runs the
    // baseline without them.
    EXPECT_EQ(script_error(topology + "oracle delivery seqs=1-3\nrun 1s\n"),
              "line 6: oracle delivery takes seqs=A-B steady=A-B");
    EXPECT_EQ(script_error(topology + "oracle delivery seqs=1-3 steady=2-3\nrun 1s\n"),
              "line 7: oracle delivery needs a send");
    EXPECT_EQ(script_error(topology + "fault-slot 1ms join h 224.1.1.1\nrun 1s\n"),
              "line 6: fault-slot candidate 'join' is not a fault "
              "(fail-link|crash-router|partition|loss-link|loss-lan)");
    EXPECT_EQ(script_error(topology + "fault-slot 1ms crash-router A |\nrun 1s\n"),
              "line 6: missing fault candidate");
    EXPECT_EQ(script_error(topology + "fault-slot 1ms loss-lan lan0 0.5 for 1ms\nrun 1s\n"),
              "line 6: 'for' undoes fail-link, crash-router and partition");
}

} // namespace
