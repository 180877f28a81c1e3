// Scenario-script interpreter tests: every `expect` form holds on a run
// that satisfies it and reports "line N: expect … got …" on one that does
// not; dump-state covers all five backends; and a seeded fuzz over the
// shipped scripts shows that malformed input either runs or fails with a
// line-numbered std::runtime_error — never another exception or a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/script.hpp"

namespace {

using pimlib::scenario::run_script;
using pimlib::scenario::ScriptResult;

/// Fig. 3's four routers: receiver on A's LAN, source on D's, RP at C.
/// Inline comments, as the format in script.hpp writes them, end a line.
const std::string kFig3 = R"(topology   # the named block
  router A B C D
  lan lan0 A
  host receiver lan0
  link A B   # a comment inside the block
  link B C
  link B D
  lan lan1 D
  host source lan1
end   # closes the block
rp 224.1.1.1 C                   # pim-sm: RP list; cbt: core
watchdog on
at 100ms join receiver 224.1.1.1
at 300ms send source 224.1.1.1 count=10 interval=20ms  # options, then a comment
run 1s #end
)"; // 15 lines

/// Runs `script` with its narration discarded.
ScriptResult run_quietly(const std::string& script) {
    std::FILE* sink = std::tmpfile();
    ScriptResult result = run_script(script, sink);
    std::fclose(sink);
    return result;
}

/// Runs `script` and returns its narration.
std::string narration(const std::string& script) {
    std::FILE* sink = std::tmpfile();
    (void)run_script(script, sink);
    std::rewind(sink);
    std::string text;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), sink)) > 0;) text.append(buf, n);
    std::fclose(sink);
    return text;
}

TEST(Script, EveryExpectFormHolds) {
    const ScriptResult result = run_quietly(kFig3 + R"(
at 900ms expect delivered receiver 224.1.1.1 10     # exactly 10 packets
at 900ms expect delivered receiver 224.1.1.1 >=9
at 900ms expect duplicates receiver 224.1.1.1 0
at 900ms expect entry A * 224.1.1.1 rp=C iif=B oif=lan0
at 900ms expect entry A source 224.1.1.1 spt iif=B  # (S,G) of host source,
at 900ms expect no-entry D * 224.1.1.1
at 900ms expect no-violation
)");
    EXPECT_EQ(result.expectations, 7u);
    EXPECT_TRUE(result.ok()) << result.failures.front();
}

TEST(Script, FailedExpectationsNameLineAndValue) {
    const ScriptResult result = run_quietly(kFig3 + R"(
at 900ms expect delivered receiver 224.1.1.1 9
at 900ms expect duplicates receiver 224.1.1.1 >=1
at 900ms expect entry D * 224.1.1.1
at 900ms expect entry A * 224.1.1.1 rp=B
at 900ms expect no-entry A source 224.1.1.1
at 2s expect delivered receiver 224.1.1.1 10
)");
    ASSERT_EQ(result.failures.size(), 6u);
    EXPECT_EQ(result.failures[0],
              "line 17: expect delivered receiver 224.1.1.1 9 got 10");
    EXPECT_EQ(result.failures[1],
              "line 18: expect duplicates receiver 224.1.1.1 >=1 got 0");
    EXPECT_EQ(result.failures[2], "line 19: expect entry D * 224.1.1.1 got no entry");
    EXPECT_EQ(result.failures[3].rfind("line 20: expect entry A * 224.1.1.1 rp=B got (*,", 0),
              0u)
        << result.failures[3];
    EXPECT_EQ(result.failures[4].rfind("line 21: expect no-entry A source 224.1.1.1 got (", 0),
              0u)
        << result.failures[4];
    // Past the end of the run: never checked, so not held.
    EXPECT_EQ(result.failures[5], "line 22: expect delivered receiver 224.1.1.1 10 got "
                                  "nothing: the run ends first");
}

TEST(Script, NoViolationFailsUnderSeededBug) {
    // The §3.1-§3.3 pentagon: skipping the SPT-bit handshake prunes the
    // shared-tree arm before the SPT delivers, and the watchdog sees the
    // lost packets.
    const ScriptResult result = run_quietly(R"(mutate skip-spt-bit-handshake
topology
  router A B C D E
  link A E delay=1ms metric=1
  link E B delay=20ms metric=1
  link A C delay=1ms metric=1
  link B C delay=1ms metric=2
  link C D delay=1ms metric=1
  lan lan0 A
  lan lan1 B
  host receiver lan0
  host source lan1
end
rp 224.1.1.1 C
watchdog on
at 120ms join receiver 224.1.1.1
at 250ms send source 224.1.1.1 count=12 interval=10ms
at 900ms expect no-violation
run 1s
)");
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].rfind("line 18: expect no-violation got 1 violation(s), "
                                       "first lan-delivery at receiver: ",
                                       0),
              0u)
        << result.failures[0];
}

TEST(Script, DumpStateShowsEveryBackend) {
    for (const std::string protocol : {"pim-sm", "pim-dm", "dvmrp", "cbt", "mospf"}) {
        const std::string text = narration(R"(topology
  router A B
  link A B
  lan lan0 A
  lan lan1 B
  host r lan0
  host s lan1
end
protocol )" + protocol + R"(
rp 224.1.1.1 B
at 100ms join r 224.1.1.1
at 300ms send s 224.1.1.1 count=5 interval=20ms
at 800ms dump-state
at 800ms expect delivered r 224.1.1.1 5
run 1s
)");
        const std::size_t state = text.find("--- state at t=800.0ms ---\n");
        ASSERT_NE(state, std::string::npos) << protocol;
        EXPECT_EQ(text.compare(state + 27, 4, "  A "), 0)
            << protocol << ": empty state block\n" << text.substr(state, 400);
        EXPECT_NE(text.find("--- expectations: 1, failed: 0 ---"), std::string::npos)
            << protocol;
    }
}

// --- seeded parser fuzz --------------------------------------------------

std::vector<std::string> split_words(const std::string& line) {
    std::istringstream in(line);
    std::vector<std::string> words;
    for (std::string w; in >> w;) words.push_back(w);
    return words;
}

std::string join_words(const std::vector<std::string>& words) {
    std::string out;
    for (const std::string& w : words) out += (out.empty() ? "" : " ") + w;
    return out;
}

/// True for "line N: <message>".
bool has_line_number(const std::string& what) {
    if (what.rfind("line ", 0) != 0) return false;
    const std::size_t colon = what.find_first_not_of("0123456789", 5);
    return colon > 5 && colon != std::string::npos && what.compare(colon, 2, ": ") == 0 &&
           what.size() > colon + 2;
}

/// A run longer than 1 s becomes 1 s, so each fuzz input stays cheap. Any
/// other `run` argument is left for the parser to judge.
void clamp_run(std::vector<std::string>& words) {
    if (words.size() != 2 || words[0] != "run") return;
    const std::string& t = words[1];
    const std::size_t split = t.find_first_not_of("0123456789");
    if (split == 0 || split == std::string::npos || split > 12) return;
    const long long amount = std::stoll(t.substr(0, split));
    const std::string unit = t.substr(split);
    const long long us = unit == "s"    ? amount * 1'000'000
                         : unit == "ms" ? amount * 1000
                         : unit == "us" ? amount
                                        : 0;
    if (us > 1'000'000) words[1] = "1s";
}

TEST(Script, SeededFuzzRunsOrFailsWithLineNumber) {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(PIMLIB_SCENARIO_DIR)) {
        if (entry.path().extension() == ".pimsim") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_GE(paths.size(), 5u);

    std::vector<std::vector<std::string>> scripts; // lines per script
    // Replacement tokens: every token of the shipped scripts, plus garbage.
    std::vector<std::string> pool = {"-1", "0", "abc", "1x", "-100ms", "nan", "=", "count=abc",
                                     ">=", "*", "#", "end", "topology", "224.0.0.1", "10.0.0.1",
                                     "18446744073709551616"};
    for (const auto& path : paths) {
        std::ifstream file(path);
        std::vector<std::string> lines;
        for (std::string line; std::getline(file, line);) {
            const std::vector<std::string> words = split_words(line);
            // File outputs stay out of the fuzz (a mutated path could land
            // anywhere in the working directory).
            if (!words.empty() && (words[0] == "dump-timeline" || words[0] == "dump-profile")) {
                continue;
            }
            for (const std::string& w : words) pool.push_back(w);
            lines.push_back(line);
        }
        scripts.push_back(std::move(lines));
    }

    std::mt19937 rng(20260501);
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    int ran = 0;
    int rejected = 0;
    for (int round = 0; round < 400; ++round) {
        std::vector<std::string> lines = scripts[pick(scripts.size())];
        for (int edits = 1 + static_cast<int>(pick(2)); edits > 0 && !lines.empty(); --edits) {
            const std::size_t at = pick(lines.size());
            std::vector<std::string> words = split_words(lines[at]);
            switch (pick(5)) {
            case 0: // replace a token
            case 1:
                if (!words.empty()) words[pick(words.size())] = pool[pick(pool.size())];
                break;
            case 2: // drop a token
                if (!words.empty()) {
                    words.erase(words.begin() + static_cast<long>(pick(words.size())));
                }
                break;
            case 3: // insert a token
                words.insert(words.begin() + static_cast<long>(pick(words.size() + 1)),
                             pool[pick(pool.size())]);
                break;
            default: // truncate the script here
                lines.resize(at);
                continue;
            }
            lines[at] = join_words(words);
        }
        std::string text;
        for (const std::string& line : lines) {
            std::vector<std::string> words = split_words(line);
            // Comments hold these words too, so a mutation can bring them back.
            if (!words.empty() && (words[0] == "dump-timeline" || words[0] == "dump-profile")) {
                continue;
            }
            clamp_run(words);
            text += join_words(words) + "\n";
        }
        try {
            (void)run_quietly(text);
            ++ran;
        } catch (const std::runtime_error& e) {
            EXPECT_TRUE(has_line_number(e.what()))
                << "round " << round << ": " << e.what() << "\n" << text;
            ++rejected;
        }
    }
    // Both paths are exercised, not just the parser's error exits.
    EXPECT_GT(ran, 30);
    EXPECT_GT(rejected, 30);
}

} // namespace
