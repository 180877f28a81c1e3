// pimsim — runs one scenario script and checks its expectations. The script
// format is documented in src/scenario/script.hpp; the paper's walkthroughs
// are in examples/scenarios/.
//
// Usage: pimsim SCRIPT
//
// Exit status: 0 when every `expect` holds, 1 when one fails (each failure
// is printed as "line N: expect … got …"), 2 on a script error.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/script.hpp"

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: pimsim SCRIPT\n"
                     "  runs a scenario script (see examples/scenarios/*.pimsim) and\n"
                     "  checks its expect directives: exit 0 when all hold, 1 when one\n"
                     "  fails, 2 on a script error\n");
        return 2;
    }
    std::ifstream file(argv[1]);
    if (!file) {
        std::fprintf(stderr, "pimsim: cannot open %s\n", argv[1]);
        return 2;
    }
    std::stringstream text;
    text << file.rdbuf();
    try {
        const pimlib::scenario::ScriptResult result =
            pimlib::scenario::run_script(text.str());
        std::fflush(stdout); // the narration first, then the verdict
        for (const std::string& failure : result.failures) {
            std::fprintf(stderr, "pimsim: %s\n", failure.c_str());
        }
        return result.ok() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pimsim: %s\n", e.what());
        return 2;
    }
}
