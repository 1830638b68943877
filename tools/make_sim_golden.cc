/**
 * @file
 * Regenerates the committed SimStats golden file
 * tests/data/golden/sim_stats.txt from the cases in
 * tests/sim_golden.hh.  tests/test_sim_golden.cc recomputes the same
 * cases and demands every bit back.
 *
 * Regenerate only for an intended change to simulation output, with a
 * kSimKeyVersion bump in src/sim/simulator.cc and a CHANGES.md line.
 *
 * Usage:  make_sim_golden [output-file]
 *         (default tests/data/golden/sim_stats.txt)
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "sim_golden.hh"

int
main(int argc, char **argv)
{
    using namespace trb;
    std::string path =
        argc > 1 ? argv[1] : "tests/data/golden/sim_stats.txt";
    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent);

    std::string body =
        "# SimStats golden: one case per line, its name then "
        "SimStats::toBits() in decimal.\n"
        "# Written by tools/make_sim_golden from tests/sim_golden.hh; "
        "checked by tests/test_sim_golden.cc.\n"
        "# Any change here needs a kSimKeyVersion bump and a CHANGES.md "
        "line.\n";
    std::size_t count = 0;
    for (golden::Group g : {golden::Group::Modern, golden::Group::Ipc1,
                            golden::Group::OffDefault}) {
        std::vector<golden::Case> cases = golden::run(g);
        count += cases.size();
        body += golden::format(cases);
    }

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    if (!out.flush()) {
        std::fprintf(stderr, "make_sim_golden: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("wrote %zu cases to %s\n", count, path.c_str());
    return 0;
}
