/**
 * @file
 * Golden SimStats: every bit of every case in tests/sim_golden.hh must
 * equal the committed tests/data/golden/sim_stats.txt, so no refactor
 * of the core model, the hierarchy or the predictors can change a
 * number unnoticed.  The same file is checked under every compiler and
 * build type; a difference between builds is a determinism bug, never a
 * reason for a per-compiler golden.
 *
 * Regenerate (only for an intended change, with a kSimKeyVersion bump):
 *     build/tools/make_sim_golden tests/data/golden/sim_stats.txt
 */

#include <gtest/gtest.h>

#include <fstream>

#include "sim_golden.hh"

namespace trb
{
namespace
{

const std::map<std::string, std::vector<std::uint64_t>> &
committed()
{
    static const auto cases = [] {
        std::map<std::string, std::vector<std::uint64_t>> out;
        std::ifstream in(std::string(TRB_SOURCE_DIR) +
                         "/tests/data/golden/sim_stats.txt");
        std::string err;
        if (!in || !golden::parse(in, out, err))
            ADD_FAILURE() << "cannot read the golden file: " << err;
        return out;
    }();
    return cases;
}

void
checkGroup(golden::Group g)
{
    const auto &want = committed();
    std::vector<golden::Case> got = golden::run(g);
    ASSERT_FALSE(got.empty());

    std::size_t in_file = 0;
    std::string prefix = std::string(golden::groupName(g)) + "/";
    for (const auto &[name, bits] : want)
        in_file += name.compare(0, prefix.size(), prefix) == 0;
    EXPECT_EQ(got.size(), in_file) << "case list and golden file differ";

    for (const golden::Case &c : got) {
        auto it = want.find(c.name);
        if (it == want.end()) {
            ADD_FAILURE() << c.name << " missing from the golden file";
            continue;
        }
        EXPECT_EQ(c.bits, it->second) << c.name;
    }
}

TEST(SimGolden, FileIsWellFormed)
{
    ASSERT_FALSE(committed().empty());
    std::size_t width = committed().begin()->second.size();
    EXPECT_EQ(width, SimStats{}.toBits().size())
        << "SimStats layout changed: regenerate and bump kSimKeyVersion";
    for (const auto &[name, bits] : committed())
        EXPECT_EQ(bits.size(), width) << name;
}

TEST(SimGolden, ModernConfigFigureOneSets)
{
    checkGroup(golden::Group::Modern);
}

TEST(SimGolden, Ipc1ConfigEveryPrefetcher)
{
    checkGroup(golden::Group::Ipc1);
}

TEST(SimGolden, OffDefaultCore)
{
    checkGroup(golden::Group::OffDefault);
}

} // namespace
} // namespace trb
