/**
 * @file
 * Unit tests for the trace formats: CVP-1 (de)serialisation round-trips,
 * ChampSim record layout and file I/O, and exhaustive checks of the
 * branch-type deduction rules (original vs patched).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hh"
#include "trace/branch_deduce.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"
#include "trace/trace_stats.hh"

namespace trb
{
namespace
{

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

CvpRecord
randomCvpRecord(Rng &rng)
{
    CvpRecord rec;
    rec.pc = rng.next();
    rec.cls = static_cast<InstClass>(rng.below(9));
    if (isBranch(rec.cls)) {
        rec.taken = rng.chance(0.5);
        rec.target = rng.next();
    }
    if (isMem(rec.cls)) {
        rec.ea = rng.next();
        rec.accessSize = static_cast<std::uint8_t>(1u << rng.below(4));
    }
    unsigned nsrc = static_cast<unsigned>(rng.below(kMaxCvpSrc + 1));
    for (unsigned i = 0; i < nsrc; ++i)
        rec.addSrc(static_cast<RegId>(rng.below(aarch64::kNumRegs)));
    unsigned ndst = static_cast<unsigned>(rng.below(kMaxCvpDst + 1));
    for (unsigned i = 0; i < ndst; ++i)
        rec.addDst(static_cast<RegId>(rng.below(aarch64::kNumRegs)),
                   rng.next());
    return rec;
}

TEST(CvpRecord, AddHelpersRespectLimits)
{
    CvpRecord rec;
    for (unsigned i = 0; i < kMaxCvpSrc + 3; ++i)
        rec.addSrc(static_cast<RegId>(i + 1));
    EXPECT_EQ(rec.numSrc, kMaxCvpSrc);
    for (unsigned i = 0; i < kMaxCvpDst + 3; ++i)
        rec.addDst(static_cast<RegId>(i + 1), i);
    EXPECT_EQ(rec.numDst, kMaxCvpDst);
    EXPECT_TRUE(rec.readsReg(1));
    EXPECT_FALSE(rec.readsReg(60));
    EXPECT_TRUE(rec.writesReg(2));
    EXPECT_FALSE(rec.writesReg(60));
}

TEST(CvpSerialize, SingleRecordRoundTrip)
{
    Rng rng(101);
    for (int i = 0; i < 500; ++i) {
        CvpRecord rec = randomCvpRecord(rng);
        std::vector<std::uint8_t> buf;
        serializeCvpRecord(rec, buf);
        CvpRecord back;
        std::size_t off = 0;
        ASSERT_TRUE(deserializeCvpRecord(buf.data(), buf.size(), off, back));
        EXPECT_EQ(off, buf.size());
        EXPECT_TRUE(rec == back);
    }
}

TEST(CvpSerialize, TruncatedInputRejected)
{
    Rng rng(103);
    CvpRecord rec = randomCvpRecord(rng);
    std::vector<std::uint8_t> buf;
    serializeCvpRecord(rec, buf);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
        CvpRecord back;
        std::size_t off = 0;
        EXPECT_FALSE(deserializeCvpRecord(buf.data(), cut, off, back))
            << "cut=" << cut;
        EXPECT_EQ(off, 0u);
    }
}

TEST(CvpSerialize, GarbageClassRejected)
{
    std::vector<std::uint8_t> buf(9, 0);
    buf[8] = 200;   // invalid class byte
    CvpRecord back;
    std::size_t off = 0;
    EXPECT_FALSE(deserializeCvpRecord(buf.data(), buf.size(), off, back));
}

class CvpFileRoundTrip : public ::testing::TestWithParam<const char *>
{};

TEST_P(CvpFileRoundTrip, WholeTrace)
{
    Rng rng(107);
    CvpTrace trace;
    for (int i = 0; i < 3000; ++i)
        trace.push_back(randomCvpRecord(rng));
    std::string path = tempPath(std::string("trb_cvp_rt") + GetParam());
    Status st = tryWriteCvpTrace(path, trace);
    ASSERT_TRUE(st.ok()) << st.toString();
    Expected<CvpTrace> back = tryReadCvpTrace(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    ASSERT_EQ(back.value().size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_TRUE(trace[i] == back.value()[i]) << "record " << i;

    // Streaming reader agrees.
    CvpTraceReader reader;
    st = reader.open(path);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(reader.count(), trace.size());
    CvpRecord rec;
    std::size_t n = 0;
    while (reader.next(rec))
        ++n;
    EXPECT_TRUE(reader.status().ok()) << reader.status().toString();
    EXPECT_EQ(n, trace.size());
    fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(RawAndGz, CvpFileRoundTrip,
                         ::testing::Values(".bin", ".gz"));

TEST(CvpFile, EmptyTraceRoundTrips)
{
    std::string path = tempPath("trb_cvp_empty.bin");
    Status st = tryWriteCvpTrace(path, {});
    ASSERT_TRUE(st.ok()) << st.toString();
    Expected<CvpTrace> back = tryReadCvpTrace(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_TRUE(back.value().empty());
    fs::remove(path);
}

TEST(ChampSimRecord, LayoutIs64Bytes)
{
    EXPECT_EQ(sizeof(ChampSimRecord), 64u);
    EXPECT_EQ(offsetof(ChampSimRecord, ip), 0u);
    EXPECT_EQ(offsetof(ChampSimRecord, isBranch), 8u);
    EXPECT_EQ(offsetof(ChampSimRecord, branchTaken), 9u);
    EXPECT_EQ(offsetof(ChampSimRecord, destRegs), 10u);
    EXPECT_EQ(offsetof(ChampSimRecord, srcRegs), 12u);
    EXPECT_EQ(offsetof(ChampSimRecord, destMem), 16u);
    EXPECT_EQ(offsetof(ChampSimRecord, srcMem), 32u);
}

TEST(ChampSimRecord, SlotHelpers)
{
    ChampSimRecord rec;
    EXPECT_TRUE(rec.addSrcReg(5));
    EXPECT_TRUE(rec.addSrcReg(5));   // duplicate collapses
    EXPECT_TRUE(rec.addSrcReg(6));
    EXPECT_TRUE(rec.addSrcReg(7));
    EXPECT_TRUE(rec.addSrcReg(8));
    EXPECT_FALSE(rec.addSrcReg(9));  // full
    EXPECT_TRUE(rec.readsReg(5));
    EXPECT_FALSE(rec.readsReg(9));

    EXPECT_TRUE(rec.addDstReg(3));
    EXPECT_TRUE(rec.addDstReg(4));
    EXPECT_FALSE(rec.addDstReg(5));
    EXPECT_TRUE(rec.writesReg(3));

    EXPECT_FALSE(rec.isLoad());
    EXPECT_TRUE(rec.addSrcMem(0x1000));
    EXPECT_TRUE(rec.isLoad());
    EXPECT_EQ(rec.numSrcMem(), 1u);
    EXPECT_TRUE(rec.addDstMem(0x2000));
    EXPECT_TRUE(rec.isStore());
}

TEST(ChampSimFile, RoundTripRawAndGz)
{
    Rng rng(109);
    ChampSimTrace trace;
    for (int i = 0; i < 5000; ++i) {
        ChampSimRecord rec;
        rec.ip = rng.next();
        rec.isBranch = rng.chance(0.1);
        rec.branchTaken = rec.isBranch && rng.chance(0.5);
        if (rng.chance(0.3))
            rec.addSrcMem(rng.next());
        if (rng.chance(0.1))
            rec.addDstMem(rng.next());
        rec.addDstReg(static_cast<RegId>(1 + rng.below(50)));
        trace.push_back(rec);
    }
    for (const char *suffix : {".bin", ".gz"}) {
        std::string path = tempPath(std::string("trb_cs_rt") + suffix);
        Status st = tryWriteChampSimTrace(path, trace);
        ASSERT_TRUE(st.ok()) << st.toString();
        Expected<ChampSimTrace> back = tryReadChampSimTrace(path);
        ASSERT_TRUE(back.ok()) << back.status().toString();
        ASSERT_EQ(back.value().size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            ASSERT_TRUE(trace[i] == back.value()[i]);
        fs::remove(path);
    }
}

// ---------------------------------------------------------------------
// Branch deduction.

/** Build a record from usage flags using representative registers. */
ChampSimRecord
recordFromUsage(const RegUsage &u)
{
    ChampSimRecord rec;
    rec.isBranch = 1;
    if (u.readsSp)
        rec.addSrcReg(champsim::kStackPointer);
    if (u.readsIp)
        rec.addSrcReg(champsim::kInstructionPointer);
    if (u.readsFlags)
        rec.addSrcReg(champsim::kFlags);
    if (u.readsOther)
        rec.addSrcReg(champsim::kOtherReg);
    if (u.writesSp)
        rec.addDstReg(champsim::kStackPointer);
    if (u.writesIp)
        rec.addDstReg(champsim::kInstructionPointer);
    return rec;
}

TEST(BranchDeduce, RegUsageExtraction)
{
    ChampSimRecord rec;
    rec.addSrcReg(champsim::kStackPointer);
    rec.addSrcReg(champsim::kFlags);
    rec.addSrcReg(33);
    rec.addDstReg(champsim::kInstructionPointer);
    RegUsage u = regUsage(rec);
    EXPECT_TRUE(u.readsSp);
    EXPECT_TRUE(u.readsFlags);
    EXPECT_TRUE(u.readsOther);
    EXPECT_FALSE(u.readsIp);
    EXPECT_TRUE(u.writesIp);
    EXPECT_FALSE(u.writesSp);
}

TEST(BranchDeduce, CanonicalEncodings)
{
    struct Case
    {
        RegUsage u;
        BranchType original;
        BranchType patched;
    };
    const Case cases[] = {
        // B: reads+writes IP only.
        {{false, false, true, true, false, false},
         BranchType::DirectJump, BranchType::DirectJump},
        // BR Xn: writes IP, reads other.
        {{false, false, false, true, false, true},
         BranchType::IndirectJump, BranchType::IndirectJump},
        // B.cond: reads+writes IP, reads flags.
        {{false, false, true, true, true, false},
         BranchType::Conditional, BranchType::Conditional},
        // CBZ-style after branch-regs: reads+writes IP, reads other.
        // Original rules misclassify it as an indirect jump.
        {{false, false, true, true, false, true},
         BranchType::IndirectJump, BranchType::Conditional},
        // CALL: reads SP+IP, writes SP+IP.
        {{true, true, true, true, false, false},
         BranchType::DirectCall, BranchType::DirectCall},
        // Indirect CALL: reads SP+other, writes SP+IP.
        {{true, true, false, true, false, true},
         BranchType::IndirectCall, BranchType::IndirectCall},
        // RET: reads SP, writes SP+IP.
        {{true, true, false, true, false, false},
         BranchType::Return, BranchType::Return},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(deduceBranchType(c.u, DeductionRules::Original),
                  c.original);
        EXPECT_EQ(deduceBranchType(c.u, DeductionRules::Patched),
                  c.patched);
        // Record-level overload agrees with the flag-level one.
        EXPECT_EQ(deduceBranchType(recordFromUsage(c.u),
                                   DeductionRules::Original),
                  c.original);
        EXPECT_EQ(deduceBranchType(recordFromUsage(c.u),
                                   DeductionRules::Patched),
                  c.patched);
    }
}

TEST(BranchDeduce, NonBranchNeverTyped)
{
    ChampSimRecord rec;
    rec.addSrcReg(champsim::kFlags);
    EXPECT_EQ(deduceBranchType(rec, DeductionRules::Original),
              BranchType::NotBranch);
    RegUsage u;   // writesIp false
    u.readsIp = true;
    EXPECT_EQ(deduceBranchType(u, DeductionRules::Patched),
              BranchType::NotBranch);
}

/** Exhaustive sweep over all 64 usage combinations (writesIp forced). */
class DeduceSweep : public ::testing::TestWithParam<int>
{};

TEST_P(DeduceSweep, PatchedOnlyReclassifiesTheTwoDocumentedCases)
{
    int bits = GetParam();
    RegUsage u;
    u.readsSp = bits & 1;
    u.writesSp = bits & 2;
    u.readsIp = bits & 4;
    u.readsFlags = bits & 8;
    u.readsOther = bits & 16;
    u.writesIp = true;

    BranchType orig = deduceBranchType(u, DeductionRules::Original);
    BranchType pat = deduceBranchType(u, DeductionRules::Patched);
    if (orig != pat) {
        // The paper's two §3.2.2 modifications only move branches that
        // read IP and other registers (no SP involvement) from
        // indirect-jump/fallback into conditional.
        EXPECT_TRUE(u.readsIp && u.readsOther && !u.readsSp && !u.writesSp)
            << "bits=" << bits;
        EXPECT_EQ(pat, BranchType::Conditional);
    }
}

INSTANTIATE_TEST_SUITE_P(AllUsageCombos, DeduceSweep,
                         ::testing::Range(0, 32));

TEST(TraceStats, ChampSimCharacterization)
{
    ChampSimTrace trace;
    ChampSimRecord ld;
    ld.ip = 0x100;
    ld.addSrcMem(0x1000);
    ld.addSrcMem(0x1040);
    trace.push_back(ld);
    ChampSimRecord br = recordFromUsage(
        {false, false, true, true, true, false});
    br.ip = 0x104;
    br.branchTaken = 1;
    trace.push_back(br);
    trace.push_back(br);

    auto s = characterizeChampSim(trace, DeductionRules::Patched);
    EXPECT_EQ(s.instructions, 3u);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.multiLineAccesses, 1u);
    EXPECT_EQ(s.branches, 2u);
    EXPECT_EQ(s.takenBranches, 2u);
    EXPECT_EQ(s.staticPcs, 2u);
    EXPECT_EQ(
        s.perBranchType[static_cast<int>(BranchType::Conditional)], 2u);
}

} // namespace
} // namespace trb
