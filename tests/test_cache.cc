/**
 * @file
 * Tests for the cache substrate: tag-array behaviour under both
 * replacement policies, hierarchy latency composition, MSHR-style
 * in-flight merging, and the data prefetchers.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/prefetcher.hh"

namespace trb
{
namespace
{

CacheParams
tiny(const char *name, std::size_t bytes, unsigned ways,
     ReplPolicy policy = ReplPolicy::Lru)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = bytes;
    p.ways = ways;
    p.policy = policy;
    return p;
}

TEST(Cache, HitAfterInsert)
{
    Cache c(tiny("t", 4096, 4));
    EXPECT_FALSE(c.access(0x1000));
    std::size_t slot = c.insert(0x1000, false);
    EXPECT_EQ(c.probeSlot(0x1000), slot);
    EXPECT_EQ(c.accessSlot(0x103f), slot);  // same line
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_FALSE(c.access(0x1040));         // next line
    EXPECT_EQ(c.probeSlot(0x1040), Cache::kNoSlot);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.accesses(), 4u);
}

TEST(Cache, LruEviction)
{
    // 4 sets x 2 ways; lines mapping to set 0 stride by 4*64.
    Cache c(tiny("t", 8 * 64, 2));
    ASSERT_EQ(c.numSets(), 4u);
    Addr stride = 4 * 64;
    Eviction ev;
    c.insert(0x0, false, &ev);
    EXPECT_FALSE(ev.valid);                 // a free way, no victim
    c.insert(stride, false, &ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(c.access(0x0));             // refresh line 0
    c.insert(2 * stride, false, &ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, stride);             // LRU was the middle one
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(stride));
}

TEST(Cache, LineZeroVictimReported)
{
    Cache c(tiny("t", 2 * 64, 1));
    Eviction ev;
    c.insert(0x0, false, &ev);              // set 0
    c.insert(2 * 64, false, &ev);           // same set
    // The victim is the line at address 0, told apart from "no victim".
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, 0u);
}

TEST(Cache, SrripPrefetchInsertedDistant)
{
    // SRRIP: prefetched lines insert at distant RRPV and get evicted
    // before demand lines that have been reused.
    Cache c(tiny("t", 4 * 64, 4, ReplPolicy::Srrip));
    Eviction ev;
    c.insert(0 * 4 * 64, false);
    c.access(0);                            // promote to RRPV 0
    c.insert(1 * 4 * 64, true);             // prefetch: RRPV 3
    c.insert(2 * 4 * 64, false);
    c.insert(3 * 4 * 64, false);
    c.insert(4 * 4 * 64, false, &ev);       // needs a victim
    EXPECT_EQ(ev.addr, 1u * 4 * 64);        // the prefetched line goes
    EXPECT_TRUE(c.probe(0));
}

TEST(Cache, LruPrefersFreeWayAfterInvalidate)
{
    // One set of 4 ways: a way freed by invalidate is refilled before
    // the LRU line is evicted.
    Cache c(tiny("t", 4 * 64, 4));
    for (Addr a = 0; a < 4; ++a)
        c.insert(a * 64, false);
    ASSERT_EQ(c.numSets(), 1u);
    std::size_t freed = c.probeSlot(2 * 64);
    c.invalidate(2 * 64);
    EXPECT_FALSE(c.probe(2 * 64));
    Eviction ev;
    EXPECT_EQ(c.insert(9 * 64, false, &ev), freed);
    EXPECT_FALSE(ev.valid);
    c.insert(10 * 64, false, &ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, 0u);                 // now the oldest line goes
}

// ---------------------------------------------------------------------

HierarchyParams
smallHierarchy()
{
    HierarchyParams p;
    p.l1i = tiny("L1I", 4 * 1024, 4);
    p.l1i.latency = 4;
    p.l1d = tiny("L1D", 4 * 1024, 4);
    p.l1d.latency = 5;
    p.l2 = tiny("L2", 32 * 1024, 8);
    p.l2.latency = 10;
    p.llc = tiny("LLC", 256 * 1024, 16);
    p.llc.latency = 24;
    p.dramLatency = 180;
    p.l1dIpStride = false;
    p.l2NextLine = false;
    return p;
}

TEST(Hierarchy, LatencyComposition)
{
    MemoryHierarchy mh(smallHierarchy());
    // Cold: DRAM.
    auto r1 = mh.access(AccessKind::Load, 0x100000, 0x400000, 0);
    EXPECT_EQ(r1.latency, 5u + 10 + 24 + 180);
    EXPECT_EQ(r1.level, 4u);
    // Warm L1.
    auto r2 = mh.access(AccessKind::Load, 0x100000, 0x400000, 1000);
    EXPECT_EQ(r2.latency, 5u);
    EXPECT_EQ(r2.level, 1u);
    EXPECT_EQ(mh.l1dMisses(), 1u);
    EXPECT_EQ(mh.l2Misses(), 1u);
    EXPECT_EQ(mh.llcMisses(), 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    auto p = smallHierarchy();
    MemoryHierarchy mh(p);
    // Fill well past L1D capacity (4KB = 64 lines) but within L2.
    for (Addr a = 0; a < 256; ++a)
        mh.access(AccessKind::Load, 0x200000 + a * 64, 0x400000,
                  a * 1000);
    // The first line fell out of L1D but sits in L2.
    auto r = mh.access(AccessKind::Load, 0x200000, 0x400000, 10000000);
    EXPECT_EQ(r.latency, 5u + 10);
    EXPECT_EQ(r.level, 2u);
}

TEST(Hierarchy, InflightMergePaysRemainingLatency)
{
    MemoryHierarchy mh(smallHierarchy());
    auto r1 = mh.access(AccessKind::Load, 0x300000, 0x400000, 100);
    ASSERT_GT(r1.latency, 100u);
    // A second access 50 cycles later merges with the outstanding fill.
    auto r2 = mh.access(AccessKind::Load, 0x300040 - 64, 0x400004, 150);
    EXPECT_EQ(r2.latency, 5u + (100 + (r1.latency - 5) - 150));
    // The merge is a demand miss at the level still filling, and walks
    // nothing.
    EXPECT_TRUE(r2.l1Miss);
    EXPECT_EQ(r2.level, 4u);
    EXPECT_EQ(mh.l1dMshrMerges(), 1u);
    EXPECT_EQ(mh.l1dMisses(), 2u);
    EXPECT_EQ(mh.l2Accesses(), 1u);
    // Long after completion: plain hit.
    auto r3 = mh.access(AccessKind::Load, 0x300000, 0x400000, 100000);
    EXPECT_EQ(r3.latency, 5u);

    // A fetch on the cycle its fill lands no longer merges.
    auto i1 = mh.access(AccessKind::Instr, 0x500000, 0, 0);
    mh.access(AccessKind::Instr, 0x500000, 0, i1.latency - 4);
    EXPECT_EQ(mh.l1iMshrMerges(), 0u);
    mh.access(AccessKind::Instr, 0x540000, 0, 0);
    mh.access(AccessKind::Instr, 0x540000, 0, 1);
    EXPECT_EQ(mh.l1iMshrMerges(), 1u);
}

TEST(Hierarchy, InstrAndDataPathsSeparate)
{
    MemoryHierarchy mh(smallHierarchy());
    mh.access(AccessKind::Instr, 0x400000, 0, 0);
    EXPECT_EQ(mh.l1iMisses(), 1u);
    EXPECT_EQ(mh.l1dMisses(), 0u);
    auto r = mh.access(AccessKind::Instr, 0x400000, 0, 100000);
    EXPECT_EQ(r.latency, 4u);
    // The same line as data: L1D misses but L2 has it.
    auto rd = mh.access(AccessKind::Load, 0x400000, 0x1234, 200000);
    EXPECT_EQ(rd.latency, 5u + 10);
}

TEST(Hierarchy, InstrPrefetchHidesLatency)
{
    MemoryHierarchy mh(smallHierarchy());
    EXPECT_TRUE(mh.prefetchInstr(0x500000, 0));
    EXPECT_FALSE(mh.prefetchInstr(0x500000, 1));   // already in flight
    // Early demand: still pays the remaining fill time.
    auto r_early = mh.access(AccessKind::Instr, 0x500000, 0, 10);
    EXPECT_LT(r_early.latency, 4u + 10 + 24 + 180);
    // After the fill completes the line is a plain hit.
    auto r = mh.access(AccessKind::Instr, 0x500040 - 64, 0, 100000);
    EXPECT_EQ(r.latency, 4u);
    EXPECT_EQ(mh.l1iMisses(), 1u);   // the early demand still missed tags
}

TEST(Hierarchy, ProbeL1IRespectsInflight)
{
    MemoryHierarchy mh(smallHierarchy());
    EXPECT_FALSE(mh.probeL1I(0x600000, 0));
    mh.prefetchInstr(0x600000, 0);
    EXPECT_FALSE(mh.probeL1I(0x600000, 1));        // still in flight
    EXPECT_TRUE(mh.probeL1I(0x600000, 100000));    // fill done

    // The same for a demand fill, up to the cycle it lands; a probe
    // retires nothing, so an early demand access still merges.
    auto r = mh.access(AccessKind::Instr, 0x640000, 0, 0);
    Cycle lands = r.latency - 4;
    EXPECT_FALSE(mh.probeL1I(0x640000, lands - 1));
    EXPECT_TRUE(mh.probeL1I(0x640000, lands));
    EXPECT_TRUE(mh.access(AccessKind::Instr, 0x640000, 0, 1).l1Miss);
    EXPECT_EQ(mh.l1iMshrMerges(), 1u);
}

// The MSHR is folded into the L1 tag arrays; these pin the semantics
// the fold keeps.

TEST(Hierarchy, CompletedFillRetiresForEarlierAccesses)
{
    // Accesses do not arrive in cycle order: loads at issue, stores at
    // retire, fetches at fetch.  Once one access has seen a fill land,
    // the MSHR entry is gone, even for a later access at an earlier
    // cycle.
    MemoryHierarchy mh(smallHierarchy());
    mh.access(AccessKind::Load, 0x300000, 0x400000, 0);     // lands at 219
    auto late = mh.access(AccessKind::Store, 0x300000, 0x400000, 1000);
    EXPECT_FALSE(late.l1Miss);
    auto early = mh.access(AccessKind::Load, 0x300000, 0x400000, 10);
    EXPECT_FALSE(early.l1Miss);
    EXPECT_EQ(early.latency, 5u);
    EXPECT_EQ(mh.l1dMshrMerges(), 0u);

    // Without the completing access in between, the early one merges.
    mh.access(AccessKind::Load, 0x310000, 0x400000, 0);
    auto merged = mh.access(AccessKind::Load, 0x310000, 0x400000, 10);
    EXPECT_TRUE(merged.l1Miss);
    EXPECT_EQ(mh.l1dMshrMerges(), 1u);
}

TEST(Hierarchy, PrefetchOfResidentLineIssuesNothing)
{
    MemoryHierarchy mh(smallHierarchy());
    mh.access(AccessKind::Instr, 0x700000, 0, 0);
    mh.access(AccessKind::Load, 0x800000, 0x400000, 0);
    // In flight ...
    EXPECT_FALSE(mh.prefetchInstr(0x700000, 1));
    EXPECT_FALSE(mh.prefetchData(0x800010, 1));
    // ... and landed.
    EXPECT_FALSE(mh.prefetchInstr(0x700020, 100000));
    EXPECT_FALSE(mh.prefetchData(0x800000, 100000));
    EXPECT_EQ(mh.prefetchesIssued(), 0u);
    EXPECT_EQ(mh.l2Accesses(), 2u);
    EXPECT_TRUE(mh.prefetchData(0x900000, 100000));
    EXPECT_EQ(mh.prefetchesIssued(), 1u);
}

TEST(Hierarchy, EvictionDropsPendingFill)
{
    // L1D: 16 sets x 4 ways, so lines 1 KiB apart share a set.  Evict a
    // line while its fill is in flight; the re-fetch is a fresh L2 hit,
    // not a merge with the dropped fill.  Line 0 is included: it used
    // to be indistinguishable from "no victim".
    for (Addr base : {Addr{0}, Addr{0x40000}}) {
        MemoryHierarchy mh(smallHierarchy());
        mh.access(AccessKind::Load, base, 0x400000, 0);     // lands at 219
        for (Addr k = 1; k <= 4; ++k)
            mh.access(AccessKind::Load, base + k * 1024, 0x400000, k);
        auto again = mh.access(AccessKind::Load, base, 0x400000, 5);
        EXPECT_EQ(again.latency, 5u + 10) << "line " << base;
        EXPECT_EQ(again.level, 2u) << "line " << base;
        EXPECT_EQ(mh.l1dMshrMerges(), 0u) << "line " << base;
        EXPECT_EQ(mh.l2Accesses(), 6u) << "line " << base;
    }
}

TEST(Hierarchy, OutsizedL1SweepsCompletedFillsAt4096)
{
    // 4096 pending fills trigger a sweep of the completed ones.  A
    // swept fill no longer merges an access at an earlier cycle; one
    // short of the threshold, it still does.
    for (Addr extra : {Addr{4094}, Addr{4095}}) {
        HierarchyParams p = smallHierarchy();
        p.l1d = tiny("L1D", 4096 * 64, 4);
        p.l1d.latency = 5;
        MemoryHierarchy mh(p);
        mh.access(AccessKind::Load, 0, 0x400000, 0);        // lands at 219
        for (Addr k = 1; k <= extra; ++k)
            mh.access(AccessKind::Load, k * 64, 0x400000, 1000);
        auto early = mh.access(AccessKind::Load, 0, 0x400000, 100);
        EXPECT_EQ(early.l1Miss, extra == 4094) << extra;
        EXPECT_EQ(mh.l1dMshrMerges(), extra == 4094 ? 1u : 0u) << extra;
    }
}

TEST(Hierarchy, IpStridePrefetcherCutsMisses)
{
    auto base_params = smallHierarchy();
    MemoryHierarchy plain(base_params);
    auto pf_params = smallHierarchy();
    pf_params.l1dIpStride = true;
    MemoryHierarchy pf(pf_params);

    // One load instruction striding by 64B through 4 MiB.
    Cycle now = 0;
    for (Addr i = 0; i < 4096; ++i) {
        plain.access(AccessKind::Load, 0x1000000 + i * 64, 0x400100, now);
        pf.access(AccessKind::Load, 0x1000000 + i * 64, 0x400100, now);
        now += 300;   // far enough apart for fills to land
    }
    EXPECT_GT(pf.prefetchesIssued(), 1000u);
    EXPECT_LT(pf.l1dMisses(), plain.l1dMisses() / 4);
}

TEST(Hierarchy, NextLineHelpsSequentialInstrFootprint)
{
    auto base_params = smallHierarchy();
    MemoryHierarchy plain(base_params);
    auto pf_params = smallHierarchy();
    pf_params.l2NextLine = true;
    MemoryHierarchy pf(pf_params);

    // Loads marching sequentially through memory: next-line at L2 turns
    // most L2 misses into L2 hits.
    Cycle now = 0;
    for (Addr i = 0; i < 4096; ++i) {
        plain.access(AccessKind::Load, 0x2000000 + i * 64, 0x400200, now);
        pf.access(AccessKind::Load, 0x2000000 + i * 64, 0x400200, now);
        now += 300;
    }
    EXPECT_LT(pf.l2Misses(), plain.l2Misses() / 2);
}

TEST(Hierarchy, ReportContainsAllCounters)
{
    MemoryHierarchy mh(smallHierarchy());
    mh.access(AccessKind::Load, 0x1000, 0x400000, 0);
    StatSet stats;
    mh.report(stats);
    EXPECT_EQ(stats.get("l1d.accesses"), 1u);
    EXPECT_EQ(stats.get("l1d.misses"), 1u);
    EXPECT_EQ(stats.get("l2.misses"), 1u);
    EXPECT_EQ(stats.get("llc.misses"), 1u);
}

TEST(IpStride, DetectsStrideAfterConfidence)
{
    IpStridePrefetcher pf(2);
    std::vector<Addr> out;
    for (int i = 0; i < 3; ++i) {
        out.clear();
        pf.observe(0x400100, 0x1000 + i * 256, false, out);
    }
    EXPECT_TRUE(out.empty());   // confidence still building
    out.clear();
    pf.observe(0x400100, 0x1000 + 3 * 256, false, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], lineAddr(0x1000 + 4 * 256));
    EXPECT_EQ(out[1], lineAddr(0x1000 + 5 * 256));
}

TEST(IpStride, NoPrefetchOnRandom)
{
    IpStridePrefetcher pf(2);
    std::vector<Addr> out;
    Addr addrs[] = {0x1000, 0x9000, 0x3000, 0xf000, 0x2000, 0xb000};
    for (Addr a : addrs)
        pf.observe(0x400100, a, false, out);
    EXPECT_TRUE(out.empty());
}

TEST(NextLine, AlwaysNextLine)
{
    NextLinePrefetcher pf;
    std::vector<Addr> out;
    pf.observe(0, 0x1234, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], lineAddr(0x1234) + 64);
}

} // namespace
} // namespace trb
