/**
 * @file
 * perfbench --self-test: the order statistics against hand-computed
 * values, and every correctness check against a right input (must
 * pass) and a deliberately wrong one (must fail).
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

int g_failures = 0;
int g_tests = 0;

void
expect(bool ok, const std::string &what)
{
    ++g_tests;
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testStats()
{
    expect(near(median({3, 1, 2}), 2.0), "median of odd count");
    expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    double q1, q2, q3;
    quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, q1, q2, q3);
    expect(near(q1, 2.75) && near(q2, 5.5) && near(q3, 8.25),
           "quartiles of 1..10");
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    quartiles({4, 1, 2}, q1, q2, q3);
    expect(near(q1, 1.0) && near(q2, 2.0) && near(q3, 4.0),
           "quartiles of three values");
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    Tail t = tail(v);
    expect(near(t.value, 90.0) && near(t.percentile, 90.0) &&
               t.samples == 100,
           "tail of 1..100 is p90 = 90 (ten samples beyond)");
    v.resize(39);
    t = tail(v);
    expect(near(t.value, 20.0) && near(t.percentile, 50.0),
           "fewer than forty samples: the median");
}

std::map<std::string, double>
paperSigns()
{
    return {{"mem-regs", 0.1},    {"base-update", 2.0},
            {"mem-footprint", -0.2}, {"call-stack", 0.0},
            {"branch-regs", -3.0}, {"flag-reg", -4.0},
            {"Memory", 1.5},       {"Branch", -6.0},
            {"All", -4.5}};
}

void
testFigureOne()
{
    Checks good;
    checkFigureOneSigns(paperSigns(), good);
    expect(good.ok(), "fig1: the paper's signs pass");
    for (const auto &[name, v] : paperSigns()) {
        std::map<std::string, double> bad = paperSigns();
        bad[name] = name == std::string("mem-regs") ||
                            name == std::string("mem-footprint")
                        ? 0.9
                        : (v == 0.0 ? -1.0 : -v);
        Checks c;
        checkFigureOneSigns(bad, c);
        expect(!c.ok(), "fig1: flipped " + name + " must fail");
    }
}

trb::SimStats
someStats()
{
    trb::SimStats s;
    s.instructions = 900;
    s.cycles = 1200;
    s.branches = 100;
    s.branchMispredicts = 7;
    s.directionMispredicts = 5;
    s.l1iAccesses = 300, s.l1iMisses = 10;
    s.l1dAccesses = 250, s.l1dMisses = 20;
    s.l2Accesses = 30, s.l2Misses = 8;
    s.llcAccesses = 8, s.llcMisses = 3;
    return s;
}

void
testRunAndConversion()
{
    Checks good;
    checkRun(someStats(), 1000, 100, "good", good);
    trb::ConvStats cs;
    cs.splitMicroOps = 25;
    checkConversion(975, 1000, cs, "good", good);
    expect(good.ok(), "run and conversion invariants pass");

    Checks c1;
    checkRun(someStats(), 1000, 99, "retired", c1);
    expect(!c1.ok(), "retired != converted - warm-up must fail");
    trb::SimStats s = someStats();
    s.branchMispredicts = 101;
    Checks c2;
    checkRun(s, 1000, 100, "mispredicts", c2);
    expect(!c2.ok(), "mispredicts > branches must fail");
    s = someStats();
    s.llcMisses = 9;
    Checks c3;
    checkRun(s, 1000, 100, "misses", c3);
    expect(!c3.ok(), "misses > accesses must fail");
    Checks c4;
    checkConversion(976, 1000, cs, "split", c4);
    expect(!c4.ok(), "converted != cvp + split must fail");
}

void
testPrefetchers()
{
    std::map<std::string, double> comp = {{"a", 1.02}, {"b", 1.05}};
    std::map<std::string, double> fixed = {{"a", 1.04}, {"b", 1.06}};
    Checks good;
    checkPrefetchers(comp, fixed, good);
    expect(good.ok(), "tab3: speedups above 1 pass");
    expect(prefetcherShift(comp, fixed).find("2 of 2") !=
               std::string::npos,
           "tab3: both prefetchers counted faster on the fixed traces");
    Checks c1;
    checkPrefetchers(comp, {{"a", 1.04}}, c1);
    expect(!c1.ok(), "tab3: a missing prefetcher must fail");
    comp["a"] = 0.99;
    Checks c2;
    checkPrefetchers(comp, fixed, c2);
    expect(!c2.ok(), "tab3: a speedup below 1 must fail");
}

std::vector<Exchange>
someExchanges()
{
    std::vector<Exchange> ex(3);
    ex[0].id = "cold", ex[0].cold = true, ex[0].seq = 1;
    ex[0].bits = someStats().toBits();
    ex[1].id = "ping", ex[1].ping = true;
    ex[2].id = "warm", ex[2].twin = "cold", ex[2].seq = 2;
    ex[2].statsFromStore = true;
    ex[2].bits = someStats().toBits();
    for (Exchange &e : ex) {
        e.replies = 1;
        e.ok = true;
        e.replyId = e.id;
    }
    return ex;
}

void
testServe()
{
    std::map<std::string, std::vector<std::uint64_t>> direct = {
        {"cold", someStats().toBits()}};
    Checks good;
    checkServe(someExchanges(), direct, good);
    expect(good.ok(), "serve: one reply each, bits equal, pass");

    std::vector<Exchange> ex = someExchanges();
    ex[2].bits[3] ^= 1;
    Checks c1;
    checkServe(ex, direct, c1);
    expect(!c1.ok(), "serve: one changed stats bit (warm) must fail");
    ex = someExchanges();
    ex[0].bits[0] ^= 1;
    ex[2].bits[0] ^= 1;
    Checks c2;
    checkServe(ex, direct, c2);
    expect(!c2.ok(), "serve: one changed stats bit (cold) must fail");
    ex = someExchanges();
    ex[1].replies = 0;
    Checks c3;
    checkServe(ex, direct, c3);
    expect(!c3.ok(), "serve: a missing reply must fail");
    ex = someExchanges();
    ex[2].seq = 1;
    Checks c4;
    checkServe(ex, direct, c4);
    expect(!c4.ok(), "serve: a repeated seq must fail");
    ex = someExchanges();
    ex[2].statsFromStore = false;
    Checks c5;
    checkServe(ex, direct, c5);
    expect(!c5.ok(), "serve: a warm reply not from the store must fail");
}

void
testAudit()
{
    AuditResult none, all;
    none.uops = all.uops = 10;
    none.regionUops = all.regionUops = 4;
    none.regionRowSums = all.regionRowSums = {4, 4, 2};
    none.rules = {{"mem-dest-regs", 3}, {"flag-dest", 2},
                  {"base-update-split", 1}};
    trb::ConvStats cs;
    cs.baseUpdatePost = 1;
    Checks good;
    checkAudit(none, all, cs, "good", good);
    expect(good.ok(), "audit: clean All_imps, defective No_imp, pass");

    AuditResult bad = all;
    bad.flowErrors = 1;
    Checks c1;
    checkAudit(none, bad, cs, "bad", c1);
    expect(!c1.ok(), "audit: an All_imps error must fail");
    bad = none;
    bad.rules.erase("base-update-split");
    Checks c2;
    checkAudit(bad, all, cs, "bad", c2);
    expect(!c2.ok(), "audit: missing base-update-split must fail");
    bad = none;
    bad.regionRowSums = {4, 3, 2};
    Checks c3;
    checkAudit(bad, all, cs, "bad", c3);
    expect(!c3.ok(), "audit: a short BBV row must fail");
}

} // namespace

int
runSelfTest()
{
    testStats();
    testFigureOne();
    testRunAndConversion();
    testPrefetchers();
    testServe();
    testAudit();
    std::printf("self-test: %d of %d passed\n", g_tests - g_failures,
                g_tests);
    return g_failures ? 1 : 0;
}

} // namespace perfbench
