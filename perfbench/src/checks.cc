#include "checks.hh"

#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench
{

using namespace trb;

void
checkFigureOneSigns(const std::map<std::string, double> &d, Checks &c)
{
    auto get = [&](const char *name) {
        auto it = d.find(name);
        return it == d.end() ? std::nan("") : it->second;
    };
    auto tag = [&](const char *name, const char *want) {
        return std::string("fig1 ") + name + " " + want + " (got " +
               std::to_string(get(name)) + "%)";
    };
    for (const char *n : {"base-update", "Memory"})
        c.expect(get(n) > 0.0, tag(n, "> 0"));
    for (const char *n : {"branch-regs", "flag-reg", "Branch", "All"})
        c.expect(get(n) < 0.0, tag(n, "< 0"));
    c.expect(get("call-stack") >= 0.0, tag("call-stack", ">= 0"));
    for (const char *n : {"mem-regs", "mem-footprint"})
        c.expect(std::fabs(get(n)) <= 0.5, tag(n, "within +-0.5%"));
}

void
checkRun(const SimStats &s, std::uint64_t convertedRecords,
         std::uint64_t warmup, const std::string &tag, Checks &c)
{
    c.expect(s.instructions == convertedRecords - warmup,
             tag + ": retired " + std::to_string(s.instructions) +
                 " != converted " + std::to_string(convertedRecords) +
                 " - warm-up " + std::to_string(warmup));
    c.expect(s.branchMispredicts <= s.branches &&
                 s.directionMispredicts <= s.branches,
             tag + ": more mispredicts than branches");
    c.expect(s.l1iMisses <= s.l1iAccesses && s.l1dMisses <= s.l1dAccesses &&
                 s.l2Misses <= s.l2Accesses && s.llcMisses <= s.llcAccesses,
             tag + ": more misses than accesses at some level");
}

void
checkConversion(std::uint64_t cvpRecords, std::uint64_t converted,
                const ConvStats &stats, const std::string &tag, Checks &c)
{
    c.expect(converted == cvpRecords + stats.splitMicroOps,
             tag + ": converted " + std::to_string(converted) +
                 " != cvp " + std::to_string(cvpRecords) + " + split " +
                 std::to_string(stats.splitMicroOps));
}

void
checkPrefetchers(const std::map<std::string, double> &competition,
                 const std::map<std::string, double> &fixed, Checks &c)
{
    c.expect(!competition.empty() && competition.size() == fixed.size(),
             "tab3: prefetcher sets differ");
    const std::map<std::string, double> *sets[2] = {&competition, &fixed};
    const char *names[2] = {"competition", "fixed"};
    for (int v = 0; v < 2; ++v)
        for (const auto &[pf, speedup] : *sets[v])
            c.expect(speedup > 1.0, std::string("tab3 ") + names[v] + " " +
                                        pf + " speedup " +
                                        std::to_string(speedup) +
                                        " not above 1");
}

std::string
prefetcherShift(const std::map<std::string, double> &competition,
                const std::map<std::string, double> &fixed)
{
    double sum[2] = {0, 0};
    unsigned higher = 0;
    for (const auto &[pf, speedup] : competition) {
        auto it = fixed.find(pf);
        double f = it == fixed.end() ? 0.0 : it->second;
        higher += f > speedup;
        sum[0] += speedup;
        sum[1] += f;
    }
    const double n = competition.empty() ? 1.0
                                         : static_cast<double>(
                                               competition.size());
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "tab3: %u of %zu prefetchers faster on the fixed traces; "
                  "mean speedup %.4f fixed vs %.4f competition",
                  higher, competition.size(), sum[1] / n, sum[0] / n);
    return buf;
}

void
checkServe(const std::vector<Exchange> &exchanges,
           const std::map<std::string, std::vector<std::uint64_t>> &direct,
           Checks &c)
{
    std::map<std::string, const Exchange *> byId;
    std::set<std::uint64_t> seqs;
    for (const Exchange &e : exchanges) {
        c.expect(e.replies == 1, e.id + ": " + std::to_string(e.replies) +
                                     " replies, want exactly one");
        c.expect(byId.emplace(e.id, &e).second, e.id + ": id sent twice");
        if (e.replies == 0)
            continue;
        c.expect(e.ok && e.replyId == e.id,
                 e.id + ": reply not ok or for another request (" +
                     e.replyId + ")");
        if (!e.ping)
            c.expect(seqs.insert(e.seq).second,
                     e.id + ": seq " + std::to_string(e.seq) + " repeats");
    }
    for (const Exchange &e : exchanges) {
        if (e.ping || e.replies == 0)
            continue;
        if (e.cold) {
            auto it = direct.find(e.id);
            c.expect(it != direct.end() && it->second == e.bits,
                     e.id + ": stats differ from a direct simulate()");
            c.expect(!e.statsFromStore,
                     e.id + ": cold request answered from the store");
        } else {
            auto twin = byId.find(e.twin);
            c.expect(twin != byId.end() && twin->second->bits == e.bits,
                     e.id + ": warm stats differ from cold twin " + e.twin);
            c.expect(e.statsFromStore,
                     e.id + ": warm request not answered from the store");
        }
    }
}

void
checkAudit(const AuditResult &none, const AuditResult &all,
           const ConvStats &allStats, const std::string &tag, Checks &c)
{
    c.expect(all.lintErrors == 0 && all.flowErrors == 0,
             tag + " All_imps: " + std::to_string(all.lintErrors) +
                 " lint and " + std::to_string(all.flowErrors) +
                 " whole-program errors, want 0");
    c.expect(none.count("mem-dest-regs") > 0,
             tag + " No_imp: no mem-dest-regs errors");
    c.expect(none.count("flag-dest") > 0,
             tag + " No_imp: no flag-dest errors");
    if (allStats.baseUpdatePre + allStats.baseUpdatePost > 0)
        c.expect(none.count("base-update-split") > 0,
                 tag + " No_imp: base-update splits drew no "
                       "base-update-split errors");
    for (const AuditResult *r : {&none, &all}) {
        std::uint64_t left = r->uops;
        bool rows_ok = r->regionUops > 0 && !r->regionRowSums.empty();
        for (std::uint64_t sum : r->regionRowSums) {
            std::uint64_t want = std::min(left, r->regionUops);
            rows_ok = rows_ok && sum == want;
            left -= want;
        }
        c.expect(rows_ok && left == 0,
                 tag + ": a region's BBV row does not sum to its length");
    }
}

} // namespace perfbench
