#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace trb
{

namespace
{

/**
 * Pending fills above which completed ones are swept out of an L1, so
 * the set of fills in flight stays bounded.  No shipped L1 has this
 * many ways, so only an outsized L1 ever sweeps.
 */
constexpr std::size_t kPendingSweep = 4096;

/** Classify a beyond-L1 delay into the level that provided the data. */
unsigned
levelOf(Cycle beyond, const HierarchyParams &p)
{
    if (beyond == 0)
        return 1;
    if (beyond <= p.l2.latency)
        return 2;
    if (beyond <= p.l2.latency + p.llc.latency)
        return 3;
    return 4;
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d), l2_(params.l2),
      llc_(params.llc)
{
    if (params.l1dIpStride)
        l1dPrefetcher_ = std::make_unique<IpStridePrefetcher>();
    if (params.l2NextLine)
        l2Prefetcher_ = std::make_unique<NextLinePrefetcher>();
}

Cycle
MemoryHierarchy::walkShared(Addr addr, bool demand, bool prefetched)
{
    Addr line = lineAddr(addr);

    bool l2_hit;
    if (demand) {
        ++l2Acc_;
        l2_hit = l2_.access(line);
        if (!l2_hit)
            ++l2Miss_;
    } else {
        l2_hit = l2_.probe(line);
    }

    // The L2 next-line prefetcher observes all L2 demand traffic (hits
    // included, or a marching stream would only ever run one line ahead).
    if (demand && l2Prefetcher_) {
        l2Cands_.clear();
        l2Prefetcher_->observe(0, addr, l2_hit, l2Cands_);
        for (Addr cand : l2Cands_) {
            if (!l2_.probe(cand) && !llc_.probe(cand)) {
                ++pfIssued_;
                // Next-line fill: bring into L2 (and LLC) quietly.
                llc_.insert(cand, true);
                l2_.insert(cand, true);
            }
        }
    }

    if (l2_hit)
        return params_.l2.latency;

    Cycle lat = params_.l2.latency;
    if (demand) {
        ++llcAcc_;
        if (llc_.access(line)) {
            l2_.insert(line, prefetched);
            return lat + params_.llc.latency;
        }
        ++llcMiss_;
    } else if (llc_.probe(line)) {
        l2_.insert(line, prefetched);
        return lat + params_.llc.latency;
    }

    // DRAM.
    llc_.insert(line, prefetched);
    l2_.insert(line, prefetched);
    return lat + params_.llc.latency + params_.dramLatency;
}

Cycle
MemoryHierarchy::pendingFill(L1 &l1, std::size_t slot, Cycle now)
{
    Cycle &ready = l1.readyAt[slot];
    if (ready > now)
        return ready - now;
    if (ready != 0) {
        ready = 0;
        --l1.pending;
    }
    return 0;
}

Cycle
MemoryHierarchy::fillL1(L1 &l1, Addr addr, bool demand, bool prefetched,
                        Cycle now)
{
    Cycle beyond = walkShared(addr, demand, prefetched);
    std::size_t slot = l1.tags.insert(lineAddr(addr), prefetched);
    // The evicted way's pending fill, if any, goes with it.
    Cycle &ready = l1.readyAt[slot];
    l1.pending -= ready != 0;
    ready = now + beyond;
    l1.pending += ready != 0;
    if (l1.pending >= kPendingSweep) {
        for (Cycle &r : l1.readyAt) {
            if (r != 0 && r <= now) {
                r = 0;
                --l1.pending;
            }
        }
    }
    return beyond;
}

bool
MemoryHierarchy::prefetchL1(L1 &l1, Addr addr, Cycle now)
{
    if (l1.tags.probe(lineAddr(addr)))
        return false;
    ++pfIssued_;
    fillL1(l1, addr, false, true, now);
    return true;
}

AccessResult
MemoryHierarchy::access(AccessKind kind, Addr addr, Addr ip, Cycle now)
{
    AccessResult res;
    const bool instr = kind == AccessKind::Instr;
    L1 &l1 = instr ? l1i_ : l1d_;
    std::uint64_t &acc = instr ? l1iAcc_ : l1dAcc_;
    std::uint64_t &miss = instr ? l1iMiss_ : l1dMiss_;
    std::uint64_t &merge = instr ? l1iMshrMerge_ : l1dMshrMerge_;

    ++acc;
    res.latency = instr ? params_.l1i.latency : params_.l1d.latency;
    std::size_t slot = l1.tags.accessSlot(addr);
    const bool hit = slot != Cache::kNoSlot;
    if (hit) {
        // Tag hit, but the fill may still be in flight (a late prefetch
        // or an MSHR merge): pay the remaining time and count it as a
        // demand miss.
        if (Cycle remaining = pendingFill(l1, slot, now)) {
            res.latency += remaining;
            res.l1Miss = true;
            ++miss;
            ++merge;
            res.level = levelOf(remaining, params_);
        }
    } else {
        ++miss;
        res.l1Miss = true;
        Cycle beyond = fillL1(l1, addr, true, false, now);
        res.latency += beyond;
        res.level = levelOf(beyond, params_);
    }

    // Train the L1D prefetcher on every demand data access.
    if (!instr && l1dPrefetcher_) {
        l1dCands_.clear();
        l1dPrefetcher_->observe(ip, addr, hit, l1dCands_);
        for (Addr cand : l1dCands_)
            prefetchL1(l1d_, cand, now);
    }
    return res;
}

bool
MemoryHierarchy::prefetchInstr(Addr addr, Cycle now)
{
    return prefetchL1(l1i_, addr, now);
}

bool
MemoryHierarchy::prefetchData(Addr addr, Cycle now)
{
    return prefetchL1(l1d_, addr, now);
}

bool
MemoryHierarchy::probeL1I(Addr addr, Cycle now) const
{
    std::size_t slot = l1i_.tags.probeSlot(addr);
    return slot != Cache::kNoSlot && l1i_.readyAt[slot] <= now;
}

void
MemoryHierarchy::report(StatSet &stats) const
{
    stats.set("l1i.accesses", l1iAcc_);
    stats.set("l1i.misses", l1iMiss_);
    stats.set("l1i.mshr_merges", l1iMshrMerge_);
    stats.set("l1d.accesses", l1dAcc_);
    stats.set("l1d.misses", l1dMiss_);
    stats.set("l1d.mshr_merges", l1dMshrMerge_);
    stats.set("l2.accesses", l2Acc_);
    stats.set("l2.misses", l2Miss_);
    stats.set("llc.accesses", llcAcc_);
    stats.set("llc.misses", llcMiss_);
    stats.set("prefetch.issued", pfIssued_);
}

void
MemoryHierarchy::exportMetrics(obs::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    StatSet stats;
    report(stats);
    for (const auto &[name, value] : stats.entries())
        reg.setCounter(prefix + "." + name, value);
}

} // namespace trb
