/**
 * @file
 * The four-level memory hierarchy (L1I, L1D, shared L2, LLC, DRAM) with
 * latency-aware miss handling: a miss starts an in-flight fill that
 * becomes usable at now + latency, and demand accesses that land on an
 * in-flight line pay only the remaining time (an MSHR-hit).  Data
 * prefetchers (ip-stride at L1D, next-line at L2) and the instruction
 * prefetcher hook issue non-demand fills through the same machinery.
 *
 * The MSHR lives in the L1 tag arrays: each L1 way carries the cycle its
 * fill lands (0 = none in flight), so one tag walk answers both "is the
 * line here" and "is its fill done".
 */

#ifndef TRB_CACHE_HIERARCHY_HH
#define TRB_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace trb
{

/** Parameters of the whole hierarchy. */
struct HierarchyParams
{
    CacheParams l1i{"L1I", 32 * 1024, 8, 4, ReplPolicy::Lru};
    CacheParams l1d{"L1D", 48 * 1024, 12, 5, ReplPolicy::Lru};
    CacheParams l2{"L2", 512 * 1024, 8, 10, ReplPolicy::Lru};
    CacheParams llc{"LLC", 2 * 1024 * 1024, 16, 24, ReplPolicy::Srrip};
    Cycle dramLatency = 180;
    bool l1dIpStride = true;    //!< the paper's Icelake-like L1D prefetch
    bool l2NextLine = true;     //!< ... and its L2 next-line companion
};

/** What a demand access is. */
enum class AccessKind : std::uint8_t
{
    Instr,
    Load,
    Store,
};

/** Demand access outcome. */
struct AccessResult
{
    Cycle latency = 0;      //!< cycles until the data is usable
    unsigned level = 1;     //!< 1..3 = cache level that hit, 4 = DRAM
    bool l1Miss = false;
};

/** The memory hierarchy. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /** Demand access at cycle @p now. @p ip trains data prefetchers. */
    AccessResult access(AccessKind kind, Addr addr, Addr ip, Cycle now);

    /**
     * Instruction prefetch into the L1I (for instruction prefetchers).
     * @return true if a fill was started (not already present/in-flight).
     */
    bool prefetchInstr(Addr addr, Cycle now);

    /** Data prefetch into the L1D (exposed for completeness/tests). */
    bool prefetchData(Addr addr, Cycle now);

    /** True if the line is in the L1I or its fill has completed. */
    bool probeL1I(Addr addr, Cycle now) const;

    /// @name Demand statistics (misses are per-level demand misses).
    /// @{
    std::uint64_t l1iAccesses() const { return l1iAcc_; }
    std::uint64_t l1iMisses() const { return l1iMiss_; }
    std::uint64_t l1dAccesses() const { return l1dAcc_; }
    std::uint64_t l1dMisses() const { return l1dMiss_; }
    std::uint64_t l2Accesses() const { return l2Acc_; }
    std::uint64_t l2Misses() const { return l2Miss_; }
    std::uint64_t llcAccesses() const { return llcAcc_; }
    std::uint64_t llcMisses() const { return llcMiss_; }
    std::uint64_t prefetchesIssued() const { return pfIssued_; }
    /** Demand accesses that merged with an in-flight L1I fill. */
    std::uint64_t l1iMshrMerges() const { return l1iMshrMerge_; }
    /** Demand accesses that merged with an in-flight L1D fill. */
    std::uint64_t l1dMshrMerges() const { return l1dMshrMerge_; }
    /// @}

    /** Dump every counter into a StatSet. */
    void report(StatSet &stats) const;

    /**
     * Register every hierarchy counter under @p prefix in a metrics
     * registry ("<prefix>.l1i.accesses", "<prefix>.l1i.mshr_merges", ...).
     */
    void exportMetrics(obs::MetricsRegistry &reg,
                       const std::string &prefix = "cache") const;

  private:
    /**
     * Walk the shared levels (L2, LLC, DRAM) for a line that missed an
     * L1.  Counts demand statistics when @p demand and fills the shared
     * levels on the way back.
     * @return cumulative latency beyond the L1 access.
     */
    Cycle walkShared(Addr addr, bool write, bool demand, bool prefetched);

    /**
     * An L1: the tag array plus each way's fill-ready cycle.  A way
     * with readyAt > now holds a line whose fill is still in flight.
     */
    struct L1
    {
        explicit L1(const CacheParams &params)
            : tags(params), readyAt(tags.numSlots(), 0)
        {}

        Cache tags;
        std::vector<Cycle> readyAt;     //!< per slot; 0 = no fill pending
        std::size_t pending = 0;        //!< slots with readyAt != 0
    };

    /**
     * Cycles until the fill of the resident line in @p slot lands, 0 if
     * it has.  An access that sees the fill complete retires it, so a
     * later access at an earlier @p now (loads issue, stores retire,
     * fetches run ahead) no longer merges -- the MSHR entry is gone.
     */
    static Cycle pendingFill(L1 &l1, std::size_t slot, Cycle now);

    /**
     * Fill an absent line into @p l1 through the shared levels; the
     * fill lands at now + the returned beyond-L1 delay.  The way it
     * evicts takes its pending fill (if any) with it.
     */
    Cycle fillL1(L1 &l1, Addr addr, bool write, bool demand,
                 bool prefetched, Cycle now);

    /** A non-demand fill into @p l1 unless the line is resident. */
    bool prefetchL1(L1 &l1, Addr addr, Cycle now);

    HierarchyParams params_;
    L1 l1i_;
    L1 l1d_;
    Cache l2_;
    Cache llc_;

    std::unique_ptr<DataPrefetcher> l1dPrefetcher_;
    std::unique_ptr<DataPrefetcher> l2Prefetcher_;
    /** Candidate buffers, one per prefetcher: L1D prefetches walk the
     *  L2, and neither buffer gives up its capacity between accesses. */
    std::vector<Addr> l1dCands_;
    std::vector<Addr> l2Cands_;

    std::uint64_t l1iAcc_ = 0, l1iMiss_ = 0, l1iMshrMerge_ = 0;
    std::uint64_t l1dAcc_ = 0, l1dMiss_ = 0, l1dMshrMerge_ = 0;
    std::uint64_t l2Acc_ = 0, l2Miss_ = 0;
    std::uint64_t llcAcc_ = 0, llcMiss_ = 0;
    std::uint64_t pfIssued_ = 0;
};

} // namespace trb

#endif // TRB_CACHE_HIERARCHY_HH
