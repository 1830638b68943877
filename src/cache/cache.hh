/**
 * @file
 * A set-associative cache tag array with pluggable replacement (LRU or
 * SRRIP).  Purely structural: hit/miss/insert/evict bookkeeping; the
 * hierarchy (hierarchy.hh) owns latencies and miss handling.
 */

#ifndef TRB_CACHE_CACHE_HH
#define TRB_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace trb
{

/** Replacement policies available to Cache. */
enum class ReplPolicy : std::uint8_t
{
    Lru,
    Srrip,
};

/** Structural parameters of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    Cycle latency = 4;              //!< added cycles when this level hits
    ReplPolicy policy = ReplPolicy::Lru;
};

/** What Cache::insert displaced. */
struct Eviction
{
    bool valid = false;     //!< a valid line was evicted (else a free way)
    Addr addr = 0;          //!< its line address; meaningful iff valid
};

/**
 * Tag-array cache with LRU/SRRIP replacement.  The arrays are laid out
 * struct-of-arrays (tags, recency stamps, RRPVs), so the tag walk of
 * one set reads only the tags, 8 bytes a way.  A way is named by its
 * slot, set * ways + way, which the hierarchy uses to index per-way
 * state of its own.
 */
class Cache
{
  public:
    /** Slot value meaning "not present". */
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    explicit Cache(const CacheParams &params);

    /**
     * Demand access to the line containing @p addr.
     * @return the slot it hit (recency/RRPV updated), or kNoSlot.
     */
    std::size_t accessSlot(Addr addr);

    /** The line's slot, or kNoSlot (no replacement state update). */
    std::size_t probeSlot(Addr addr) const;

    /** accessSlot() as a hit flag. */
    bool access(Addr addr) { return accessSlot(addr) != kNoSlot; }

    /** True if the line is present (no replacement state update). */
    bool probe(Addr addr) const { return probeSlot(addr) != kNoSlot; }

    /**
     * Insert the line containing @p addr, which must be absent (every
     * caller has just missed on it).
     * @param prefetched marks SRRIP distant-reuse insertion
     * @param[out] evicted what the fill displaced, if @p evicted is set
     * @return the slot the line now occupies
     */
    std::size_t insert(Addr addr, bool prefetched,
                       Eviction *evicted = nullptr);

    /** Invalidate the line if present. */
    void invalidate(Addr addr);

    const CacheParams &params() const { return params_; }
    std::size_t numSets() const { return sets_; }
    /** Total ways (sets x associativity): the slot count. */
    std::size_t numSlots() const { return tags_.size(); }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insertions() const { return insertions_; }

  private:
    /** Tag of an invalid way: no line number reaches it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::size_t
    setBase(Addr addr) const
    {
        return (lineNum(addr) & setMask_) * params_.ways;
    }
    static Addr tagOf(Addr addr) { return lineNum(addr); }
    std::size_t pickVictim(std::size_t base);

    /** Replacement-state update of a hit or fill: the policy's own. */
    void
    touch(std::size_t slot, std::uint8_t rrpv)
    {
        if (params_.policy == ReplPolicy::Lru)
            lru_[slot] = ++clock_;
        else
            rrpv_[slot] = rrpv;
    }

    CacheParams params_;
    std::size_t sets_;
    std::size_t setMask_;
    std::vector<Addr> tags_;            //!< per slot; kInvalidTag = empty
    std::vector<std::uint64_t> lru_;    //!< recency stamp (LRU only)
    std::vector<std::uint8_t> rrpv_;    //!< re-reference (SRRIP only)
    std::uint64_t clock_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
};

} // namespace trb

#endif // TRB_CACHE_CACHE_HH
